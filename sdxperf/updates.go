package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/routeserver"
)

// The updates workload: a 100-participant exchange (§6.1 policy mix, 4,000
// prefixes) behind a live route server. One open loop sends single-prefix
// UPDATEs at a fixed rate over at most nproc sender sessions; each flips a
// monitor session's best route for its prefix, so every UPDATE yields one
// fabric sample (due time to the BARRIER_REPLY fencing its FLOW_MODs) and
// one peer sample (due time to the monitor receiving the new best route).
const (
	updatesParticipants = 100
	updatesPrefixes     = 4000
	// A sender's UPDATE either takes its prefix over with a one-hop path
	// (shorter than any generated route, whose paths are 2-4 hops) or
	// hands it back with a ten-hop path (longer than any).
	upPath, downPath = 1, 10
	// updatesExtraHops lengthens every generated route by one hop so a
	// one-hop UPDATE is strictly preferred.
	updatesExtraHops = 1
	// updatesWarmSet is the size of the working set most UPDATEs cycle
	// through; the set-up toggles each of its prefixes up and down once.
	updatesWarmSet = 32
	// coldEvery: one UPDATE in coldEvery misses the fast-path memo.
	coldEvery = 20
)

// updateRate is the open loop's offered load in UPDATEs per second, well
// under the path's measured capacity (README.md); the flag that overrides
// it is for measuring that capacity.
var updateRate = 40

// sample is one UPDATE's life: sent at due, its prefix handed to the
// fast path at entry, fenced on the switch at fabric, and seen by the
// monitor at peer.
type sample struct {
	id       int64
	prefix   netip.Prefix
	expectAS uint32
	due      time.Time
	sent     bool
	entry    time.Time
	fabric   time.Time
	peer     time.Time
	// Set by the fast-path hook.
	fastDur, pushDur time.Duration
	rules            int
}

type monRoute struct {
	as uint32
	nh netip.Addr
}

// updatesRig is one set-up of the updates workload.
type updatesRig struct {
	x        *exchange
	fab      *fabric
	fe       *routeserver.Frontend
	rsBGP    *bgp.Speaker
	rsMet    *bgp.Metrics
	speakers []*bgp.Speaker
	monitor  int
	senders  []int
	peers    map[int]*bgp.Peer
	setup    compileSample // the first compilation and base install

	nextHops atomic.Int64 // Frontend.NextHop calls

	mu      sync.Mutex
	tr      *tracer
	pending map[netip.Prefix]*sample
	table   map[netip.Prefix]monRoute
	hookErr error

	// The toggle schedule: order holds every prefix a sender toggles;
	// warm and cold are the two sets UPDATEs are drawn from (see pick).
	order              []netip.Prefix
	senderOf           map[netip.Prefix]int
	up                 map[netip.Prefix]bool
	warm, cold         []netip.Prefix
	next, nWarm, nCold int
	id                 int64
}

func runUpdates(opts options) (*result, error) {
	participants, prefixes := updatesParticipants, updatesPrefixes
	if opts.small {
		participants, prefixes = 20, 300
	}
	build := func() (*updatesRig, error) {
		return newUpdatesRig(opts.seed, participants, prefixes, int(opts.seconds*float64(updateRate))/coldEvery+1)
	}
	rig, setup, err := timedSetups(opts, build, (*updatesRig).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	res := newResult()
	res.note("updates: %d participants, %d prefixes, %d sender sessions + 1 monitor, open loop at %d UPDATE/s",
		participants, prefixes, len(rig.senders), updateRate)

	var traced *phase
	if !opts.trace {
		ph := rig.measure(opts.seconds, nil)
		ph.check(res)
		ph.endToEnd(res, rig)
		res.set("setup_s", setup, "s")
		res.note("updates: generator lateness p50 %.3f ms p99 %.3f ms over %d UPDATEs",
			median(ph.late), quantile(ph.late, 0.99), len(ph.late))
		fab, peer := ph.latencies()
		histogram(res, fab, peer)
	} else {
		// Each half gets a set-up of its own: every UPDATE leaves fast-band
		// rules that no background compile clears in this workload, so a
		// second half on the first half's table would be slower, traced or
		// not, and the difference would not be the tracing overhead.
		ph0 := rig.measure(opts.seconds/2, nil)
		ph0.check(res)
		e2eU, e2eT := newResult(), newResult()
		ph0.endToEnd(e2eU, rig)
		rig.finalChecks(res)
		rig.close()
		if rig, err = build(); err != nil {
			return nil, err
		}
		tr := &tracer{}
		ph := rig.measure(opts.seconds/2, tr)
		ph.check(res)
		ph.endToEnd(e2eT, rig)
		printOverhead(os.Stdout, e2eU.metrics, e2eT.metrics)
		res.tr = tr
		res.note("updates: generator lateness p99 %.3f ms", quantile(ph.late, 0.99))
		traced = ph
	}
	res.note("updates: working set of %d prefixes; %d cold UPDATEs drew on %d fresh reachability classes",
		len(rig.warm), rig.nCold, len(rig.cold))
	rig.finalChecks(res)
	if traced != nil {
		traced.perLayer(res, rig, opts.seed)
	}
	return res, nil
}

func newUpdatesRig(seed int64, participants, prefixes, colds int) (*updatesRig, error) {
	x, err := newExchange(participants, prefixes)
	if err != nil {
		return nil, err
	}
	r := &updatesRig{
		x:        x,
		monitor:  -1,
		peers:    map[int]*bgp.Peer{},
		pending:  map[netip.Prefix]*sample{},
		table:    map[netip.Prefix]monRoute{},
		senderOf: map[netip.Prefix]int{},
		up:       map[netip.Prefix]bool{},
	}
	// Live sessions go to policy-free members from the small end of the
	// announcement skew: the monitor has no policy at all, so its traffic
	// takes the best route; senders have no outbound policy.
	nSenders := max(1, min(runtime.NumCPU(), 8))
	for mi := participants - 1; mi >= 0 && len(r.senders) < nSenders; mi-- {
		switch {
		case r.monitor < 0 && !x.hasPolicy(mi):
			r.monitor = mi
		case r.monitor >= 0 && !x.hasOutbound(mi):
			r.senders = append(r.senders, mi)
		}
	}
	if r.monitor < 0 || len(r.senders) == 0 {
		return nil, fmt.Errorf("exchange has no policy-free members for the live sessions")
	}
	if err := x.loadRoutes(updatesExtraHops); err != nil {
		return nil, err
	}

	// Every prefix the monitor does not announce is toggled by one sender
	// that does not announce it either.
	for i, p := range x.ex.Prefixes {
		if x.announces(r.monitor, p) {
			continue
		}
		for k := range r.senders {
			s := r.senders[(i+k)%len(r.senders)]
			if !x.announces(s, p) {
				r.senderOf[p] = s
				r.order = append(r.order, p)
				break
			}
		}
	}
	// Each sender starts out announcing every prefix it toggles with the
	// long path, so the generated best routes stand when measuring starts.
	for _, p := range r.order {
		mi := r.senderOf[p]
		m := x.ex.Members[mi]
		attrs := r.pathOf(mi, downPath)
		route := bgp.Route{Prefix: p, Attrs: bgp.Intern(attrs), PeerAS: m.AS, PeerID: m.Ports[0].RouterIP}
		if err := x.rs.Load(m.ID, route); err != nil {
			return nil, err
		}
		x.paths[p][mi] = downPath
	}

	// The fast path memoizes the slice it compiles for a prefix by the
	// prefix's reachability class: its advertisers and its best two next
	// hops. Most UPDATEs toggle a small working set whose classes the
	// set-up has already compiled (memo hits); one in coldEvery takes up a
	// prefix of a class no earlier UPDATE of the run touched (a memo miss).
	// The share of misses is thus fixed by the inputs, not by how warm the
	// memo happens to be, and p50 and p90 sit in the hit mode. Both
	// sets are the exchange's first classes in address order, the same in
	// every run (a miss costs what its class costs, and a sample of classes
	// drawn afresh per seed would move the tail); the seed orders them.
	seen := map[string]bool{}
	for _, p := range r.order {
		k := r.classOf(p)
		if seen[k] {
			continue
		}
		seen[k] = true
		if len(r.warm) < updatesWarmSet {
			r.warm = append(r.warm, p)
		} else if len(r.cold) < colds {
			r.cold = append(r.cold, p)
		}
	}
	if len(r.cold) == 0 {
		return nil, fmt.Errorf("exchange has too few reachability classes for the schedule")
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(r.warm), func(i, j int) { r.warm[i], r.warm[j] = r.warm[j], r.warm[i] })
	rng.Shuffle(len(r.cold), func(i, j int) { r.cold[i], r.cold[j] = r.cold[j], r.cold[i] })

	if err := r.start(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// start wires the route server, the fabric and the live sessions the way
// sdx-controller does, and waits until the monitor holds the reference best
// route for every prefix.
func (r *updatesRig) start() error {
	x := r.x
	var err error
	if r.fab, err = connectFabric(x.ctrl, x.ports); err != nil {
		return err
	}
	r.rsMet = bgp.NewMetrics(x.reg)
	r.rsBGP = bgp.NewSpeaker(bgp.SessionConfig{
		LocalAS:  64512,
		LocalID:  netip.AddrFrom4([4]byte{10, 255, 255, 254}),
		HoldTime: bgp.DefaultHoldTime,
		Metrics:  r.rsMet,
	})
	r.fe = routeserver.NewFrontend(x.rs, r.rsBGP)
	r.fe.NextHop = r.nextHop
	r.fe.OnPrefixes = r.onPrefixes
	for _, m := range x.ex.Members {
		for _, p := range m.Ports {
			if err := r.fe.RegisterPeer(p.RouterIP, m.ID); err != nil {
				return err
			}
		}
	}
	addr, err := r.rsBGP.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}

	// First compilation and base install, before any session.
	if _, r.setup, err = compileAndCommit(x.ctrl, r.fab); err != nil {
		return err
	}

	live := append([]int{r.monitor}, r.senders...)
	for _, mi := range live {
		m := x.ex.Members[mi]
		sp := bgp.NewSpeaker(bgp.SessionConfig{LocalAS: m.AS, LocalID: m.Ports[0].RouterIP, HoldTime: bgp.DefaultHoldTime})
		if mi == r.monitor {
			sp.OnUpdate = r.onMonitor
		}
		r.speakers = append(r.speakers, sp)
		peer, err := sp.Dial(addr.String())
		if err != nil {
			return fmt.Errorf("dialing the route server as member %d: %w", mi, err)
		}
		r.peers[mi] = peer
	}

	// Each session's initial table dump brings the monitor to the
	// reference best routes; then the exchange must go idle.
	if err := r.converge(30 * time.Second); err != nil {
		return err
	}
	if err := r.settle(30 * time.Second); err != nil {
		return err
	}
	// Compile the working set's slices: every prefix up, then every prefix
	// down. Each pass waits for its UPDATEs to land, so a prefix's two
	// UPDATEs are never in flight together (the route server would merge
	// them, and the monitor never see the first).
	for pass := 0; pass < 2; pass++ {
		if ph := r.openLoop(len(r.warm), 4*updateRate, r.pickWarm, nil); len(ph.lost) > 0 {
			return fmt.Errorf("%d of the working set's UPDATEs never landed", len(ph.lost))
		}
	}
	return r.settle(30 * time.Second)
}

// classOf renders prefix p's reachability class once its sender takes it
// over: its advertisers, the sender and the best of the rest.
func (r *updatesRig) classOf(p netip.Prefix) string {
	x := r.x
	var ms []int
	for mi := range x.paths[p] {
		ms = append(ms, mi)
	}
	sort.Ints(ms)
	s := r.senderOf[p]
	return fmt.Sprint(ms, s, x.bestFor(s, p))
}

// settle waits until the switch has answered the newest barrier and the
// route server has sent nothing for 100 ms: the measured phase starts on an
// idle exchange.
func (r *updatesRig) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		msgs := r.rsMet.UpdatesOut.Value()
		if _, err := r.fab.of.wait(r.fab.of.lastBarrierXID(), time.Until(deadline)); err != nil {
			return err
		}
		time.Sleep(100 * time.Millisecond)
		if r.rsMet.UpdatesOut.Value() == msgs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("route server still sending after %v", timeout)
		}
	}
}

// pathOf is member mi's route attributes with an AS path of n hops
// (its own AS prepended n times).
func (r *updatesRig) pathOf(mi, n int) bgp.PathAttrs {
	m := r.x.ex.Members[mi]
	asns := make([]uint32, n)
	for i := range asns {
		asns[i] = m.AS
	}
	return bgp.PathAttrs{
		NextHop: m.Ports[0].RouterIP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
	}
}

// converge waits until the monitor holds the reference best route for
// every prefix that has one.
func (r *updatesRig) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if bad := r.tableMismatches(); bad == 0 {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("monitor did not converge: %d prefixes differ from the reference", bad)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *updatesRig) tableMismatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	bad := 0
	for _, p := range r.x.ex.Prefixes {
		best := r.x.bestFor(r.monitor, p)
		got, ok := r.table[p]
		if best < 0 {
			if ok {
				bad++
			}
			continue
		}
		if !ok || got.as != r.x.ex.Members[best].AS {
			bad++
		}
	}
	return bad
}

func (r *updatesRig) close() {
	for _, sp := range r.speakers {
		sp.Close()
	}
	if r.rsBGP != nil {
		r.rsBGP.Close()
	}
	if r.fab != nil {
		r.fab.close()
	}
}

// nextHop wraps the controller's resolver the frontend calls for each
// advertisement.
func (r *updatesRig) nextHop(receiver routeserver.ID, prefix netip.Prefix, route bgp.Route) netip.Addr {
	r.nextHops.Add(1)
	r.mu.Lock()
	tr := r.tr
	r.mu.Unlock()
	if tr == nil {
		return r.x.ctrl.NextHopFor(receiver, prefix, route)
	}
	t0 := time.Now()
	nh := r.x.ctrl.NextHopFor(receiver, prefix, route)
	r.mu.Lock()
	id := int64(-1)
	if s := r.pending[prefix]; s != nil {
		id = s.id
	}
	r.mu.Unlock()
	tr.add("core.Controller.NextHopFor", "wait.readvertise", id, t0, time.Now())
	return nh
}

// onPrefixes is the daemon's quick stage (cmd/sdx-controller's
// onRoutePrefixes without the background timer): FastReact, then
// PushFastAll to the switch. The benchmark times the BARRIER_REPLY that
// fences the push.
func (r *updatesRig) onPrefixes(prefixes []netip.Prefix) {
	entry := time.Now()
	fast, err := r.x.ctrl.FastReact(prefixes)
	t1 := time.Now()
	if err != nil {
		r.mu.Lock()
		r.hookErr = err
		r.mu.Unlock()
		return
	}
	if err := r.fab.switches.PushFastAll(fast); err != nil {
		r.mu.Lock()
		r.hookErr = err
		r.mu.Unlock()
		return
	}
	t2 := time.Now()
	xid := r.fab.of.lastBarrierXID()

	var claimed []*sample
	r.mu.Lock()
	for _, p := range prefixes {
		if s := r.pending[p]; s != nil && s.entry.IsZero() {
			s.entry, s.fastDur, s.pushDur, s.rules = entry, t1.Sub(entry), t2.Sub(t1), len(fast.Rules)/len(prefixes)
			claimed = append(claimed, s)
		}
	}
	tr := r.tr
	r.mu.Unlock()
	for _, s := range claimed {
		tr.add("routeserver.Frontend.OnPrefixes", "update", s.id, entry, t2)
		tr.add("core.Controller.FastReact", "routeserver.Frontend.OnPrefixes", s.id, entry, t1)
		tr.add("core.SwitchServer.PushFastAll", "routeserver.Frontend.OnPrefixes", s.id, t1, t2)
	}
	r.fab.of.notify(xid, func(at time.Time) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, s := range claimed {
			s.fabric = at
			r.finishLocked(s)
		}
	})
}

// onMonitor records what the monitor session is told.
func (r *updatesRig) onMonitor(_ *bgp.Peer, u *bgp.Update) {
	now := time.Now()
	as := firstAS(u.Attrs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range u.Withdrawn {
		delete(r.table, p)
	}
	for _, p := range u.NLRI {
		r.table[p] = monRoute{as: as, nh: u.Attrs.NextHop}
		if s := r.pending[p]; s != nil && s.peer.IsZero() && as == s.expectAS {
			s.peer = now
			r.tr.add("bgp.monitor.OnUpdate", "update", s.id, now, time.Now())
			r.finishLocked(s)
		}
	}
}

func (r *updatesRig) finishLocked(s *sample) {
	if s.fabric.IsZero() || s.peer.IsZero() || s.entry.IsZero() {
		return
	}
	delete(r.pending, s.prefix)
	if tr := r.tr; tr != nil {
		tr.add("update", "", s.id, s.due, later(s.fabric, s.peer))
		tr.add("wait.ingest", "update", s.id, s.due, s.entry)
		pushed := s.entry.Add(s.fastDur + s.pushDur)
		tr.add("wait.install", "update", s.id, pushed, s.fabric)
		tr.add("wait.readvertise", "update", s.id, pushed, s.peer)
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// phase is one measured window of the open loop.
type phase struct {
	samples []*sample
	lost    []*sample
	late    []float64 // ms

	msgsOut  uint64
	nextHops int64
	memoHit  float64
	memoMiss float64
	alloc    uint64
	gcPause  uint64
	heap     uint64 // HeapAlloc when the phase's UPDATEs have landed
}

// measure runs the open loop for the given seconds and waits for every
// UPDATE's two samples.
func (r *updatesRig) measure(seconds float64, tr *tracer) *phase {
	return r.openLoop(int(seconds*float64(updateRate)), updateRate, r.pick, tr)
}

// pick draws the next UPDATE's prefix: one in coldEvery from the cold list,
// the rest from the warm working set.
func (r *updatesRig) pick() netip.Prefix {
	r.next++
	if r.next%coldEvery == 0 {
		r.nCold++
		return r.cold[(r.nCold-1)%len(r.cold)]
	}
	return r.pickWarm()
}

func (r *updatesRig) pickWarm() netip.Prefix {
	r.nWarm++
	return r.warm[(r.nWarm-1)%len(r.warm)]
}

// openLoop sends n UPDATEs at the fixed rate, each due at its slot whether
// or not earlier ones have landed, and waits for every UPDATE's two
// samples.
func (r *updatesRig) openLoop(n, rate int, pick func() netip.Prefix, tr *tracer) *phase {
	r.mu.Lock()
	r.tr = tr
	r.mu.Unlock()
	ph := &phase{}
	msgs0, nh0 := r.rsMet.UpdatesOut.Value(), r.nextHops.Load()
	hit0 := r.x.counter("sdx_core_fastpath_cache_hits_total")
	miss0 := r.x.counter("sdx_core_fastpath_cache_misses_total")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	interval := time.Second / time.Duration(rate)
	start := time.Now().Add(5 * time.Millisecond)
	var all []*sample
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		all = append(all, r.send(pick(), due, ph))
	}
	// Every UPDATE gets ten seconds to land before it counts as lost.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		left := len(r.pending)
		r.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&m1)
	r.mu.Lock()
	for _, s := range all {
		if s.fabric.IsZero() || s.peer.IsZero() {
			ph.lost = append(ph.lost, s)
			delete(r.pending, s.prefix)
		} else {
			ph.samples = append(ph.samples, s)
		}
	}
	r.tr = nil
	r.mu.Unlock()
	ph.msgsOut = r.rsMet.UpdatesOut.Value() - msgs0
	ph.nextHops = r.nextHops.Load() - nh0
	ph.memoHit = r.x.counter("sdx_core_fastpath_cache_hits_total") - hit0
	ph.memoMiss = r.x.counter("sdx_core_fastpath_cache_misses_total") - miss0
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	ph.heap = m1.HeapAlloc
	return ph
}

// waitUntil returns at t. The runtime's timers can fire a millisecond late,
// which would be charged to every UPDATE's latency, so the last stretch is
// spent yielding instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// send toggles prefix p: its sender takes it over with the one-hop path, or
// hands it back with the ten-hop one.
func (r *updatesRig) send(p netip.Prefix, due time.Time, ph *phase) *sample {
	// A prefix is not toggled again before its previous UPDATE has landed:
	// the route server would merge the two and the monitor never see the
	// first. Waiting here makes the UPDATE late, which its latency counts.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		r.mu.Lock()
		busy := r.pending[p] != nil
		r.mu.Unlock()
		if !busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mi := r.senderOf[p]
	n := upPath
	if r.up[p] {
		n = downPath
	}
	r.up[p] = !r.up[p]
	r.x.paths[p][mi] = n
	best := r.x.bestFor(r.monitor, p)
	r.id++
	s := &sample{id: r.id, prefix: p, due: due, expectAS: r.x.ex.Members[best].AS}
	r.mu.Lock()
	r.pending[p] = s
	r.mu.Unlock()
	u := &bgp.Update{Attrs: r.pathOf(mi, n), NLRI: []netip.Prefix{p}}
	err := r.peers[mi].Send(u)
	now := time.Now()
	r.mu.Lock()
	s.sent = err == nil
	r.mu.Unlock()
	ph.late = append(ph.late, ms(now.Sub(due)))
	return s
}

// latencies returns each landed UPDATE's fabric and peer latency in ms.
func (ph *phase) latencies() (fab, peer []float64) {
	for _, s := range ph.samples {
		fab = append(fab, ms(s.fabric.Sub(s.due)))
		peer = append(peer, ms(s.peer.Sub(s.due)))
	}
	return fab, peer
}

// endToEnd sets op_p50_ms, the median fabric latency, and fabric_rules.
// The peer latency and the p90s go to the run record (the fabric p90 also,
// traced, to tail.op_p90_ms): on a 2-vCPU VM the p90s moved by a third to
// a half from run to run, more than a bound can hold (README.md).
func (ph *phase) endToEnd(res *result, r *updatesRig) {
	fab, peer := ph.latencies()
	setEndToEnd(res, quantile(fab, 0.5), r.fab.sw.Table.Len())
	res.note("updates: update_peer_p50_ms %.4f; tail update_fabric_p90_ms %.4f update_peer_p90_ms %.4f over %d UPDATEs",
		quantile(peer, 0.5), quantile(fab, 0.9), quantile(peer, 0.9), len(fab))
}

// perLayer sets the per-layer metrics from the traced phase, the set-up's
// compilation and a lookup sample through the final table; the figures
// only this path has are details.
func (ph *phase) perLayer(res *result, r *updatesRig, seed int64) {
	var ingest, readv, fast, push, install, rules []float64
	for _, s := range ph.samples {
		ingest = append(ingest, ms(s.entry.Sub(s.due)))
		readv = append(readv, ms(s.peer.Sub(s.entry)))
		fast = append(fast, ms(s.fastDur))
		push = append(push, us(s.pushDur))
		install = append(install, us(s.fabric.Sub(s.entry.Add(s.fastDur+s.pushDur))))
		rules = append(rules, float64(s.rules))
	}
	n := float64(max(1, len(ph.samples)+len(ph.lost)))
	fab, peer := ph.latencies()
	res.detail("tail.update_peer_p90_ms", quantile(peer, 0.9), "ms")
	res.detail("routeserver.ingest_p50_ms", quantile(ingest, 0.5), "ms")
	res.detail("routeserver.readvertise_p50_ms", quantile(readv, 0.5), "ms")
	res.detail("bgp.msgs_out_per_update", float64(ph.msgsOut)/n, "count")
	res.detail("core.nexthop_calls_per_update", float64(ph.nextHops)/n, "count")
	res.detail("core.fastreact_p50_ms", quantile(fast, 0.5), "ms")
	res.detail("core.fastreact_p90_ms", quantile(fast, 0.9), "ms")
	if t := ph.memoHit + ph.memoMiss; t > 0 {
		res.detail("core.fastpath_memo_hit_ratio", ph.memoHit/t, "ratio")
	}
	res.detail("core.fast_rules_per_update", mean(rules), "count")
	res.detail("openflow.push_p50_us", quantile(push, 0.5), "us")
	res.detail("dataplane.install_p50_us", quantile(install, 0.5), "us")
	res.detail("gen.late_p99_ms", quantile(ph.late, 0.99), "ms")
	f := runFigures{
		opP90ms:  quantile(fab, 0.9),
		compiles: []compileSample{r.setup},
		ops:      int(n),
		alloc:    ph.alloc,
		gcPause:  ph.gcPause,
		heapPeak: ph.heap,
	}
	f.arpUs, f.lookup = r.x.lookupSample(r.fab, rand.New(rand.NewSource(seed)), lookupSampleFrames, res.tr)
	f.set(res)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// histogram records where the update latencies fall, so a later change can
// see which mode of the bimodal fast path each percentile sits in.
func histogram(res *result, fab, peer []float64) {
	edges := []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}
	for kind, vals := range map[string][]float64{"fabric": fab, "peer": peer} {
		counts := make([]int, len(edges)+1)
		for _, v := range vals {
			counts[sort.SearchFloat64s(edges, v)]++
		}
		line := fmt.Sprintf("histogram: update_%s_ms", kind)
		for i, c := range counts {
			if i < len(edges) {
				line += fmt.Sprintf(" <=%g:%d", edges[i], c)
			} else {
				line += fmt.Sprintf(" >%g:%d", edges[len(edges)-1], c)
			}
		}
		res.note("%s", line)
	}
}

// check counts each UPDATE as an operation: it must get both its fabric
// fence and its monitor re-advertisement.
func (ph *phase) check(res *result) {
	for _, s := range append(ph.samples, ph.lost...) {
		res.op(checkSample(s))
	}
}

func checkSample(s *sample) string {
	switch {
	case !s.sent:
		return "update: sending on the sender's session failed"
	case s.fabric.IsZero():
		return "update: no BARRIER_REPLY fenced its FLOW_MODs"
	case s.peer.IsZero():
		return "update: monitor never received the re-advertisement"
	}
	return ""
}

// finalChecks compares the monitor's table with the reference best routes,
// and forwards one probe per prefix from the monitor to the VNH it holds.
func (r *updatesRig) finalChecks(res *result) {
	if r.hookErr != nil {
		res.op("fast path: " + r.hookErr.Error())
	}
	x := r.x
	monPort := x.ex.Members[r.monitor].Ports[0].Number
	r.mu.Lock()
	table := make(map[netip.Prefix]monRoute, len(r.table))
	for p, v := range r.table {
		table[p] = v
	}
	r.mu.Unlock()
	for _, p := range x.ex.Prefixes {
		best := x.bestFor(r.monitor, p)
		if best < 0 {
			continue
		}
		got, ok := table[p]
		res.op(checkBest(ok, got.as, x.ex.Members[best].AS))
		mac, ok := x.ctrl.ResolveARP(got.nh)
		if !ok {
			res.op("monitor: held VNH does not resolve via ResolveARP")
			continue
		}
		out, err := r.fab.probe(monPort, x.probeFrame(r.monitor, mac, p, 9))
		if why := checkEgress(err, out, x.ownerOf, best); why != "" {
			res.op("monitor " + why + " (not the reference best route's announcer)")
		} else {
			res.op("")
		}
	}
}

// checkBest is the monitor-table check: the route held must come from the
// reference best announcer.
func checkBest(held bool, gotAS, wantAS uint32) string {
	switch {
	case !held:
		return "monitor: no route for a prefix that has one"
	case gotAS != wantAS:
		return "monitor: route is not the reference best route"
	}
	return ""
}

// checkEgress is the probe check: the frame must leave, and only on ports
// of the expected member.
func checkEgress(err error, out []uint16, ownerOf []int, want int) string {
	return checkAnnouncerEgress(err, out, ownerOf, func(owner int) bool { return owner == want })
}
