package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/routeserver"
	"sdx/internal/workload"
)

// The recompile workload: a 300-participant exchange (the paper's largest
// Figure 8 point) whose cycles each apply a Table-1 burst through the route
// server's API, run the fast path and push it, then run the background
// stage — Compile, then SetBase to the switch over OpenFlow, fenced by a
// barrier — and check the committed table. Cycles come in pairs: the second
// reverts the first's burst, so every run ends on the generated exchange
// and fabric_rules is the same in every run.
const (
	recompileParticipants = 300
	recompilePrefixes     = 4000
	// recompileProbes is how many (participant, prefix) pairs each cycle
	// forwards a probe frame for.
	recompileProbes = 16
	// recompileMaxBurst leaves out the trace's rare session-reset bursts
	// (a thousand prefixes and more): one takes seconds in the fast path,
	// longer than a run's cycles put together.
	recompileMaxBurst = 100
)

// extraPrefix is announced on the first cycle of every pair and withdrawn
// on the second by two members that share no other prefix, so every
// compile adds or removes one equivalence class. Whether a Table-1 burst
// changes the set of classes is up to the burst; when it does not, SetBase
// overwrites the table in place, and when it does, the whole table moves
// to new priorities — a tenfold difference in cycle time that would make
// the per-run median flip between two modes.
var extraPrefix = netip.MustParsePrefix("198.18.0.0/24")

// staleVNHReason names the failure the known fault produces; it is the only
// failure a correct run may report.
const staleVNHReason = "stale VNH: a next hop advertised by the fast path no longer resolves after Compile " +
	"(ROADMAP item 1: Compile replaces the FEC table and ResolveARP consults only the new one)"

type undo struct {
	member  int
	prefix  netip.Prefix
	oldPath int // 0: the member had no route
}

type recompileRig struct {
	x       *exchange
	fab     *fabric
	monitor int
	bursts  []workload.Burst
	probes  *rand.Rand
	cycle   int
	pending []undo
	pair    []int // the members announcing extraPrefix
	last    *core.CompileResult
	stale   *staleProbe
}

func runRecompile(opts options) (*result, error) {
	participants, prefixes := recompileParticipants, recompilePrefixes
	if opts.small {
		participants, prefixes = 30, 400
	}
	rig, setup, err := timedSetups(opts, func() (*recompileRig, error) {
		return newRecompileRig(opts.seed, participants, prefixes)
	}, (*recompileRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res := newResult()
	res.note("recompile: %d participants, %d prefixes, %d Table-1 bursts of at most %d prefixes",
		participants, prefixes, len(rig.bursts), recompileMaxBurst)

	measure := func(seconds float64, tr *tracer) ([]cycleStats, error) {
		var out []cycleStats
		end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		// Whole pairs of cycles, at least one pair.
		for len(out) == 0 || time.Now().Before(end) {
			for k := 0; k < 2; k++ {
				cs, err := rig.runCycle(res, tr)
				if err != nil {
					return nil, err
				}
				out = append(out, cs)
			}
		}
		return out, nil
	}
	if !opts.trace {
		cycles, err := measure(opts.seconds, nil)
		if err != nil {
			return nil, err
		}
		endToEndRecompile(res, rig, cycles)
		res.set("setup_s", setup, "s")
		staleShare(res, cycles)
	} else {
		c0, err := measure(opts.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		c1, err := measure(opts.seconds/2, tr)
		if err != nil {
			return nil, err
		}
		u, t := newResult(), newResult()
		endToEndRecompile(u, rig, c0)
		endToEndRecompile(t, rig, c1)
		printOverhead(os.Stdout, u.metrics, t.metrics)
		res.tr = tr
		perLayerRecompile(res, rig, c1)
	}
	return res, nil
}

func newRecompileRig(seed int64, participants, prefixes int) (*recompileRig, error) {
	x, err := newExchange(participants, prefixes)
	if err != nil {
		return nil, err
	}
	if err := x.loadRoutes(0); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &recompileRig{x: x, monitor: -1, probes: rng}
	for mi := participants - 1; mi >= 0; mi-- {
		if !x.hasPolicy(mi) {
			r.monitor = mi
			break
		}
	}
	if r.monitor < 0 {
		return nil, fmt.Errorf("exchange has no policy-free member to act as monitor")
	}
	for _, b := range workload.GenerateTrace(rng, x.ex, workload.DefaultTraceOptions()) {
		if len(b.Updates) <= recompileMaxBurst {
			r.bursts = append(r.bursts, b)
		}
	}
	// Two members that share no prefix announce the class-changing prefix:
	// no other prefix has their announcer set.
	shares := func(i, j int) bool {
		for _, p := range x.ex.Members[i].Announced {
			if x.announces(j, p) {
				return true
			}
		}
		return false
	}
	for i := 0; i < participants && len(r.pair) == 0; i++ {
		for j := i + 1; j < participants; j++ {
			if !shares(i, j) {
				r.pair = []int{i, j}
				break
			}
		}
	}
	if len(r.pair) == 0 {
		return nil, fmt.Errorf("every pair of members shares a prefix")
	}
	x.paths[extraPrefix] = map[int]int{}
	if r.stale, err = newStaleProbe(); err != nil {
		return nil, err
	}
	if r.fab, err = connectFabric(x.ctrl, x.ports); err != nil {
		return nil, err
	}
	if r.last, _, err = compileAndCommit(x.ctrl, r.fab); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *recompileRig) close() {
	if r.fab != nil {
		r.fab.close()
	}
}

// cycleStats is what one cycle measured.
type cycleStats struct {
	recompile   time.Duration // Compile call to the barrier fencing SetBase
	compile     compileSample
	fastRules   int
	alloc       uint64
	heap        uint64
	gcPause     uint64
	vnhs, stale int // monitor VNHs recorded before the compile, and how many went stale
}

// runCycle applies (or, on odd cycles, reverts) one burst and runs both
// stages of the reaction, then checks the result.
func (r *recompileRig) runCycle(res *result, tr *tracer) (cycleStats, error) {
	x := r.x
	id := int64(r.cycle)
	var cs cycleStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// (1) The burst, through the route server's API.
	t0 := time.Now()
	affected, err := r.applyBurst()
	if err != nil {
		return cs, err
	}
	t1 := time.Now()
	tr.add("routeserver.Server.apply", "cycle", id, t0, t1)

	// (2) The quick stage, and the VNHs it hands the monitor.
	fast, err := x.ctrl.FastReact(affected)
	if err != nil {
		return cs, err
	}
	t2 := time.Now()
	if err := r.fab.pushFast(fast); err != nil {
		return cs, err
	}
	t3 := time.Now()
	tr.add("core.Controller.FastReact", "cycle", id, t1, t2)
	tr.add("core.SwitchServer.PushFastAll+barrier", "cycle", id, t2, t3)
	cs.fastRules = len(fast.Rules)
	monID := x.ex.Members[r.monitor].ID
	var vnhs []netip.Addr
	for _, p := range affected {
		if best, ok := x.rs.BestFor(monID, p); ok {
			vnhs = append(vnhs, x.ctrl.NextHopFor(monID, p, best))
		}
	}

	// (3) The background stage.
	t4 := time.Now()
	cres, c, err := compileAndCommit(x.ctrl, r.fab)
	if err != nil {
		return cs, err
	}
	r.last = cres
	runtime.ReadMemStats(&m1)
	commit := c.commit
	t5 := t4.Add(c.compile)
	cs.recompile = commit.fenced.Sub(t4)
	cs.compile = c
	cs.alloc = m1.TotalAlloc - m0.TotalAlloc
	cs.heap = m1.HeapAlloc
	cs.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	tr.add("core.Controller.Compile", "recompile", id, t4, t5)
	tr.add("core.SwitchServer.SetBase", "recompile", id, t5, t5.Add(commit.setBase))
	tr.add("wait.install", "recompile", id, t5.Add(commit.setBase), commit.fenced)
	tr.add("recompile", "cycle", id, t4, commit.fenced)

	// Checks.
	ok, why := tableMatches(r.fab.sw.Table.Entries(), cres)
	if ok {
		res.op("")
	} else {
		res.op("table after SetBase differs from the compiled rules: " + why)
	}
	for i := 0; i < recompileProbes; i++ {
		res.op(r.probe())
	}
	// The monitor's VNHs from the quick stage; how many no longer resolve
	// is reported, not counted as operations (see README.md).
	cs.vnhs = len(vnhs)
	for _, v := range vnhs {
		if _, ok := x.ctrl.ResolveARP(v); !ok {
			cs.stale++
		}
	}
	res.op(r.stale.run())
	tr.add("cycle", "", id, t0, time.Now())
	r.cycle++
	return cs, nil
}

// applyBurst applies the cycle's burst, or reverts the previous cycle's,
// and returns the affected prefixes. An announcement lengthens the
// member's path by three hops (a path change that can move the best
// route); a withdrawal removes the member's route.
func (r *recompileRig) applyBurst() ([]netip.Prefix, error) {
	x := r.x
	var affected []netip.Prefix
	seen := map[netip.Prefix]bool{}
	touch := func(p netip.Prefix) {
		if !seen[p] {
			seen[p] = true
			affected = append(affected, p)
		}
	}
	// The class-changing prefix: announced by both members of the pair on
	// the first cycle of each pair, withdrawn on the second.
	n := 0
	if r.cycle%2 == 0 {
		n = 1
	}
	for k, mi := range r.pair {
		if err := r.setRoute(mi, extraPrefix, n*(k+1)); err != nil {
			return nil, err
		}
	}
	touch(extraPrefix)
	if r.cycle%2 == 1 {
		for i := len(r.pending) - 1; i >= 0; i-- {
			u := r.pending[i]
			if err := r.setRoute(u.member, u.prefix, u.oldPath); err != nil {
				return nil, err
			}
			touch(u.prefix)
		}
		r.pending = r.pending[:0]
		return affected, nil
	}
	b := r.bursts[(r.cycle/2)%len(r.bursts)]
	for _, ev := range b.Updates {
		old := x.paths[ev.Prefix][ev.Member]
		next := old + 3
		if ev.Withdraw || old == 0 {
			next = 0
		}
		if next == old {
			continue
		}
		if err := r.setRoute(ev.Member, ev.Prefix, next); err != nil {
			return nil, err
		}
		r.pending = append(r.pending, undo{member: ev.Member, prefix: ev.Prefix, oldPath: old})
		touch(ev.Prefix)
	}
	return affected, nil
}

// setRoute gives member mi an AS path of n hops for prefix (0: withdraw).
func (r *recompileRig) setRoute(mi int, p netip.Prefix, n int) error {
	x := r.x
	id := x.ex.Members[mi].ID
	var err error
	if n == 0 {
		_, err = x.rs.Withdraw(id, p)
		delete(x.paths[p], mi)
	} else {
		_, err = x.rs.Advertise(id, x.ex.RouteFor(mi, p, n-1))
		x.paths[p][mi] = n
	}
	return err
}

// probe forwards one frame for a sampled (participant, prefix) pair and
// checks it leaves on a port of a member announcing the prefix.
func (r *recompileRig) probe() string {
	x := r.x
	for tries := 0; ; tries++ {
		mi := r.probes.Intn(len(x.ex.Members))
		p := x.ex.Prefixes[r.probes.Intn(len(x.ex.Prefixes))]
		if x.bestFor(mi, p) < 0 || x.announces(mi, p) {
			if tries < 1000 {
				continue
			}
			return "probe: no (participant, prefix) pair to sample"
		}
		mac, err := x.vmacFor(mi, p)
		if err != nil {
			return "probe: " + err.Error()
		}
		out, err := r.fab.probe(x.ex.Members[mi].Ports[0].Number, x.probeFrame(mi, mac, p, 80))
		return checkAnnouncerEgress(err, out, x.ownerOf, func(owner int) bool { return x.announces(owner, p) })
	}
}

// checkAnnouncerEgress is the BGP-consistency check: a frame must leave,
// and only on ports of members that announce its destination (ok decides
// which members qualify).
func checkAnnouncerEgress(err error, out []uint16, ownerOf []int, ok func(int) bool) string {
	switch {
	case err != nil:
		return "probe: " + err.Error()
	case len(out) == 0:
		return "probe: frame dropped"
	}
	for _, p := range out {
		if int(p) >= len(ownerOf) || ownerOf[p] < 0 || !ok(ownerOf[p]) {
			return "probe: frame left toward a participant that does not announce its destination"
		}
	}
	return ""
}

// recompileLatencies returns each cycle's Compile-to-fence time in ms.
func recompileLatencies(cycles []cycleStats) []float64 {
	var rc []float64
	for _, c := range cycles {
		rc = append(rc, ms(c.recompile))
	}
	return rc
}

// endToEndRecompile sets op_p50_ms, the median Compile-to-fence time, and
// fabric_rules.
func endToEndRecompile(res *result, r *recompileRig, cycles []cycleStats) {
	setEndToEnd(res, quantile(recompileLatencies(cycles), 0.5), r.fab.sw.Table.Len())
}

// staleShare notes how many of the monitor's quick-stage VNHs stopped
// resolving after the compile in the seeded exchange.
func staleShare(res *result, cycles []cycleStats) {
	vnhs, stale := 0, 0
	for _, c := range cycles {
		vnhs += c.vnhs
		stale += c.stale
	}
	res.note("recompile: %d cycles; %d of %d quick-stage VNHs handed to the monitor no longer resolved after Compile",
		len(cycles), stale, vnhs)
}

// perLayerRecompile sets the per-layer metrics from the traced cycles and
// a lookup sample through the last committed table; the figures only this
// path has are details.
func perLayerRecompile(res *result, r *recompileRig, cycles []cycleStats) {
	f := runFigures{opP90ms: quantile(recompileLatencies(cycles), 0.9), ops: len(cycles)}
	var resigned, fastRules []float64
	for _, c := range cycles {
		f.compiles = append(f.compiles, c.compile)
		f.alloc += c.alloc
		f.gcPause += c.gcPause
		f.heapPeak = max(f.heapPeak, c.heap)
		resigned = append(resigned, float64(c.compile.stats.ResignedPrefixes))
		fastRules = append(fastRules, float64(c.fastRules))
	}
	res.detail("core.resigned_prefixes_per_compile", mean(resigned), "count")
	res.detail("core.fast_rules_per_burst", mean(fastRules), "count")
	f.arpUs, f.lookup = r.x.lookupSample(r.fab, r.probes, lookupSampleFrames, res.tr)
	f.set(res)
}

// staleProbe is the stale-VNH operation on a fixed three-member exchange
// that no seed changes: member B's withdrawal of one of two prefixes it
// shares with C runs through the quick stage, the VNH the quick stage
// advertises to A for that prefix is recorded, the background Compile
// runs, and the VNH must still resolve and forward A's traffic to C.
type staleProbe struct {
	ctrl    *core.Controller
	rs      *routeserver.Server
	sw      *dataplane.Switch
	out     *egress
	members [3]core.Participant
	p1, p2  netip.Prefix
}

func newStaleProbe() (*staleProbe, error) {
	s := &staleProbe{
		rs:  routeserver.New(nil),
		sw:  dataplane.NewSwitch(2),
		out: &egress{},
		p1:  netip.MustParsePrefix("203.0.113.0/24"),
		p2:  netip.MustParsePrefix("198.51.100.0/24"),
	}
	s.ctrl = core.NewController(s.rs, core.DefaultOptions())
	for i := range s.members {
		s.members[i] = core.Participant{
			ID: core.ID(fmt.Sprintf("P%c", 'A'+i)),
			AS: uint32(65101 + i),
			Ports: []core.Port{{
				Number:   uint16(i + 1),
				MAC:      netutil.MAC{0x02, 0xee, 0, 0, 0, byte(i + 1)},
				RouterIP: netip.AddrFrom4([4]byte{172, 31, 254, byte(i + 1)}),
			}},
		}
		if err := s.ctrl.AddParticipant(s.members[i]); err != nil {
			return nil, err
		}
		s.sw.AttachPort(uint16(i+1), s.out.sink(uint16(i+1)))
	}
	return s, nil
}

func (s *staleProbe) route(mi int, p netip.Prefix) bgp.Route {
	m := s.members[mi]
	return bgp.Route{
		Prefix: p,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: m.Ports[0].RouterIP,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{m.AS}}},
		}),
		PeerAS: m.AS,
		PeerID: m.Ports[0].RouterIP,
	}
}

// run performs one stale-VNH operation and returns its failure reason.
func (s *staleProbe) run() string {
	fail := func(err error) string { return "stale-VNH probe set-up: " + err.Error() }
	// B and C both announce p1 and p2; compile the starting table.
	for _, mi := range []int{1, 2} {
		for _, p := range []netip.Prefix{s.p1, s.p2} {
			if _, err := s.rs.Advertise(s.members[mi].ID, s.route(mi, p)); err != nil {
				return fail(err)
			}
		}
	}
	base, err := s.ctrl.Compile()
	if err != nil {
		return fail(err)
	}
	if err := core.InstallBase(s.sw, base); err != nil {
		return fail(err)
	}
	// B withdraws p1: the quick stage reacts and A is told a VNH.
	if _, err := s.rs.Withdraw(s.members[1].ID, s.p1); err != nil {
		return fail(err)
	}
	fast, err := s.ctrl.FastReact([]netip.Prefix{s.p1})
	if err != nil {
		return fail(err)
	}
	if err := core.InstallFast(s.sw, fast); err != nil {
		return fail(err)
	}
	best, ok := s.rs.BestFor(s.members[0].ID, s.p1)
	if !ok {
		return fail(fmt.Errorf("A has no route for %v", s.p1))
	}
	vnh := s.ctrl.NextHopFor(s.members[0].ID, s.p1, best)
	// The background stage.
	res, err := s.ctrl.Compile()
	if err != nil {
		return fail(err)
	}
	if err := core.InstallBase(s.sw, res); err != nil {
		return fail(err)
	}
	mac, ok := s.ctrl.ResolveARP(vnh)
	if !ok {
		return staleVNHReason
	}
	dst := s.p1.Addr().As4()
	dst[3] = 9
	a := s.members[0].Ports[0]
	frame := packet.NewUDP(a.MAC, mac, netip.AddrFrom4([4]byte{192, 0, 2, 1}), netip.AddrFrom4(dst), 40000, 80, make([]byte, 22)).Serialize()
	s.out.start()
	err = s.sw.Inject(a.Number, frame)
	s.out.rec = false
	if err != nil || len(s.out.seq) != 1 || s.out.seq[0].port != s.members[2].Ports[0].Number {
		return "stale-VNH probe: A's traffic to its advertised VNH did not reach C"
	}
	return ""
}
