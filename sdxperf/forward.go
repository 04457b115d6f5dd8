package main

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/policy"
)

// The forward workload: the 300-participant table is compiled and installed
// over OpenFlow at set-up, every border router resolves each distinct next
// hop it was advertised through the controller's ARP responder once, and
// then one goroutine drives Switch.InjectBatch with minimum-size frames from
// over a million clients, elephants and mice, addressed to those MACs.
const (
	forwardParticipants = 300
	forwardPrefixes     = 4000
	forwardBatch        = 256
	forwardClients      = 1 << 20
	// Each sender has forwardElephants heavy clients that take half of its
	// frames; the rest go to its mice, drawn uniformly. Elephants in all
	// (16 per sender) stay under the 8,192 microflow slots; mice are far
	// more numerous than the slots.
	forwardElephants = 16
	// forwardWarmFrames are injected before measuring, so the caches are
	// warm when timing starts.
	forwardWarmFrames = 1 << 18
	// forwardLookupFrames is the sample the traced run times the lookup
	// tier and the decoder on, in isolation.
	forwardLookupFrames = 1 << 16
)

// frameSize is the wire length of every frame; 64 unless overridden for the
// README's reference figures.
var frameSize = 64

// appPorts are the destination ports clients use: the policy mix's
// application ports plus two it never matches.
var appPorts = []uint16{80, 443, 8080, 1935, 554, 53, 123}

type forwardRig struct {
	x       *exchange
	fab     *fabric
	seed    uint64
	senders []int // member index of each sender, all members
	// dsts[s] are the prefix indices sender s may address: those with an
	// announcer other than s, and not announced by s itself.
	dsts   [][]int32
	vmac   []netutil.MAC // per prefix: the MAC its advertised VNH resolves to
	best   [][2]int32    // per prefix: reference best and second-best announcer
	policy []bool        // per member: has an outbound policy
	annBit [][]uint64    // per prefix: announcer bitset

	arp   []float64     // ResolveARP durations, µs
	setup compileSample // the set-up's compilation and base install

	// batch state, reused
	arena  []byte
	frames [][]byte
	dstIdx []int32
	tmpl   [2][]byte // UDP, TCP
	step   uint64
	batch  int
	// checkBatch's scratch
	byKey map[[12]byte]int
	bad   []string
	left  []bool
}

func runForward(opts options) (*result, error) {
	participants, prefixes, clients := forwardParticipants, forwardPrefixes, forwardClients
	warm := forwardWarmFrames
	if opts.small {
		participants, prefixes, clients, warm = 30, 400, 1<<14, 1<<12
	}
	rig, setup, err := timedSetups(opts, func() (*forwardRig, error) {
		return newForwardRig(opts.seed, participants, prefixes)
	}, (*forwardRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res := newResult()
	perSender := clients / len(rig.senders)
	res.note("forward: %d participants, %d prefixes, %d senders x %d clients (%d elephants each), %d-byte frames, batches of %d",
		participants, prefixes, len(rig.senders), perSender, forwardElephants, frameSize, forwardBatch)

	entries0 := rig.fab.sw.Table.Entries()
	injected := uint64(0)
	w, err := rig.drive(res, perSender, 0, warm, nil)
	if err != nil {
		return nil, err
	}
	injected += w.frames
	var traced *fwdPhase
	if !opts.trace {
		ph, err := rig.drive(res, perSender, opts.seconds, 0, nil)
		if err != nil {
			return nil, err
		}
		injected += ph.frames
		ph.endToEnd(res, rig.fab.sw.Table.Len())
		res.set("setup_s", setup, "s")
	} else {
		ph0, err := rig.drive(res, perSender, opts.seconds/2, 0, nil)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		ph, err := rig.drive(res, perSender, opts.seconds/2, 0, tr)
		if err != nil {
			return nil, err
		}
		injected += ph0.frames + ph.frames
		u, t := newResult(), newResult()
		rules := rig.fab.sw.Table.Len()
		ph0.endToEnd(u, rules)
		ph.endToEnd(t, rules)
		printOverhead(os.Stdout, u.metrics, t.metrics)
		ph.details(res)
		res.tr = tr
		traced = ph
	}
	res.op(checkCounters(entries0, rig.fab.sw.Table.Entries(), injected))
	if traced != nil {
		rig.perLayer(res, perSender, traced)
	}
	return res, nil
}

func newForwardRig(seed int64, participants, prefixes int) (*forwardRig, error) {
	x, err := newExchange(participants, prefixes)
	if err != nil {
		return nil, err
	}
	if err := x.loadRoutes(0); err != nil {
		return nil, err
	}
	r := &forwardRig{x: x, seed: uint64(seed)}
	if r.fab, err = connectFabric(x.ctrl, x.ports); err != nil {
		return nil, err
	}
	if _, r.setup, err = compileAndCommit(x.ctrl, r.fab); err != nil {
		r.close()
		return nil, err
	}

	n := len(x.ex.Members)
	words := (n + 63) / 64
	r.vmac = make([]netutil.MAC, len(x.ex.Prefixes))
	r.best = make([][2]int32, len(x.ex.Prefixes))
	r.annBit = make([][]uint64, len(x.ex.Prefixes))
	for pi, p := range x.ex.Prefixes {
		bits := make([]uint64, words)
		b1, b2 := int32(-1), int32(-1)
		l1, l2 := 0, 0
		for mi, l := range x.paths[p] {
			bits[mi/64] |= 1 << (mi % 64)
			switch {
			case b1 < 0 || l < l1:
				b2, l2 = b1, l1
				b1, l1 = int32(mi), l
			case b2 < 0 || l < l2:
				b2, l2 = int32(mi), l
			}
		}
		r.annBit[pi] = bits
		r.best[pi] = [2]int32{b1, b2}
	}

	// Border routers resolve each distinct next hop they were advertised
	// once, through the controller's ARP responder.
	resolved := map[netip.Addr]netutil.MAC{}
	seen := make([]bool, len(x.ex.Prefixes))
	for mi, m := range x.ex.Members {
		r.senders = append(r.senders, mi)
		r.policy = append(r.policy, x.hasOutbound(mi))
		var dsts []int32
		for pi, p := range x.ex.Prefixes {
			if x.announces(mi, p) || x.bestFor(mi, p) < 0 {
				continue
			}
			best, _ := x.rs.BestFor(m.ID, p)
			vnh := x.ctrl.NextHopFor(m.ID, p, best)
			mac, ok := resolved[vnh]
			if !ok {
				t := time.Now()
				mac, ok = x.ctrl.ResolveARP(vnh)
				r.arp = append(r.arp, us(time.Since(t)))
				if !ok {
					r.close()
					return nil, fmt.Errorf("next hop %v advertised to %s for %v does not resolve", vnh, m.ID, p)
				}
				resolved[vnh] = mac
			}
			if seen[pi] && r.vmac[pi] != mac {
				r.close()
				return nil, fmt.Errorf("members were advertised different next hops for %v", p)
			}
			seen[pi], r.vmac[pi] = true, mac
			dsts = append(dsts, int32(pi))
		}
		if len(dsts) == 0 {
			r.close()
			return nil, fmt.Errorf("member %s has no destination to send to", m.ID)
		}
		r.dsts = append(r.dsts, dsts)
	}

	r.arena = make([]byte, forwardBatch*frameSize)
	r.frames = make([][]byte, forwardBatch)
	r.dstIdx = make([]int32, forwardBatch)
	for i := range r.frames {
		r.frames[i] = r.arena[i*frameSize : (i+1)*frameSize : (i+1)*frameSize]
	}
	any4 := netip.AddrFrom4([4]byte{})
	r.tmpl[0] = packet.NewUDP(netutil.MAC{}, netutil.MAC{}, any4, any4, 0, 0, make([]byte, frameSize-42)).Serialize()
	r.tmpl[1] = packet.NewTCP(netutil.MAC{}, netutil.MAC{}, any4, any4, 0, 0, packet.TCPAck, make([]byte, frameSize-54)).Serialize()
	r.fab.out.seq = make([]emission, 0, 2*forwardBatch)
	r.byKey = make(map[[12]byte]int, forwardBatch)
	r.bad = make([]string, forwardBatch)
	r.left = make([]bool, forwardBatch)
	return r, nil
}

func (r *forwardRig) close() {
	if r.fab != nil {
		r.fab.close()
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fill renders the next batch: one sender, frames from its clients. It
// returns the sender's member index.
func (r *forwardRig) fill(perSender int) int {
	s := r.senders[r.batch%len(r.senders)]
	r.batch++
	m := r.x.ex.Members[s]
	src := m.Ports[0].MAC
	dsts := r.dsts[s]
	for j := range r.frames {
		r.step++
		h := mix64(r.seed ^ mix64(r.step))
		var k uint64
		if h&1 == 0 {
			k = (h >> 1) % forwardElephants
		} else {
			k = forwardElephants + (h>>1)%uint64(max(1, perSender-forwardElephants))
		}
		c := mix64(r.seed<<20 ^ uint64(s)<<40 ^ k)
		pi := dsts[c%uint64(len(dsts))]
		r.dstIdx[j] = pi
		tcp := (c>>8)%10 < 7
		f := r.frames[j]
		if tcp {
			copy(f, r.tmpl[1])
		} else {
			copy(f, r.tmpl[0])
		}
		vmac := r.vmac[pi]
		copy(f[0:6], vmac[:])
		copy(f[6:12], src[:])
		binary.BigEndian.PutUint32(f[26:30], uint32(c>>16))
		dst := r.x.ex.Prefixes[pi].Addr().As4()
		dst[3] = byte(c >> 24)
		copy(f[30:34], dst[:])
		binary.BigEndian.PutUint16(f[34:36], uint16(32768+(c>>32)%28232))
		binary.BigEndian.PutUint16(f[36:38], appPorts[(c>>48)%uint64(len(appPorts))])
		f[24], f[25] = 0, 0
		binary.BigEndian.PutUint16(f[24:26], ipChecksum(f[14:34]))
	}
	return s
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// fwdPhase is one measured window of forwarding.
type fwdPhase struct {
	frames  uint64
	busy    time.Duration // inside InjectBatch
	batches []float64     // µs per InjectBatch
	cache0  dataplane.CacheStats
	cache1  dataplane.CacheStats
	mallocs uint64
	alloc   uint64 // bytes
	gcPause uint64 // ns
	heap    uint64 // HeapAlloc at the phase's end
}

// drive injects batches for the given seconds (or, when frames > 0, until
// that many frames have gone in), checking every frame's egress port.
func (r *forwardRig) drive(res *result, perSender int, seconds float64, frames int, tr *tracer) (*fwdPhase, error) {
	ph := &fwdPhase{cache0: r.fab.sw.Table.CacheStats()}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	if frames == 0 {
		ph.batches = make([]float64, 0, int(seconds*2e6/forwardBatch)+16)
	}
	for {
		if frames > 0 && ph.frames >= uint64(frames) || frames == 0 && !time.Now().Before(end) {
			break
		}
		s := r.fill(perSender)
		port := r.x.ex.Members[s].Ports[0].Number
		r.fab.out.start()
		t0 := time.Now()
		err := r.fab.sw.InjectBatch(port, r.frames)
		d := time.Since(t0)
		r.fab.out.rec = false
		if err != nil {
			return nil, fmt.Errorf("InjectBatch: %w", err)
		}
		tr.add("dataplane.Switch.InjectBatch", "", int64(r.batch), t0, t0.Add(d))
		ph.frames += uint64(len(r.frames))
		ph.busy += d
		if frames == 0 {
			ph.batches = append(ph.batches, us(d))
		}
		r.checkBatch(res, s)
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcPause = m1.PauseTotalNs - m0.PauseTotalNs
	ph.heap = m1.HeapAlloc
	ph.cache1 = r.fab.sw.Table.CacheStats()
	return ph, nil
}

// checkBatch checks every frame of the batch just injected: it must leave
// (its destination has an announcer), only on ports of members announcing
// the destination prefix, and — when the sender has no outbound policy —
// only on ports of the reference best route's announcer. Emissions are tied
// to frames by their addresses and ports; frames sharing those share their
// reference too.
func (r *forwardRig) checkBatch(res *result, s int) {
	clear(r.byKey)
	for j, f := range r.frames {
		r.byKey[[12]byte(f[26:38])] = j
		r.bad[j], r.left[j] = "", false
	}
	for _, em := range r.fab.out.seq {
		j, ok := r.byKey[em.key]
		if !ok {
			res.op("forward: a frame left that no sender injected")
			continue
		}
		r.left[j] = true
		if r.bad[j] != "" {
			continue
		}
		pi := r.dstIdx[j]
		want := r.best[pi][0]
		if int(want) == s {
			want = r.best[pi][1]
		}
		r.bad[j] = checkFrame(r.x.ownerOf, em.port, r.annBit[pi], !r.policy[s], int(want))
	}
	for _, f := range r.frames {
		j := r.byKey[[12]byte(f[26:38])]
		if !r.left[j] {
			res.op("forward: frame dropped though its destination has an announcer")
		} else {
			res.op(r.bad[j])
		}
	}
}

// checkFrame checks one emission's port against the reference.
func checkFrame(ownerOf []int, out uint16, announcers []uint64, defaultRoute bool, best int) string {
	if int(out) >= len(ownerOf) || ownerOf[out] < 0 {
		return "forward: frame left on a port no participant owns"
	}
	o := ownerOf[out]
	if announcers[o/64]&(1<<(o%64)) == 0 {
		return "forward: frame left toward a participant that does not announce its destination"
	}
	if defaultRoute && o != best {
		return "forward: frame from a sender without outbound policy did not take the best route"
	}
	return ""
}

// checkCounters requires the per-rule packet counters to have grown by
// exactly the frames injected.
func checkCounters(before, after []dataplane.FlowEntry, injected uint64) string {
	var b, a uint64
	for _, e := range before {
		b += e.Packets
	}
	for _, e := range after {
		a += e.Packets
	}
	if a-b != injected {
		return fmt.Sprintf("forward: rule counters grew by %d, %d frames were injected", a-b, injected)
	}
	return ""
}

// endToEnd sets op_p50_ms, the median InjectBatch call, and fabric_rules.
// The forwarding rate and the p99 go to the run record (the p90 also,
// traced, to tail.op_p90_ms): on a 2-vCPU VM the p99 moved by a factor of
// two from run to run (README.md).
func (ph *fwdPhase) endToEnd(res *result, rules int) {
	setEndToEnd(res, quantile(ph.batches, 0.5)/1e3, rules)
	res.note("forward: fwd_kpps %.1f; tail fwd_batch_p99_us %.1f over %d batches",
		float64(ph.frames)/ph.busy.Seconds()/1e3, quantile(ph.batches, 0.99), len(ph.batches))
}

// details sets the figures only the forwarding path has: the cache tiers
// that answered the phase's lookups, and allocations per frame.
func (ph *fwdPhase) details(res *result) {
	micro := float64(ph.cache1.Hits - ph.cache0.Hits)
	mega := float64(ph.cache1.MegaflowHits - ph.cache0.MegaflowHits)
	slow := float64(ph.cache1.Misses - ph.cache0.Misses)
	total := max(1, micro+mega+slow)
	res.detail("fwd_kpps", float64(ph.frames)/ph.busy.Seconds()/1e3, "kpps")
	res.detail("tail.fwd_batch_p99_us", quantile(ph.batches, 0.99), "us")
	res.detail("dataplane.microflow_hit_ratio", micro/total, "ratio")
	res.detail("dataplane.megaflow_hit_ratio", mega/total, "ratio")
	res.detail("dataplane.slow_path_ratio", slow/total, "ratio")
	res.detail("dataplane.allocs_per_frame", float64(ph.mallocs)/float64(max(1, ph.frames)), "count")
}

// perLayer sets the per-layer metrics from the traced phase and the set-up,
// timing the decoder and the lookup tier on their own over frames from the
// same generator. It runs after the counter check, since LookupBatch bumps
// the rule counters.
func (r *forwardRig) perLayer(res *result, perSender int, ph *fwdPhase) {
	frames := make([]inFrame, 0, forwardLookupFrames)
	for len(frames) < forwardLookupFrames {
		s := r.fill(perSender)
		port := r.x.ex.Members[s].Ports[0].Number
		for _, f := range r.frames {
			frames = append(frames, inFrame{port, append([]byte(nil), f...)})
		}
	}
	f := runFigures{
		opP90ms:  quantile(ph.batches, 0.9) / 1e3,
		compiles: []compileSample{r.setup},
		arpUs:    r.arp,
		lookup:   timeLookups(r.fab.sw.Table, frames, res.tr),
		ops:      len(ph.batches),
		alloc:    ph.alloc,
		gcPause:  ph.gcPause,
		heapPeak: ph.heap,
	}
	f.set(res)
}

// policyPacket is the header tuple the switch classifies a decoded frame
// by (the dataplane's own conversion is unexported).
func policyPacket(inPort uint16, pkt *packet.Packet) policy.Packet {
	p := policy.Packet{
		Port:    inPort,
		SrcMAC:  pkt.Eth.SrcMAC,
		DstMAC:  pkt.Eth.DstMAC,
		EthType: pkt.Eth.EtherType,
	}
	if pkt.IPv4 != nil {
		p.SrcIP = pkt.IPv4.SrcIP
		p.DstIP = pkt.IPv4.DstIP
		p.Proto = pkt.IPv4.Protocol
	}
	p.SrcPort = pkt.SrcPort()
	p.DstPort = pkt.DstPort()
	return p
}
