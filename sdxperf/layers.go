package main

import (
	"math/rand"
	"net/netip"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/policy"
)

// Every workload reports every metric of BENCHMARK.json, each taken from
// the path that workload drives, so no workload's figure depends on another
// workload's layer.
//
// End-to-end (--trace 0):
//
//	setup_s      the workload's set-up (median of its set-ups)
//	rss_peak_mb  peak resident set of the process (VmHWM)
//	op_p50_ms    median latency of the workload's operation: an UPDATE's
//	             due time to the barrier fencing its FLOW_MODs (updates),
//	             a Compile call to the barrier fencing SetBase (recompile),
//	             one InjectBatch call of forwardBatch frames (forward)
//	fabric_rules flow entries on the switch after the measured phase
//
// Per-layer (--trace 1), from the benchmark's wrappers around module calls:
// the operation's tail, the Compile and SetBase calls the workload makes
// (per cycle in recompile, at set-up elsewhere), ResolveARP, the switch's
// decode and lookup on a sample of frames addressed through the installed
// table, and the Go runtime over the measured phase. Figures that only one
// workload's path has (route-server ingest, the fast path's memo, the
// microflow hit ratio, ...) are printed as detail lines of its traced run.

// compileSample is one Compile and the SetBase that installed its result.
type compileSample struct {
	compile time.Duration
	stats   core.CompileStats
	commit  commitStats
}

// compileAndCommit runs Compile and pushes the result to the fabric.
func compileAndCommit(ctrl *core.Controller, fab *fabric) (*core.CompileResult, compileSample, error) {
	t0 := time.Now()
	cres, err := ctrl.Compile()
	if err != nil {
		return nil, compileSample{}, err
	}
	s := compileSample{compile: time.Since(t0), stats: cres.Stats}
	if s.commit, err = fab.commit(cres); err != nil {
		return nil, s, err
	}
	return cres, s, nil
}

// lookupFigures times the switch's two per-frame layers on their own.
type lookupFigures struct {
	decodeNs, lookupNs float64 // per frame
	masks              int     // megaflow masks after the lookups
}

// inFrame is a frame and the port it enters the switch on.
type inFrame struct {
	port  uint16
	frame []byte
}

// runFigures are the per-layer figures every workload reports.
type runFigures struct {
	opP90ms  float64
	compiles []compileSample
	arpUs    []float64 // ResolveARP durations
	lookup   lookupFigures
	ops      int    // operations in the measured phase
	alloc    uint64 // bytes allocated in the measured phase
	gcPause  uint64 // ns of collector pauses in the measured phase
	heapPeak uint64 // largest HeapAlloc read in the measured phase
}

// setEndToEnd sets the two end-to-end metrics a measured phase yields;
// setup_s is set by the workload and rss_peak_mb by main.
func setEndToEnd(res *result, opP50ms float64, rules int) {
	res.set("op_p50_ms", opP50ms, "ms")
	res.set("fabric_rules", float64(rules), "count")
}

// set writes the per-layer metrics.
func (f *runFigures) set(res *result) {
	var compile, pol, fec, setBase, mods, install []float64
	for _, c := range f.compiles {
		compile = append(compile, ms(c.compile))
		pol = append(pol, ms(c.stats.PolicyTime))
		fec = append(fec, ms(c.stats.VNHTime))
		setBase = append(setBase, ms(c.commit.setBase))
		mods = append(mods, float64(c.commit.flowMods))
		install = append(install, ms(c.commit.install))
	}
	groups := 0
	if n := len(f.compiles); n > 0 {
		groups = f.compiles[n-1].stats.PrefixGroups
	}
	ops := float64(max(1, f.ops))
	res.set("tail.op_p90_ms", f.opP90ms, "ms")
	res.set("core.compile_ms", median(compile), "ms")
	res.set("policy.compile_ms", median(pol), "ms")
	res.set("core.fec_ms", median(fec), "ms")
	res.set("core.prefix_groups", float64(groups), "count")
	res.set("openflow.setbase_ms", median(setBase), "ms")
	res.set("openflow.flowmods_per_setbase", mean(mods), "count")
	res.set("dataplane.install_ms", median(install), "ms")
	res.set("core.arp_resolve_p50_us", median(f.arpUs), "us")
	res.set("packet.decode_ns_per_frame", f.lookup.decodeNs, "ns")
	res.set("dataplane.lookup_ns_per_frame", f.lookup.lookupNs, "ns")
	res.set("dataplane.megaflow_masks", float64(f.lookup.masks), "count")
	res.set("go.alloc_kb_per_op", float64(f.alloc)/1024/ops, "KB")
	res.set("go.gc_pause_ms", float64(f.gcPause)/1e6, "ms")
	res.set("go.heap_peak_mb", float64(f.heapPeak)/(1<<20), "MB")
}

// timeLookups decodes every frame and classifies the decoded keys with
// FlowTable.LookupBatch in batches of forwardBatch, timing the two apart.
// LookupBatch bumps the rule counters, so it runs after any counter check.
func timeLookups(table *dataplane.FlowTable, frames []inFrame, tr *tracer) lookupFigures {
	var sc packet.Scratch
	keys := make([]policy.Packet, 0, len(frames))
	lens := make([]int, 0, len(frames))
	var decode time.Duration
	for i := 0; i < len(frames); i += forwardBatch {
		t0 := time.Now()
		for _, f := range frames[i:min(i+forwardBatch, len(frames))] {
			if pkt, err := sc.Decode(f.frame); err == nil {
				keys = append(keys, policyPacket(f.port, pkt))
				lens = append(lens, len(f.frame))
			}
		}
		d := time.Since(t0)
		decode += d
		tr.add("packet.Scratch.Decode", "", int64(i), t0, t0.Add(d))
	}
	out := make([]*dataplane.FlowEntry, forwardBatch)
	var lookup time.Duration
	for i := 0; i < len(keys); i += forwardBatch {
		j := min(i+forwardBatch, len(keys))
		t0 := time.Now()
		table.LookupBatch(keys[i:j], lens[i:j], out[:j-i])
		d := time.Since(t0)
		lookup += d
		tr.add("dataplane.FlowTable.LookupBatch", "", int64(i), t0, t0.Add(d))
	}
	n := float64(max(1, len(keys)))
	return lookupFigures{
		decodeNs: float64(decode.Nanoseconds()) / n,
		lookupNs: float64(lookup.Nanoseconds()) / n,
		masks:    table.CacheStats().MegaflowMasks,
	}
}

// lookupSampleFrames is how many frames the traced updates and recompile
// runs time the switch's decode and lookup on.
const lookupSampleFrames = 1 << 12

// lookupSample draws n (member, prefix) pairs with rng, resolves the next
// hop the route server advertises the member for the prefix through
// ResolveARP (each distinct next hop once, timed), and times decode and
// lookup on a probe frame per pair. It returns the ResolveARP durations in
// µs.
func (x *exchange) lookupSample(fab *fabric, rng *rand.Rand, n int, tr *tracer) ([]float64, lookupFigures) {
	var arp []float64
	resolved := map[netip.Addr]netutil.MAC{}
	frames := make([]inFrame, 0, n)
	for tries := 0; len(frames) < n && tries < 100*n; tries++ {
		mi := rng.Intn(len(x.ex.Members))
		p := x.ex.Prefixes[rng.Intn(len(x.ex.Prefixes))]
		if x.bestFor(mi, p) < 0 || x.announces(mi, p) {
			continue
		}
		id := x.ex.Members[mi].ID
		best, ok := x.rs.BestFor(id, p)
		if !ok {
			continue
		}
		vnh := x.ctrl.NextHopFor(id, p, best)
		mac, ok := resolved[vnh]
		if !ok {
			t0 := time.Now()
			mac, ok = x.ctrl.ResolveARP(vnh)
			d := time.Since(t0)
			tr.add("core.Controller.ResolveARP", "", int64(len(arp)), t0, t0.Add(d))
			arp = append(arp, us(d))
			if !ok {
				continue
			}
			resolved[vnh] = mac
		}
		port := x.ex.Members[mi].Ports[0].Number
		frames = append(frames, inFrame{port, x.probeFrame(mi, mac, p, appPorts[len(frames)%len(appPorts)])})
	}
	return arp, timeLookups(fab.sw.Table, frames, tr)
}
