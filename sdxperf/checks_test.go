package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/policy"
)

// smoke is the options every test runs a workload with: small exchanges,
// one set-up, a short measured phase.
var smoke = options{seed: 1, seconds: 0.5, setups: 1, small: true}

// manifest reads the metric names BENCHMARK.json lists for each mode.
func manifest(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
	}
	for _, e := range m.PerLayer {
		perLayer = append(perLayer, e.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs each workload at smoke size, untraced and traced,
// and requires every check to pass (bar the known stale-VNH fault) and
// exactly the metrics BENCHMARK.json lists for the mode to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := manifest(t)
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			opts := smoke
			opts.trace = traced
			res, err := run(opts)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if res.attempted == 0 {
				t.Errorf("%s (traced %v): no operations attempted", name, traced)
			}
			if res.failed != expectedFailures(res) {
				t.Errorf("%s (traced %v): unexpected failures %v", name, traced, res.failures)
			}
			names := perLayer
			if !traced {
				names = endToEnd
				setRSS(res)
			}
			for _, m := range names {
				if _, ok := res.metrics[m]; !ok {
					t.Errorf("%s (traced %v): metric %s missing", name, traced, m)
				}
			}
			if len(res.metrics) != len(names) {
				t.Errorf("%s (traced %v): reports %d metrics, BENCHMARK.json lists %d", name, traced, len(res.metrics), len(names))
			}
			if !traced {
				for m, v := range res.metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestStaleVNHFailsEveryCycle pins the one failure a correct run reports:
// the fixed stale-VNH probe fails every time while the fault stands, so the
// failed share of a recompile run does not depend on the seed or the run
// length.
func TestStaleVNHFailsEveryCycle(t *testing.T) {
	s, err := newStaleProbe()
	if err != nil {
		t.Fatal(err)
	}
	first := s.run()
	for i := 0; i < 20; i++ {
		if got := s.run(); got != first {
			t.Fatalf("run %d: %q, first run %q", i, got, first)
		}
	}
}

// TestRecompileChecksCatchTableCorruption feeds the post-SetBase table
// check a table missing one FLOW_MOD and a table with a stale entry left
// behind; both must fail.
func TestRecompileChecksCatchTableCorruption(t *testing.T) {
	r, err := newRecompileRig(1, 30, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	entries := r.fab.sw.Table.Entries()
	if ok, why := tableMatches(entries, r.last); !ok {
		t.Fatalf("fresh table does not match: %s", why)
	}
	if ok, _ := tableMatches(entries[1:], r.last); ok {
		t.Error("a missing FLOW_MOD went unnoticed")
	}
	stale := dataplane.FlowEntry{
		Match:    policy.MatchAll.DstPort(1),
		Priority: 0xfffe,
		Actions:  []openflow.Action{openflow.Output(1)},
	}
	if ok, _ := tableMatches(append([]dataplane.FlowEntry{stale}, entries...), r.last); ok {
		t.Error("a stale entry left after SetBase went unnoticed")
	}
	// The same corruptions on the switch itself.
	first := entries[0]
	r.fab.sw.Table.Delete(first.Match, first.Priority, true)
	if ok, _ := tableMatches(r.fab.sw.Table.Entries(), r.last); ok {
		t.Error("a deleted switch entry went unnoticed")
	}
	r.fab.sw.Table.Add(&dataplane.FlowEntry{Match: first.Match, Priority: first.Priority, Actions: first.Actions})
	r.fab.sw.Table.Add(&stale)
	if ok, _ := tableMatches(r.fab.sw.Table.Entries(), r.last); ok {
		t.Error("a stale switch entry went unnoticed")
	}
}

// TestProbeCheckCatchesWrongPort feeds the BGP-consistency probe check a
// frame that left toward a member that does not announce the prefix.
func TestProbeCheckCatchesWrongPort(t *testing.T) {
	r, err := newRecompileRig(1, 30, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	x := r.x
	p := x.ex.Prefixes[0]
	wrong := -1
	for mi := range x.ex.Members {
		if !x.announces(mi, p) {
			wrong = mi
			break
		}
	}
	port := []uint16{x.ex.Members[wrong].Ports[0].Number}
	if checkAnnouncerEgress(nil, port, x.ownerOf, func(o int) bool { return x.announces(o, p) }) == "" {
		t.Error("a frame on a non-announcer's port went unnoticed")
	}
	if checkAnnouncerEgress(nil, nil, x.ownerOf, func(int) bool { return true }) == "" {
		t.Error("a dropped frame went unnoticed")
	}
}

// TestForwardCheckCatchesWrongPort injects a real batch, then moves one
// emission to a port of a member that does not announce the frame's
// destination.
func TestForwardCheckCatchesWrongPort(t *testing.T) {
	r, err := newForwardRig(1, 30, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	s := r.fill(1 << 10)
	r.fab.out.start()
	if err := r.fab.sw.InjectBatch(r.x.ex.Members[s].Ports[0].Number, r.frames); err != nil {
		t.Fatal(err)
	}
	r.fab.out.rec = false
	res := newResult()
	r.checkBatch(res, s)
	if res.failed != 0 {
		t.Fatalf("clean batch failed: %v", res.failures)
	}
	seq := r.fab.out.seq
	pi := r.dstIdx[0]
	for mi, m := range r.x.ex.Members {
		if r.annBit[pi][mi/64]&(1<<(mi%64)) == 0 {
			for i := range seq {
				if seq[i].key == [12]byte(r.frames[0][26:38]) {
					seq[i].port = m.Ports[0].Number
				}
			}
			break
		}
	}
	res = newResult()
	r.checkBatch(res, s)
	if res.failed == 0 {
		t.Error("a frame on the wrong port went unnoticed")
	}
	r.fab.out.seq = seq[:0]
	res = newResult()
	r.checkBatch(res, s)
	if res.failed != len(r.frames) {
		t.Errorf("dropping every frame failed %d of %d operations", res.failed, len(r.frames))
	}
}

// TestUpdatesChecksCatchLoss runs the open loop briefly, then feeds the
// checks an UPDATE whose re-advertisement was lost, one whose fabric fence
// never came, and a monitor route from the wrong announcer.
func TestUpdatesChecksCatchLoss(t *testing.T) {
	r, err := newUpdatesRig(1, 20, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ph := r.measure(0.3, nil)
	if len(ph.samples) == 0 || len(ph.lost) != 0 {
		t.Fatalf("%d samples, %d lost", len(ph.samples), len(ph.lost))
	}
	s := *ph.samples[0]
	if checkSample(&s) != "" {
		t.Fatalf("a complete sample fails: %q", checkSample(&s))
	}
	lost := s
	lost.peer = time.Time{}
	if checkSample(&lost) == "" {
		t.Error("a lost re-advertisement went unnoticed")
	}
	unfenced := s
	unfenced.fabric = time.Time{}
	if checkSample(&unfenced) == "" {
		t.Error("an UPDATE whose FLOW_MODs were never fenced went unnoticed")
	}
	if checkBest(true, 1, 2) == "" || checkBest(false, 0, 2) == "" {
		t.Error("a wrong or missing monitor route went unnoticed")
	}
	res := newResult()
	r.finalChecks(res)
	if res.failed != 0 {
		t.Errorf("final checks failed on a clean run: %v", res.failures)
	}
}
