package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's wrappers around a
// call into a module, or a wait between two such calls.
type span struct {
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	ID     int64     `json:"id"` // the UPDATE, cycle or batch it belongs to
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs measure.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name, parent string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, Start: start, End: end})
	t.mu.Unlock()
}

// layerRow is the per-name aggregate of the spans.
type layerRow struct {
	name       string
	n          int
	total      time.Duration
	self       time.Duration
	selfSample []float64 // ms
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its child spans (same ID, parent naming it)
// cover.
func (t *tracer) selfTimes() []layerRow {
	type key struct {
		id   int64
		name string
	}
	children := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		d := s.End.Sub(s.Start)
		self := d - covered(s, children[key{s.ID, s.Name}])
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += d
		r.self += self
		r.selfSample = append(r.selfSample, ms(self))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of s the union of kids overlaps.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				sum += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		sum += curB.Sub(curA)
	}
	return sum
}

// printLayers writes the per-layer self-time table. Names starting with
// "wait." are the gaps between calls (transport, queueing, the switch
// applying a table), not calls.
func (t *tracer) printLayers(w io.Writer) {
	rows := t.selfTimes()
	fmt.Fprintf(w, "layers: %-34s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_p50_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "layers: %-34s %8d %12.3f %12.3f %12.4f\n",
			r.name, r.n, ms(r.total), ms(r.self), median(r.selfSample))
	}
}

// write stores every span as JSON, one per line.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// printOverhead writes, for each end-to-end metric, the traced phase's
// value minus the untraced phase's.
func printOverhead(w io.Writer, untraced, traced map[string]metric) {
	names := make([]string, 0, len(untraced))
	for n := range untraced {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u, tr := untraced[n], traced[n]
		fmt.Fprintf(w, "overhead: %-24s untraced %12.4f traced %12.4f diff %+12.4f %s\n",
			n, u.Value, tr.Value, tr.Value-u.Value, u.Unit)
	}
}
