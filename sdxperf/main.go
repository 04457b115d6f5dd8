// Command sdxperf is the SDX benchmark: one command, three workloads, each
// driving one path of the exchange end to end through the repository's own
// modules, wired the way cmd/sdx-controller wires them.
//
//	updates    BGP UPDATE -> route server -> FastReact -> PushFastAll ->
//	           switch barrier, and the re-advertisement to a monitor peer
//	recompile  Table-1 burst -> fast path -> Compile -> SetBase -> switch
//	           barrier, with the committed table checked after every cycle
//	forward    frames through a compiled, OpenFlow-installed table
//
// Usage:
//
//	go run . --workload updates --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
// metrics; every workload reports every one of them from its own path
// (layers.go). Figures only one workload has are printed as detail lines
// before it. See README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	attempted, failed int
	// failures counts failed operations by reason.
	failures map[string]int
	metrics  map[string]metric
	// details are figures of the workload's own path that BENCHMARK.json
	// does not list; they are printed, not put in the JSON line.
	details map[string]metric
	// record holds workload-specific run-record lines (offered rate,
	// generator lateness, reference figures).
	record []string
	// tr holds the traced run's spans.
	tr *tracer
}

func newResult() *result {
	return &result{failures: map[string]int{}, metrics: map[string]metric{}, details: map[string]metric{}}
}

// op counts one attempted operation and, when reason is non-empty, its
// failure.
func (r *result) op(reason string) {
	r.attempted++
	if reason != "" {
		r.failed++
		r.failures[reason]++
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) detail(name string, v float64, unit string) {
	r.details[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.record = append(r.record, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times a workload builds its set-up; setup_s is
	// the median, so one slow build does not move it.
	setups int
	// small selects smoke-test sizes (the benchmark's own test).
	small bool
}

var workloads = map[string]func(options) (*result, error){
	"updates":   runUpdates,
	"recompile": runRecompile,
	"forward":   runForward,
}

func main() {
	name := flag.String("workload", "", "workload to run: updates, recompile or forward")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to, one JSON object per line")
	flag.IntVar(&updateRate, "rate", updateRate, "updates workload offered load in UPDATEs per second")
	flag.IntVar(&frameSize, "frame-size", frameSize, "forward workload frame length in bytes (64 to 1500)")
	part := flag.Bool("part", false, "run as one part process of a split run (parts.go) and report its result on a part: line")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || frameSize < 64 || frameSize > 1500 || updateRate < 1 {
		fmt.Fprintf(os.Stderr, "sdxperf: need --workload updates|recompile|forward, --seconds > 0, --trace 0|1, --frame-size 64..1500\n")
		os.Exit(2)
	}
	// An untraced updates or forward run is runParts part processes with
	// one set-up each (parts.go); any other run is one process with three
	// set-ups. A recompile cycle takes seconds, so a third of the window
	// would not hold the pair of cycles a run is made of.
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3}
	if *part {
		opts.setups = 1
	}
	printEnv(*name, opts)
	var res *result
	var err error
	if !opts.trace && !*part && *name != "recompile" {
		res, err = runSplit(*name, opts)
	} else {
		res, err = run(opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdxperf: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !opts.trace {
		setRSS(res)
	}
	if *part {
		if err := printPart(res); err != nil {
			fmt.Fprintf(os.Stderr, "sdxperf: %v\n", err)
			os.Exit(1)
		}
	}
	if res.tr != nil {
		res.tr.printLayers(os.Stdout)
		if *spans != "" {
			if err := writeSpans(*spans, res.tr); err != nil {
				fmt.Fprintf(os.Stderr, "sdxperf: writing spans: %v\n", err)
				os.Exit(1)
			}
		}
	}
	report(*name, res)
}

func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEnv writes the environment part of the run record.
func printEnv(name string, opts options) {
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", name, opts.seed, opts.seconds, opts.trace)
	fmt.Printf("env: go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
}

// report prints the run record, the metrics table and, last, the JSON line.
func report(name string, res *result) {
	for _, line := range res.record {
		fmt.Println(line)
	}
	fmt.Printf("ops: workload=%s attempted=%d failed=%d\n", name, res.attempted, res.failed)
	reasons := make([]string, 0, len(res.failures))
	for r := range res.failures {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("failed: %d x %s\n", res.failures[r], r)
	}
	printMetrics("detail", res.details)
	printMetrics("metric", res.metrics)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == expectedFailures(res), res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdxperf: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printMetrics(label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s: %-36s %14.4f %s\n", label, n, ms[n].Value, ms[n].Unit)
	}
}

// expectedFailures is the number of failed operations explained by the
// known stale-VNH fault (see staleVNHReason): those do not make a run
// incorrect, any other failure does.
func expectedFailures(res *result) int {
	return res.failures[staleVNHReason]
}

// setRSS sets rss_peak_mb from this process's peak resident set, unless
// the parts of a split run have reported theirs.
func setRSS(res *result) {
	if _, ok := res.metrics["rss_peak_mb"]; !ok {
		res.set("rss_peak_mb", float64(peakRSSKB())/1024, "MB")
	}
}

// peakRSSKB reads the process's peak resident set (VmHWM) in KiB.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision: git's HEAD when the working directory
// is the top of a git checkout, else "unknown". The ceiling keeps git from
// looking above the working directory for a repository.
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stopwatch helpers shared by the workloads.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// timedSetups runs build opts.setups times, tears down every build but the
// last, and returns the last build with the median build time in seconds.
func timedSetups[T any](opts options, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	n := opts.setups
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
		}
		// Set-up garbage is collected before anything is measured, so the
		// collector's first cycles in the measured phase do not depend on it.
		runtime.GC()
		last = v
	}
	return last, median(times), nil
}
