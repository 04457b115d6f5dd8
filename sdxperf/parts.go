package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// An untraced updates or forward run is split across runParts processes run
// one after another (--part), each with its own set-up, an equal share of
// the window and its own seed derived from --seed. Each end-to-end metric
// is the median of the parts' values (rss_peak_mb the largest). On the
// 2-vCPU machine the README's figures come from, one process's update
// percentiles moved by a quarter from one run to the next with the seed
// held fixed; a median of three processes does not follow one slow one.
const runParts = 3

// partPrefix marks the line a part process reports its result on.
const partPrefix = "part: "

// partResult is one part process's result.
type partResult struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failures  map[string]int    `json:"failures"`
	Record    []string          `json:"record"`
}

func printPart(res *result) error {
	b, err := json.Marshal(partResult{Metrics: res.metrics, Attempted: res.attempted, Failures: res.failures, Record: res.record})
	if err != nil {
		return err
	}
	fmt.Println(partPrefix + string(b))
	return nil
}

// runSplit runs the named workload as runParts part processes, one after
// another, each waited for before the next starts (all are killed if the
// split outlasts the run's time limit), and combines what they report.
func runSplit(name string, opts options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 165*time.Second)
	defer cancel()
	res := newResult()
	vals := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < runParts; i++ {
		cmd := exec.CommandContext(ctx, os.Args[0], "--workload", name,
			"--seed", strconv.FormatInt(opts.seed*runParts+int64(i), 10),
			"--seconds", strconv.FormatFloat(opts.seconds/runParts, 'f', -1, 64),
			"--rate", strconv.Itoa(updateRate), "--frame-size", strconv.Itoa(frameSize), "--part")
		cmd.Stderr = os.Stderr
		// A part outlives nothing: it is killed if this process dies.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var pr partResult
		found := false
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, partPrefix); ok {
				if err := json.Unmarshal([]byte(rest), &pr); err != nil {
					return nil, fmt.Errorf("part %d: %w", i, err)
				}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("part %d reported no result", i)
		}
		names := make([]string, 0, len(pr.Metrics))
		for k, m := range pr.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
			names = append(names, k)
		}
		sort.Strings(names)
		line := fmt.Sprintf("part %d:", i)
		for _, k := range names {
			line += fmt.Sprintf(" %s=%.4f", k, pr.Metrics[k].Value)
		}
		res.note("%s", line)
		res.attempted += pr.Attempted
		for reason, n := range pr.Failures {
			res.failed += n
			res.failures[reason] += n
		}
		for _, line := range pr.Record {
			res.note("part %d: %s", i, line)
		}
	}
	for k, v := range vals {
		if k == "rss_peak_mb" {
			res.set(k, quantile(v, 1), units[k])
		} else {
			res.set(k, median(v), units[k])
		}
	}
	return res, nil
}
