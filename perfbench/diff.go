package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json diff mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runDiff compares two files of captured benchmark output (any number of
// untraced runs each) and prints, per workload and end-to-end metric, both
// sides' medians and quartiles and a verdict:
//
//   - better: the new median is better by more than the old runs' spread
//     (the distance between their quartiles), and the new run beats the
//     old one in at least nine of ten pairs of runs with the same seed
//     (every new run beats every old one when no seeds pair up);
//   - worse-beyond-bound: the new median is worse than the old one by more
//     than the metric's bound;
//   - unresolved: neither.
//
// A gain does not count when the new side fails more often. Before the
// metrics of each workload it prints a row of failed and attempted
// operations per side. When any new run reported an incorrect output, or
// the new side failed a larger share of its operations than the old one,
// it marks that row refused and no cell of the workload better. It exits
// with status 3 when any cell is worse beyond its bound or any row is
// refused.
func runDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench diff OLD NEW (files of captured run output)")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	old, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	cur, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	worse := false
	fmt.Printf("%-11s %-16s %-34s %-34s %8s  %s\n", "workload", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change", "verdict")
	for _, wl := range sortedKeys(old) {
		if _, ok := cur[wl]; !ok {
			fmt.Printf("%-11s (no runs in %s)\n", wl, args[1])
			continue
		}
		oc, nc := old[wl].outcome, cur[wl].outcome
		// Failures compare as shares of attempted operations, since a
		// faster side attempts more in the same time.
		refused := nc.incorrect > 0 || nc.failed*oc.attempted > oc.failed*nc.attempted
		verdict := "ok"
		if refused {
			verdict = "refused"
			worse = true
		}
		fmt.Printf("%-11s %-16s %-34s %-34s %8s  %s\n", wl, "failed", oc.String(), nc.String(), "", verdict)
		for _, m := range spec.EndToEnd {
			a, b := old[wl].metrics[m.Name], cur[wl].metrics[m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			sign := 1.0 // +1 when higher is better
			if m.Better == "lower" {
				sign = -1
			}
			va, vb := values(a), values(b)
			ma, mb := median(va), median(vb)
			gain := sign * (mb - ma)
			verdict := "unresolved"
			switch {
			case gain < -m.Bound*math.Abs(ma):
				verdict = "worse-beyond-bound"
				worse = true
			case !refused && gain > quantile(va, 0.75)-quantile(va, 0.25) && gain > 0 && wins(a, b, sign):
				verdict = "better"
			}
			fmt.Printf("%-11s %-16s %-34s %-34s %+7.1f%%  %s\n", wl, m.Name, cell(va), cell(vb), 100*(mb-ma)/math.Abs(ma), verdict)
		}
	}
	if worse {
		os.Exit(3)
	}
	return nil
}

// seeded is one run's value of a metric.
type seeded struct {
	seed  uint64
	value float64
}

func values(xs []seeded) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.value
	}
	return out
}

// wins reports whether the new runs beat the old ones in at least nine of
// ten same-seed pairs, or, with no pairs, whether every new run beats
// every old one.
func wins(old, cur []seeded, sign float64) bool {
	bySeed := map[uint64]float64{}
	for _, o := range old {
		if _, ok := bySeed[o.seed]; !ok {
			bySeed[o.seed] = o.value
		}
	}
	pairs, won := 0, 0
	for _, c := range cur {
		if o, ok := bySeed[c.seed]; ok {
			pairs++
			if sign*(c.value-o) > 0 {
				won++
			}
		}
	}
	if pairs > 0 {
		return 10*won >= 9*pairs
	}
	for _, c := range cur {
		for _, o := range old {
			if sign*(c.value-o.value) <= 0 {
				return false
			}
		}
	}
	return true
}

func cell(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory the benchmark runs in.
func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(".", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// outcome totals the failures of one side's runs of a workload.
type outcome struct {
	runs, incorrect   int // runs, and runs that reported correct=false
	failed, attempted int // operations, summed over the runs
}

func (o outcome) String() string {
	return fmt.Sprintf("%d/%d ops, %d/%d runs incorrect", o.failed, o.attempted, o.incorrect, o.runs)
}

// sideRuns is one side's untraced runs of one workload.
type sideRuns struct {
	outcome outcome
	metrics map[string][]seeded // metric -> one value per run
}

// loadRuns collects the untraced record lines of a file by workload.
func loadRuns(path string) (map[string]*sideRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*sideRuns{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"perfbench"`) {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Trace {
			continue
		}
		side := out[r.Workload]
		if side == nil {
			side = &sideRuns{metrics: map[string][]seeded{}}
			out[r.Workload] = side
		}
		side.outcome.runs++
		if !r.Correct {
			side.outcome.incorrect++
		}
		side.outcome.failed += r.Failed
		side.outcome.attempted += r.Attempted
		for name, m := range r.Metrics {
			side.metrics[name] = append(side.metrics[name], seeded{r.Seed, m.Value})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced perfbench records", path)
	}
	return out, nil
}
