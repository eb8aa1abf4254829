// Command perfbench is the repository benchmark. It drives the codec and
// the HTTP serving layer only through their public functions, checks every
// output against an oracle computed at set-up, and prints one JSON result
// line. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload codec --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh diff old.txt new.txt
//	bash perfbench/run.sh capacity --seed 1 --seconds 20
//
// See README.md for the workloads, the metrics and the diff mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records a value. JSON has no infinities: a latency that is
// infinite because requests failed is recorded as the largest float, and
// an undefined value as zero.
func (m metrics) set(name string, v float64, unit string) {
	switch {
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	case math.IsNaN(v):
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is what one workload run produces.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       metrics // end-to-end metrics (untraced runs)
	layers    metrics // per-layer metrics (traced runs)
	notes     []string
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir is a private scratch directory inside the build directory for
	// files a workload writes (file-backed mounts, span dumps).
	dir string
	tr  *tracer // nil unless trace is set
}

var workloads = map[string]func(*runConfig) (*result, error){
	"codec":      runCodec,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

// subcommands are the tools beside the benchmark run itself.
var subcommands = map[string]func([]string) error{
	"diff":     runDiff,
	"capacity": runCapacity,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		workload = flag.String("workload", "", "workload name: codec, serve-hot or serve-cold")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 12, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		buildDir = flag.String("dir", ".bench_build", "directory for scratch files")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0")
		os.Exit(2)
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := &runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	res, err := fn(cfg)
	if cfg.trace && err == nil {
		err = cfg.tr.writeFile(filepath.Join(*buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ms := res.e2e
	if cfg.trace {
		ms = res.layers
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms}
	// The record line carries the environment and identifies the run, so
	// captured output can be diffed later; the result line comes last.
	rec := record{Perfbench: 1, Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.seconds, Time: time.Now().UTC().Format(time.RFC3339), Env: environment(),
		Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: ms}
	printJSON(rec)
	printJSON(out)
}

// record is the line before the result: the run's identity, environment
// and metrics, in the form diff mode reads.
type record struct {
	Perfbench int     `json:"perfbench"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Trace     bool    `json:"trace"`
	Seconds   float64 `json:"seconds"`
	Time      string  `json:"time"`
	Env       env     `json:"env"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
