package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"
)

// runCapacity measures the closed-loop capacity of serve-cold's
// configuration and mix, from which coldRate is set:
//
//	bash perfbench/run.sh capacity --seed 1 --seconds 20
//
// It sets serve-cold up once, warms it for coldWarm, and then serves the
// mix to a closed loop of one client, which gives each kind of request's
// service time without queueing, and of two clients on at most two
// connections (as serve-cold uses), whose completion rate is the
// capacity. It prints one line per loop and the utilisation that coldRate
// puts on that capacity.
func runCapacity(args []string) error {
	fs := flag.NewFlagSet("capacity", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "measured seconds per loop")
	buildDir := fs.String("dir", ".bench_build", "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*buildDir, "capacity-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := &runConfig{workload: "serve-cold", seed: *seed, seconds: *seconds, dir: dir}
	var st setupTimes
	srv, arcs, _, err := setupServeCold(cfg, &st, 1)
	if err != nil {
		return err
	}
	defer srv.Close()
	orc, classes, err := coldMix(arcs)
	if err != nil {
		return err
	}
	lb, err := startLoopback(srv, nil)
	if err != nil {
		return err
	}
	defer lb.close()
	newMix := func(c int) *mixer {
		return newMixer(rand.New(rand.NewPCG(cfg.seed, 99+uint64(c))), coldWeights, classes)
	}
	if _, err := measure(lb, closedLoop(lb, orc, 2, coldWarm, "identity", newMix, nil)); err != nil {
		return err
	}
	var capacity float64
	for _, clients := range []int{1, 2} {
		w, err := measure(lb, closedLoop(lb, orc, clients, cfg.window(), "identity", newMix, nil))
		if err != nil {
			return err
		}
		res := &result{correct: true, e2e: metrics{}}
		w.report(res)
		if res.failed > 0 {
			return fmt.Errorf("%d of %d requests failed", res.failed, res.attempted)
		}
		byClass := map[string][]float64{}
		for _, s := range w.samples {
			byClass[s.class] = append(byClass[s.class], s.latMs)
		}
		capacity = res.e2e["req_s"].Value
		fmt.Printf("clients=%d requests=%d req_s=%.2f p50_ms=%.2f p95_ms=%.2f field_p50_ms=%.2f chunk_p50_ms=%.2f preview_p50_ms=%.2f cpu_util_pct=%.1f\n",
			clients, res.attempted, capacity, res.e2e["p50_ms"].Value, res.e2e["p95_ms"].Value,
			median(byClass["field"]), median(byClass["chunk"]), median(byClass["preview"]), w.watch.cpuUtilPct())
	}
	fmt.Printf("capacity=%.2f req/s; coldRate=%d req/s puts %.0f%% of it on the server (%s, seed %d, %s)\n",
		capacity, coldRate, 100*coldRate/capacity, environment().CPUModel, cfg.seed, time.Now().UTC().Format(time.RFC3339))
	return nil
}
