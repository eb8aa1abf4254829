package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] {
		return s[lo] // also keeps infinite samples from turning into NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// runtimeWatch samples Go runtime metrics across a measured window: the
// peak live heap (polled), the stop-the-world GC pause total, and the
// process's CPU time.
type runtimeWatch struct {
	stop      chan struct{}
	done      sync.WaitGroup
	peakHeap  atomic.Uint64
	rss       []float64 // polled resident set sizes, bytes; the sampler owns it until end
	pause0    uint64
	pauseNs   uint64
	gcCycles0 uint64
	gcCycles  uint64
	start     time.Time
	wall      time.Duration
	cpu0      time.Duration
	cpu       time.Duration
}

var heapSample = []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readRuntime() (heap, cycles uint64) {
	s := slices.Clone(heapSample)
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{})}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.pause0 = m.PauseTotalNs
	_, w.gcCycles0 = readRuntime()
	w.start, w.cpu0 = time.Now(), cpuTime()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			heap, _ := readRuntime()
			if heap > w.peakHeap.Load() {
				w.peakHeap.Store(heap)
			}
			w.rss = append(w.rss, float64(residentBytes()))
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// end stops the sampler and records the pause and cycle deltas.
func (w *runtimeWatch) end() {
	close(w.stop)
	w.done.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.pauseNs = m.PauseTotalNs - w.pause0
	_, c := readRuntime()
	w.gcCycles = c - w.gcCycles0
	w.wall, w.cpu = time.Since(w.start), cpuTime()-w.cpu0
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuUtilPct is the process's CPU time over the window as a share of
// the CPU time GOMAXPROCS threads could have used.
func (w *runtimeWatch) cpuUtilPct() float64 {
	return pct(w.cpu.Seconds(), w.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

// peakRSSMB is the 99th percentile of the resident set sizes polled in
// the window: the peak the process holds, without the single highest
// sample, which depends on where a GC cycle happened to fall.
func (w *runtimeWatch) peakRSSMB() float64 { return quantile(w.rss, 0.99) / mib }

// settleHeap collects set-up garbage and returns it to the OS, so that a
// window's peak resident set reflects the work inside the window.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// residentBytes reads the process's resident set size from /proc.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// report adds the runtime per-layer metrics.
func (w *runtimeWatch) report(m metrics) {
	m.set("go.gc_pause_ms", float64(w.pauseNs)/1e6, "ms")
	m.set("go.gc_cycles", float64(w.gcCycles), "count")
	m.set("go.heap_peak_mb", float64(w.peakHeap.Load())/mib, "MiB")
	m.set("process.cpu_util_pct", w.cpuUtilPct(), "%")
}
