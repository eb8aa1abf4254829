package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (a codec
// round trip, an HTTP request) share a trace id; parent is 0 for the root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	trace uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(trace, parent uint64, name string) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: uint64(len(t.spans) + 1), Parent: parent, Name: name, Start: now, End: -1})
	return uint64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// writeFile dumps every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the traced run's layer table.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
	// Container rows (a round-trip root, the server handler) do no work
	// of their own: their self time is time no layer accounts for.
	Container bool
}

// layerTable aggregates closed spans by name. Self time is a span's
// duration minus the part of it that its children cover.
type layerTable struct {
	rows   []*layerRow
	wallMs float64 // summed duration of root spans
}

func (t *tracer) table() *layerTable {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := &layerTable{}
	byName := make(map[string]*layerRow)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
			lt.rows = append(lt.rows, r)
		}
		r.Count++
		r.TotalMs += float64(dur) / 1e6
		r.SelfMs += float64(self) / 1e6
		if s.Parent == 0 {
			lt.wallMs += float64(dur) / 1e6
		}
	}
	return lt
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, curA, curB int64
	first := true
	for _, v := range ivs {
		if first || v.a > curB {
			if !first {
				total += curB - curA
			}
			curA, curB, first = v.a, v.b, false
		} else if v.b > curB {
			curB = v.b
		}
	}
	if !first {
		total += curB - curA
	}
	return total
}

func (lt *layerTable) row(name string) *layerRow {
	for _, r := range lt.rows {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// addChild records work measured outside the span tree (stage timers, the
// server's stage histograms) as a child of an existing row: it takes its
// time out of the parent's self time.
func (lt *layerTable) addChild(parent, name string, count int, totalMs float64) {
	lt.rows = append(lt.rows, &layerRow{Name: name, Count: count, TotalMs: totalMs, SelfMs: totalMs})
	if p := lt.row(parent); p != nil {
		p.SelfMs -= totalMs
	}
}

func (lt *layerTable) markContainer(names ...string) {
	for _, n := range names {
		if r := lt.row(n); r != nil {
			r.Container = true
		}
	}
}

// unattributedMs is the self time of container rows, floored at zero per
// row (concurrent stage timers can sum past their parent's wall time).
func (lt *layerTable) unattributedMs() float64 {
	var u float64
	for _, r := range lt.rows {
		if r.Container && r.SelfMs > 0 {
			u += r.SelfMs
		}
	}
	return u
}

// format renders the table for the run's output.
func (lt *layerTable) format(title string) string {
	out := []string{fmt.Sprintf("# layer table: %s (wall %.1f ms over root spans)", title, lt.wallMs),
		fmt.Sprintf("# %-34s %8s %12s %12s %7s", "layer", "count", "total_ms", "self_ms", "self_%")}
	for _, r := range lt.rows {
		mark := ""
		if r.Container {
			mark = "  (unattributed)"
		}
		out = append(out, fmt.Sprintf("# %-34s %8d %12.2f %12.2f %6.1f%%%s", r.Name, r.Count, r.TotalMs, r.SelfMs, pct(r.SelfMs, lt.wallMs), mark))
	}
	out = append(out, fmt.Sprintf("# %-34s %8s %12s %12.2f %6.1f%%", "unattributed", "", "", lt.unattributedMs(), pct(lt.unattributedMs(), lt.wallMs)))
	return strings.Join(out, "\n")
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
