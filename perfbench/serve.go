package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	crossfield "repro"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// oracleKey names one servable representation: a whole field (chunk -1)
// or one chunk, at a progressive level (full is -1).
type oracleKey struct {
	mount, field string
	chunk, level int
}

const full = -1

// oracleEntry is the library's decode of one representation: the SHA-256
// of its little-endian float32 body, and for previews the advertised
// bound and whether the measured error against the original stays
// within it.
type oracleEntry struct {
	sum         [32]byte
	bound       float64
	withinBound bool
}

type oracle map[oracleKey]oracleEntry

func floatsLE(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// addField records a field's full-fidelity decode and, when withChunks is
// set, each of its chunks decoded on its own through the library.
func (o oracle) addField(mount string, ar *crossfield.Archive, name string, withChunks bool) error {
	f, err := ar.Field(name)
	if err != nil {
		return err
	}
	o[oracleKey{mount, name, -1, full}] = oracleEntry{sum: sha256.Sum256(floatsLE(f.Data()))}
	if !withChunks {
		return nil
	}
	payload, anchors, err := payloadAndAnchors(ar, name)
	if err != nil {
		return err
	}
	n, err := crossfield.ChunkCount(payload)
	if err != nil {
		return err
	}
	for ci := 0; ci < n; ci++ {
		c, _, err := crossfield.DecompressChunk(name, payload, ci, anchors)
		if err != nil {
			return err
		}
		o[oracleKey{mount, name, ci, full}] = oracleEntry{sum: sha256.Sum256(floatsLE(c.Data()))}
	}
	return nil
}

// payloadAndAnchors returns a field's payload and its decoded anchors.
func payloadAndAnchors(ar *crossfield.Archive, name string) ([]byte, []*crossfield.Field, error) {
	payload, err := ar.FieldPayload(name)
	if err != nil {
		return nil, nil, err
	}
	info, _ := ar.FieldInfoFor(name)
	var anchors []*crossfield.Field
	for _, a := range info.Anchors {
		af, err := ar.Field(a)
		if err != nil {
			return nil, nil, err
		}
		anchors = append(anchors, af)
	}
	return payload, anchors, nil
}

// addPreview records a preview decode and checks it against the level's
// advertised bound.
func (o oracle) addPreview(k oracleKey, got, orig *crossfield.Field, bound float64) error {
	_, ok, err := crossfield.Verify(orig, got, bound)
	if err != nil {
		return err
	}
	o[k] = oracleEntry{sum: sha256.Sum256(floatsLE(got.Data())), bound: bound, withinBound: ok}
	return nil
}

// loopback serves a serve.Server on a real loopback listener and holds
// the load client, whose connections count the bytes they read.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	admin  *http.Client // /metrics reads, not counted as load
	wire   atomic.Int64

	mu       sync.Mutex
	verdicts map[verdictKey]verdict
}

// verdictKey identifies a response as far as its check depends on it: the
// request path, the headers the check reads, and the SHA-256 of the body
// as it came off the wire.
type verdictKey struct {
	path, encoding, level, levelBound string
	wireSum                           [32]byte
}

// verdict is the outcome of checking one distinct response.
type verdict struct {
	ok      bool
	decoded int
}

// countConn counts bytes read off the wire.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// traceHeader carries "trace/span" from the load client to the handler
// middleware on traced requests.
const traceHeader = "X-Perfbench-Trace"

func startLoopback(srv *serve.Server, tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v := r.Header.Get(traceHeader)
			if v == "" {
				inner.ServeHTTP(w, r)
				return
			}
			ts, ps, _ := strings.Cut(v, "/")
			trace, _ := strconv.ParseUint(ts, 10, 64)
			parent, _ := strconv.ParseUint(ps, 10, 64)
			sp := tr.start(trace, parent, "serve.handler")
			inner.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
	lb := &loopback{srv: srv, hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}), base: "http://" + ln.Addr().String(), verdicts: map[verdictKey]verdict{}}
	go func() {
		defer close(lb.served)
		lb.hs.Serve(ln)
	}()
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	lb.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: c, n: &lb.wire}, nil
		},
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	lb.admin = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}}
	return lb, nil
}

// close stops the listener and every connection and waits for Serve to
// return.
func (lb *loopback) close() {
	lb.hs.Close()
	<-lb.served
	lb.client.CloseIdleConnections()
	lb.admin.CloseIdleConnections()
}

// reqSpec is one request of a workload's mix.
type reqSpec struct {
	mount, field string
	chunk        int    // -1 for a whole field
	query        string // "", "level=0" or "eb=..."
	class        string // "field", "chunk" or "preview"
}

func (r reqSpec) path() string {
	p := "/v1/archives/" + r.mount + "/fields/" + r.field
	if r.chunk >= 0 {
		p += "/chunks/" + strconv.Itoa(r.chunk)
	}
	if r.query != "" {
		p += "?" + r.query
	}
	return p
}

// mixer draws requests in exact proportions. Classes come in blocks that
// hold each class as many times as its weight, shuffled by the seed, and
// each class cycles through a seeded permutation of its candidates. Runs
// with different seeds send nearly the same multiset of requests in a
// different order, so a quantile of a mixed workload does not move with
// the luck of the draw.
type mixer struct {
	rng     *rand.Rand
	block   []int
	pending []int
	classes [][]reqSpec
	next    []int
	cycles  []int // passes begun through each class's candidates
	last    int   // class of the last request drawn
}

func newMixer(rng *rand.Rand, weights []int, classes [][]reqSpec) *mixer {
	m := &mixer{rng: rng, next: make([]int, len(classes)), cycles: make([]int, len(classes))}
	for c, w := range weights {
		for i := 0; i < w; i++ {
			m.block = append(m.block, c)
		}
	}
	for _, c := range classes {
		m.classes = append(m.classes, slices.Clone(c))
	}
	return m
}

func (m *mixer) draw() reqSpec {
	if len(m.pending) == 0 {
		m.pending = append(m.pending, m.block...)
		m.rng.Shuffle(len(m.pending), func(i, j int) { m.pending[i], m.pending[j] = m.pending[j], m.pending[i] })
	}
	c := m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
	cands := m.classes[c]
	if m.next[c] == 0 {
		m.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		m.cycles[c]++
	}
	m.last = c
	r := cands[m.next[c]]
	m.next[c] = (m.next[c] + 1) % len(cands)
	return r
}

// pick draws the next request and returns the tracer to record it with:
// tr on every second pass through the request's class and nil on the
// others. Each pass holds every candidate of the class once, so a traced
// run interleaves a traced and an untraced set of the same requests, and
// the two sets give the tracing overhead.
func (m *mixer) pick(tr *tracer) (reqSpec, *tracer) {
	rs := m.draw()
	if m.cycles[m.last]%2 == 1 {
		return rs, nil
	}
	return rs, tr
}

// sample is the outcome of one request.
type sample struct {
	class    string
	latMs    float64
	ok       bool // 2xx and the body matched the oracle
	status   int
	mismatch bool // a 2xx body that differs from the oracle or breaks its bound
	decoded  int
	traced   bool
}

// do sends one request and checks the response against the oracle.
// Latency runs from start (the request's due time in an open loop) to
// the last body byte; decoding and checking the body come after.
//
// The check of a distinct response is remembered: a response whose path,
// checked headers and wire bytes were seen before has the same verdict.
// The server encodes a given body to the same bytes every time, so after
// the first of each the client spends one SHA-256 of the wire body on a
// response instead of a gunzip and a second hash, and its own work
// competes less with the server for CPU in the closed loop.
func (lb *loopback) do(rs reqSpec, encoding string, orc oracle, tr *tracer, start time.Time) sample {
	s := sample{class: rs.class, traced: tr != nil}
	req, err := http.NewRequest(http.MethodGet, lb.base+rs.path(), nil)
	if err != nil {
		return s
	}
	req.Header.Set("Accept-Encoding", encoding)
	trace := tr.newTrace()
	root := tr.start(trace, 0, "http.request."+rs.class)
	if tr != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(trace, 10)+"/"+strconv.FormatUint(root, 10))
	}
	resp, err := lb.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(root)
	s.latMs = ms(time.Since(start))
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	if resp.StatusCode/100 != 2 {
		return s
	}
	key := verdictKey{path: rs.path(), encoding: resp.Header.Get("Content-Encoding"),
		level: resp.Header.Get("X-CFC-Level"), levelBound: resp.Header.Get("X-CFC-Level-Bound"),
		wireSum: sha256.Sum256(body)}
	lb.mu.Lock()
	v, seen := lb.verdicts[key]
	lb.mu.Unlock()
	if !seen {
		v = check(rs, key, body, orc)
		lb.mu.Lock()
		lb.verdicts[key] = v
		lb.mu.Unlock()
	}
	s.ok, s.mismatch, s.decoded = v.ok, !v.ok, v.decoded
	return s
}

// check decodes a 2xx response body and compares it with the oracle entry
// of the level the server says it served, and for a preview also the
// advertised bound.
func check(rs reqSpec, key verdictKey, body []byte, orc oracle) verdict {
	sum := key.wireSum
	if key.encoding == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			return verdict{}
		}
		sum = sha256.Sum256(body)
	}
	v := verdict{decoded: len(body)}
	level := full
	if key.level != "full" {
		var err error
		if level, err = strconv.Atoi(key.level); err != nil {
			return v
		}
	}
	want, ok := orc[oracleKey{rs.mount, rs.field, rs.chunk, level}]
	if !ok || sum != want.sum {
		return v
	}
	if level != full {
		b, err := strconv.ParseFloat(key.levelBound, 64)
		if err != nil || !want.withinBound || math.Abs(b-want.bound) > 1e-9*want.bound {
			return v
		}
	}
	v.ok = true
	return v
}

// serverSnap is the server-side state read before and after a window.
type serverSnap struct {
	field, chunk, payload serve.CacheStats
	adm                   resilience.Stats
	stageSum              map[string]float64 // seconds
	stageCount            map[string]float64
}

func (lb *loopback) snapshot() (serverSnap, error) {
	s := serverSnap{field: lb.srv.FieldCacheStats(), chunk: lb.srv.ChunkCacheStats(),
		payload: lb.srv.PayloadCacheStats(), adm: lb.srv.AdmissionStats(),
		stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	resp, err := lb.admin.Get(lb.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for suffix, dst := range map[string]map[string]float64{"_sum": s.stageSum, "_count": s.stageCount} {
			rest, ok := strings.CutPrefix(line, "cfserve_stage_seconds"+suffix+`{stage="`)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err == nil {
				dst[stage] = v
			}
		}
	}
	return s, sc.Err()
}

var serveStages = []string{"cache_lookup", "payload_read", "anchor_decode", "chunk_decode", "field_decode"}

// leafStage marks the serve stages that contain no other stage.
var leafStage = map[string]bool{"payload_read": true, "chunk_decode": true, "field_decode": true}

// window summarizes the requests of one measured window.
type window struct {
	samples []sample
	lateMs  []float64
	elapsed time.Duration
	wire    int64
	before  serverSnap
	after   serverSnap
	watch   *runtimeWatch
}

// measure runs one measured window: it settles the heap left by set-up,
// snapshots the server, runs the load and snapshots the server again.
func measure(lb *loopback, run func(start time.Time) ([]sample, []float64)) (*window, error) {
	settleHeap()
	w := &window{}
	var err error
	if w.before, err = lb.snapshot(); err != nil {
		return nil, err
	}
	wire0 := lb.wire.Load()
	w.watch = startRuntimeWatch()
	start := time.Now()
	w.samples, w.lateMs = run(start)
	w.elapsed = time.Since(start)
	w.watch.end()
	w.wire = lb.wire.Load() - wire0
	if w.after, err = lb.snapshot(); err != nil {
		return nil, err
	}
	return w, nil
}

// report fills the serve end-to-end metrics and adds the window to the
// result's attempted and failed counts.
func (w *window) report(res *result) {
	var lat, preview []float64
	ok2xx := 0
	for _, s := range w.samples {
		res.attempted++
		if !s.ok {
			res.failed++
		}
		if s.mismatch {
			res.correct = false
		}
		if s.status/100 == 2 {
			ok2xx++
		}
		// A request that fails counts as missing any latency limit.
		l := s.latMs
		if !s.ok {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		if s.class == "preview" {
			preview = append(preview, l)
		}
	}
	e := res.e2e
	e.set("req_s", float64(ok2xx)/w.elapsed.Seconds(), "1/s")
	e.set("p50_ms", median(lat), "ms")
	e.set("p95_ms", quantile(lat, 0.95), "ms")
	e.set("preview_p50_ms", median(preview), "ms")
	e.set("success_rate", float64(res.attempted-res.failed)/float64(max(1, res.attempted)), "share")
	e.set("wire_kb_per_req", float64(w.wire)/1024/float64(max(1, ok2xx)), "KiB")
	e.set("peak_rss_mb", w.watch.peakRSSMB(), "MiB")
}

// okLatencies returns the latencies of the successful requests that were
// traced, or of those that were not.
func (w *window) okLatencies(traced bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.ok && s.traced == traced {
			out = append(out, s.latMs)
		}
	}
	return out
}

// layers fills the serve per-layer metrics of a traced window, in which
// every second block of requests was traced.
func (w *window) layers(cfg *runConfig, res *result, title string) {
	l := res.layers
	var decoded, ok2xx, traced float64
	for _, s := range w.samples {
		if s.status/100 == 2 {
			ok2xx++
			decoded += float64(s.decoded)
		}
		if s.traced {
			traced++
		}
	}
	lt := cfg.tr.table()
	for _, class := range []string{"field", "chunk", "preview"} {
		if r := lt.row("http.request." + class); r != nil {
			l.set("http.request."+class+"_ms", r.TotalMs/float64(r.Count), "ms")
		}
	}
	var rootMs, rootN float64
	for _, r := range lt.rows {
		if strings.HasPrefix(r.Name, "http.request.") {
			rootMs += r.TotalMs
			rootN += float64(r.Count)
		}
	}
	if h := lt.row("serve.handler"); h != nil && rootN > 0 {
		l.set("serve.handler_ms", h.TotalMs/float64(h.Count), "ms")
		l.set("http.client_overhead_ms", (rootMs-h.TotalMs)/rootN, "ms")
	}
	n := float64(len(w.samples))
	// The stage histograms cover every request of the window, the handler
	// spans only the traced ones, so the handler is charged the traced
	// share of each stage.
	share := traced / max(1, n)
	for _, st := range serveStages {
		sum := w.after.stageSum[st] - w.before.stageSum[st]
		cnt := w.after.stageCount[st] - w.before.stageCount[st]
		l.set("serve.stage."+st+"_ms", 1e3*sum/n, "ms")
		// The server's stages nest: cache_lookup wraps a miss's whole
		// decode and anchor_decode wraps the anchors' lookups. Only the
		// leaves are disjoint, so only they are charged to the handler.
		if leafStage[st] {
			lt.addChild("serve.handler", "serve.stage."+st, int(math.Round(cnt*share)), 1e3*sum*share)
		}
	}
	lt.markContainer("serve.handler")
	res.notes = append(res.notes, lt.format(title))
	l.set("trace.unattributed_pct", pct(lt.unattributedMs(), lt.wallMs), "%")
	l.set("trace.overhead_pct", 100*(median(w.okLatencies(true))/median(w.okLatencies(false))-1), "%")
	l.set("trace.spans", float64(len(cfg.tr.spans)), "count")
	cache := func(name string, a, b serve.CacheStats) {
		d := serve.CacheStats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
			Coalesced: b.Coalesced - a.Coalesced, Evictions: b.Evictions - a.Evictions}
		l.set("serve."+name+".hit_ratio", d.HitRatio(), "share")
		l.set("serve."+name+".misses", float64(d.Misses), "count")
		l.set("serve."+name+".coalesced", float64(d.Coalesced), "count")
		l.set("serve."+name+".evictions", float64(d.Evictions), "count")
	}
	cache("field_cache", w.before.field, w.after.field)
	cache("chunk_cache", w.before.chunk, w.after.chunk)
	cache("payload_cache", w.before.payload, w.after.payload)
	l.set("resilience.admission.admitted", float64(w.after.adm.Admitted-w.before.adm.Admitted), "count")
	l.set("resilience.admission.waited", float64(w.after.adm.Waited-w.before.adm.Waited), "count")
	l.set("resilience.admission.shed", float64(w.after.adm.Shed-w.before.adm.Shed), "count")
	l.set("resilience.admission.high_water_mb", float64(w.after.adm.HighWaterBytes)/mib, "MiB")
	if ok2xx > 0 {
		l.set("serve.wire_bytes", float64(w.wire)/ok2xx, "B")
		l.set("serve.decoded_bytes", decoded/ok2xx, "B")
	}
	if len(w.lateMs) > 0 {
		l.set("loadgen.late_ms", quantile(w.lateMs, 0.95), "ms")
	}
}

// fmtEB renders an error bound for a ?eb= query.
func fmtEB(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }
