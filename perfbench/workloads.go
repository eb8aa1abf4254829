package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	crossfield "repro"
	"repro/internal/serve"
)

// Request mixes, as class weights per block of 20 requests. The shares
// were chosen for quantile stability, not taken from observed traffic:
// each puts p50 and p95 inside one kind of request rather than on the
// boundary between two. In serve-hot p50 falls among chunks and p95 among
// whole fields; in serve-cold p50 falls among the Wf chunk decodes (full
// and preview, 60% of the requests, with the anchor fields below them)
// and p95 among the whole-field decodes of Wf (10%), which also decode
// its anchors.
var (
	hotWeights  = []int{13, 4, 3}   // chunk, field, preview
	coldWeights = []int{8, 6, 3, 3} // field, Wf chunk, Wf chunk ?level=0, Wf chunk ?eb=
)

const (
	// coldRate is serve-cold's fixed open-loop arrival rate, in requests
	// per second: about 30% of the closed-loop capacity that `perfbench
	// capacity` measured for serve-cold's configuration and mix on a
	// 2-vCPU Xeon virtual machine (41 to 47 requests/s; see README.md).
	// Half the capacity is too close to saturation for a host slowed by
	// its neighbours: p95_ms then spreads past its bound from run to run.
	// At 30% the queue still forms but stays short. It never adapts to
	// the host.
	coldRate = 13
	// coldSnapshots is how many archives serve-cold mounts.
	coldSnapshots = 4
	coldWarm      = 2 * time.Second
	// hotRounds and coldRounds are how many pack-and-unpack rounds each
	// serve workload times, half after set-up and half after the measured
	// window, so that a short slow spell of the host falls on only some of
	// them; pack_mb_s and unpack_mb_s are the medians of the rounds.
	hotRounds  = 12
	coldRounds = 6
)

// coldConfig sizes serve-cold's caches well below its decoded working
// set (four snapshots of four fields: 4 MiB of floats, which the server
// holds twice).
var coldConfig = serve.Config{
	FieldCacheBytes:   1536 << 10,
	ChunkCacheBytes:   512 << 10,
	PayloadCacheBytes: 128 << 10,
}

// packStats times one CompressDataset call and, when timings are on,
// records its stage busy time.
type packStats struct {
	secs, inBytes, outBytes float64
	stages                  map[string]float64
	unattributedMs          float64
}

func pack(sn *snapshot, codec *crossfield.Codec, timed bool, extra ...crossfield.Option) (*crossfield.CompressedDataset, packStats, error) {
	var tm crossfield.DatasetTimings
	opts := append([]crossfield.Option{crossfield.WithChunks(quarterSlabs(serveDims))}, extra...)
	if timed {
		opts = append(opts, crossfield.WithStageTimings(&tm))
	}
	t0 := time.Now()
	arch, err := crossfield.CompressDataset(sn.specs(codec), bound, opts...)
	if err != nil {
		return nil, packStats{}, err
	}
	ps := packStats{secs: time.Since(t0).Seconds(), inBytes: float64(sn.bytes), outBytes: float64(len(arch.Blob))}
	if timed {
		ps.stages, ps.unattributedMs = stageBusy(&tm, ps.secs*1e3)
	}
	return arch, ps, nil
}

// setupTimes collects the set-up and codec timings of a serve workload.
type setupTimes struct {
	setup      []float64 // seconds per set-up
	roundMiB   float64   // input MiB of one pack round
	packSecs   []float64 // seconds per pack round
	unpackSecs []float64 // seconds per unpack round
	ratio      float64
	last       []packStats // the last set-up's packs
}

func (st *setupTimes) report(res *result) {
	e := res.e2e
	e.set("setup_s", median(st.setup), "s")
	e.set("pack_mb_s", st.roundMiB/median(st.packSecs), "MiB/s")
	e.set("unpack_mb_s", st.roundMiB/median(st.unpackSecs), "MiB/s")
	e.set("ratio", st.ratio, "x")
}

// reportStages adds the compression stages of the last set-up.
func (st *setupTimes) reportStages(l metrics) {
	sums := map[string]float64{}
	var un float64
	for _, p := range st.last {
		for k, v := range p.stages {
			sums[k] += v
		}
		un += p.unattributedMs
	}
	for _, s := range compressStages {
		l.set("core.compress."+s+"_ms", sums[s], "ms")
	}
	l.set("crossfield.pack.unattributed_ms", un, "ms")
}

// timeRounds times n pack-and-unpack rounds. A round packs every snapshot
// (snapshot k with the options opts(k)), then opens each archive and
// decodes every field. Like a codec rep, each pack and each unpack starts
// from a collected heap. The archives of a round differ in format, so a
// round, not a single pack, is the unit whose median is reported.
func (st *setupTimes) timeRounds(n int, snaps []*snapshot, codec *crossfield.Codec, opts func(k int) []crossfield.Option) error {
	st.roundMiB = 0
	for _, s := range snaps {
		st.roundMiB += float64(s.bytes) / mib
	}
	for r := 0; r < n; r++ {
		blobs := make([][]byte, len(snaps))
		var secs float64
		for k, s := range snaps {
			runtime.GC()
			arch, ps, err := pack(s, codec, false, opts(k)...)
			if err != nil {
				return err
			}
			blobs[k] = arch.Blob
			secs += ps.secs
		}
		st.packSecs = append(st.packSecs, secs)
		secs = 0
		for _, b := range blobs {
			runtime.GC()
			t0 := time.Now()
			if _, err := openAndDecode(b); err != nil {
				return err
			}
			secs += time.Since(t0).Seconds()
		}
		st.unpackSecs = append(st.unpackSecs, secs)
	}
	return nil
}

// openAndDecode opens an archive and decodes every field.
func openAndDecode(blob []byte) (*crossfield.Archive, error) {
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		return nil, err
	}
	for _, n := range ar.TopoNames() {
		if _, err := ar.Field(n); err != nil {
			return nil, err
		}
	}
	return ar, nil
}

// runServeHot serves one plain chunked archive from warmed caches to a
// closed loop of two clients that accept gzip.
func runServeHot(cfg *runConfig) (*result, error) {
	var (
		st    setupTimes
		srv   *serve.Server
		sn    *snapshot
		codec *crossfield.Codec
		blob  []byte
	)
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := generate(serveDims, cfg.seed)
		if err != nil {
			return nil, err
		}
		c, err := s.train(cfg.seed)
		if err != nil {
			return nil, err
		}
		arch, ps, err := pack(s, c, cfg.trace && i == setupRepeats-1)
		if err != nil {
			return nil, err
		}
		srv = serve.New(serve.Config{})
		if err := srv.Mount("hur", arch.Blob); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.ratio = ps.inBytes / ps.outBytes
		st.last = []packStats{ps}
		sn, codec, blob = s, c, arch.Blob
	}
	defer srv.Close()
	plainOpts := func(int) []crossfield.Option { return nil }
	if err := st.timeRounds(hotRounds/2, []*snapshot{sn}, codec, plainOpts); err != nil {
		return nil, err
	}
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		return nil, err
	}

	orc := oracle{}
	classes := make([][]reqSpec, 3)
	for _, f := range sn.fields {
		if err := orc.addField("hur", ar, f.Name, true); err != nil {
			return nil, err
		}
		payload, err := ar.FieldPayload(f.Name)
		if err != nil {
			return nil, err
		}
		n, err := crossfield.ChunkCount(payload)
		if err != nil {
			return nil, err
		}
		for ci := 0; ci < n; ci++ {
			classes[0] = append(classes[0], reqSpec{mount: "hur", field: f.Name, chunk: ci, class: "chunk"})
		}
		classes[1] = append(classes[1], reqSpec{mount: "hur", field: f.Name, chunk: -1, class: "field"})
		info, _ := ar.FieldInfoFor(f.Name)
		classes[2] = append(classes[2],
			reqSpec{mount: "hur", field: f.Name, chunk: -1, query: "level=0", class: "preview"},
			reqSpec{mount: "hur", field: f.Name, chunk: -1, query: "eb=" + fmtEB(4*info.AbsEB), class: "preview"})
	}

	lb, err := startLoopback(srv, cfg.tr)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	// Warm-up: every field and chunk once, so no timed request decodes.
	for _, k := range append(append([]reqSpec(nil), classes[0]...), classes[1]...) {
		if s := lb.do(k, "gzip", orc, nil, time.Now()); !s.ok {
			return nil, fmt.Errorf("serve-hot warm-up %s: status %d mismatch %v", k.path(), s.status, s.mismatch)
		}
	}
	newMix := func(c int) *mixer {
		return newMixer(rand.New(rand.NewPCG(cfg.seed, uint64(c)+1)), hotWeights, classes)
	}
	w, err := measure(lb, closedLoop(lb, orc, 2, cfg.window(), "gzip", newMix, cfg.tr))
	if err != nil {
		return nil, err
	}
	if err := st.timeRounds(hotRounds-hotRounds/2, []*snapshot{sn}, codec, plainOpts); err != nil {
		return nil, err
	}
	return serveResult(cfg, "serve-hot", w, &st, [][]byte{blob})
}

// window is the measured time of a run.
func (cfg *runConfig) window() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// closedLoop returns a load of clients that each send their next request
// as soon as the body of the last one has been read, for d. Each client
// draws from its own mixer; with a tracer, every second pass through
// each class of the mix is traced.
func closedLoop(lb *loopback, orc oracle, clients int, d time.Duration, encoding string, newMix func(c int) *mixer, tr *tracer) func(time.Time) ([]sample, []float64) {
	return func(start time.Time) ([]sample, []float64) {
		per := make([][]sample, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				mix := newMix(c)
				for time.Since(start) < d {
					rs, t := mix.pick(tr)
					per[c] = append(per[c], lb.do(rs, encoding, orc, t, time.Now()))
				}
			}(c)
		}
		wg.Wait()
		var all []sample
		for _, p := range per {
			all = append(all, p...)
		}
		return all, nil
	}
}

// serveResult assembles a serve workload's result.
func serveResult(cfg *runConfig, title string, w *window, st *setupTimes, blobs [][]byte) (*result, error) {
	res := &result{correct: true, e2e: metrics{}, layers: zeroLayers()}
	st.report(res)
	w.report(res)
	if !cfg.trace {
		return res, nil
	}
	w.layers(cfg, res, title)
	st.reportStages(res.layers)
	w.watch.report(res.layers)
	dl, err := decodeLayersMedian(func() (decodeSample, error) { return decodeLayers(blobs) })
	if err != nil {
		return nil, err
	}
	dl.report(res.layers)
	return res, nil
}

// coldArchive is one mounted serve-cold snapshot.
type coldArchive struct {
	mount       string
	sn          *snapshot
	blob        []byte
	ar          *crossfield.Archive
	progressive bool
	chunks      int
}

// coldOptions is the format of serve-cold's snapshot k: even snapshots
// are progressive, odd ones block-coded.
func coldOptions(k int) []crossfield.Option {
	if k%2 == 1 {
		return []crossfield.Option{crossfield.WithDecodeBlocks(0)}
	}
	return []crossfield.Option{crossfield.WithProgressive(3)}
}

// setupServeCold sets serve-cold up repeats times and returns the last
// set-up's server and archives and the CFNN codec: generation of every
// snapshot, training on snapshot 0, packing each snapshot to a file and
// mounting it.
func setupServeCold(cfg *runConfig, st *setupTimes, repeats int) (*serve.Server, []*coldArchive, *crossfield.Codec, error) {
	var (
		srv   *serve.Server
		arcs  []*coldArchive
		codec *crossfield.Codec
	)
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.Close()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var snaps []*snapshot
		for k := 0; k < coldSnapshots; k++ {
			s, err := generate(serveDims, cfg.seed*coldSnapshots+uint64(k))
			if err != nil {
				return nil, nil, nil, err
			}
			snaps = append(snaps, s)
		}
		// One CFNN, trained on snapshot 0, serves every snapshot.
		c, err := snaps[0].train(cfg.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		srv = serve.New(coldConfig)
		var inBytes, outBytes float64
		arcs, codec, st.last = nil, c, nil
		for k, s := range snaps {
			arch, ps, err := pack(s, codec, cfg.trace && i == repeats-1, coldOptions(k)...)
			if err != nil {
				return nil, nil, nil, err
			}
			inBytes += ps.inBytes
			outBytes += ps.outBytes
			st.last = append(st.last, ps)
			path := filepath.Join(dir, fmt.Sprintf("snap%d.cfc", k))
			if err := os.WriteFile(path, arch.Blob, 0o644); err != nil {
				return nil, nil, nil, err
			}
			name := fmt.Sprintf("s%d", k)
			if err := srv.MountFile(name, path); err != nil {
				return nil, nil, nil, err
			}
			arcs = append(arcs, &coldArchive{mount: name, sn: s, blob: arch.Blob, progressive: k%2 == 0})
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.ratio = inBytes / outBytes
	}
	for _, a := range arcs {
		var err error
		if a.ar, err = crossfield.OpenArchive(a.blob); err != nil {
			srv.Close()
			return nil, nil, nil, err
		}
	}
	return srv, arcs, codec, nil
}

// coldMix builds serve-cold's oracle and its request classes: whole
// fields, Wf chunks, and ?level=0 and ?eb= previews of the Wf chunks of
// the progressive archives.
func coldMix(arcs []*coldArchive) (oracle, [][]reqSpec, error) {
	orc := oracle{}
	classes := make([][]reqSpec, 4)
	for _, a := range arcs {
		ebQuery, err := a.buildOracle(orc)
		if err != nil {
			return nil, nil, fmt.Errorf("serve-cold oracle %s: %w", a.mount, err)
		}
		for _, f := range a.sn.fields {
			classes[0] = append(classes[0], reqSpec{mount: a.mount, field: f.Name, chunk: -1, class: "field"})
		}
		for ci := 0; ci < a.chunks; ci++ {
			classes[1] = append(classes[1], reqSpec{mount: a.mount, field: "Wf", chunk: ci, class: "chunk"})
			if a.progressive {
				classes[2] = append(classes[2], reqSpec{mount: a.mount, field: "Wf", chunk: ci, query: "level=0", class: "preview"})
				classes[3] = append(classes[3], reqSpec{mount: a.mount, field: "Wf", chunk: ci, query: "eb=" + ebQuery, class: "preview"})
			}
		}
	}
	return orc, classes, nil
}

// runServeCold mounts several file-backed snapshots, half progressive and
// half block-coded, behind caches far smaller than their decoded size, and
// drives them with an open loop at a fixed rate.
func runServeCold(cfg *runConfig) (*result, error) {
	var st setupTimes
	srv, arcs, codec, err := setupServeCold(cfg, &st, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	snaps := make([]*snapshot, len(arcs))
	for k, a := range arcs {
		snaps[k] = a.sn
	}
	if err := st.timeRounds(coldRounds/2, snaps, codec, coldOptions); err != nil {
		return nil, err
	}
	orc, classes, err := coldMix(arcs)
	if err != nil {
		return nil, err
	}

	lb, err := startLoopback(srv, cfg.tr)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	mix := newMixer(rand.New(rand.NewPCG(cfg.seed, 99)), coldWeights, classes)
	openLoop(lb, orc, mix, nil, coldWarm)
	w, err := measure(lb, func(time.Time) ([]sample, []float64) { return openLoop(lb, orc, mix, cfg.tr, cfg.window()) })
	if err != nil {
		return nil, err
	}
	var blobs [][]byte
	for _, a := range arcs {
		blobs = append(blobs, a.blob)
	}
	if err := st.timeRounds(coldRounds-coldRounds/2, snaps, codec, coldOptions); err != nil {
		return nil, err
	}
	return serveResult(cfg, "serve-cold", w, &st, blobs)
}

// buildOracle decodes every representation serve-cold can request from
// this archive: every field at full fidelity, and every Wf chunk at full
// fidelity and, on a progressive archive, at each preview level. It
// returns an ?eb= query that a progressive Wf chunk answers at level 1.
func (a *coldArchive) buildOracle(orc oracle) (string, error) {
	for _, f := range a.sn.fields {
		if err := orc.addField(a.mount, a.ar, f.Name, f.Name == "Wf"); err != nil {
			return "", err
		}
	}
	payload, anchors, err := payloadAndAnchors(a.ar, "Wf")
	if err != nil {
		return "", err
	}
	if a.chunks, err = crossfield.ChunkCount(payload); err != nil {
		return "", err
	}
	if !a.progressive {
		return "", nil
	}
	info, _ := a.ar.FieldInfoFor("Wf")
	spec, err := a.ar.FieldLevels("Wf")
	if err != nil {
		return "", err
	}
	orig := a.sn.field("Wf")
	slab := info.Dims[1] * info.Dims[2]
	for ci := 0; ci < a.chunks; ci++ {
		for l := 0; l < spec.Levels-1; l++ {
			got, start, _, err := crossfield.DecompressChunkAtLevel("Wf", payload, ci, l, anchors)
			if err != nil {
				return "", err
			}
			want, err := crossfield.NewField("Wf", orig.Data()[start*slab:start*slab+got.Len()], got.Dims()...)
			if err != nil {
				return "", err
			}
			if err := orc.addPreview(oracleKey{a.mount, "Wf", ci, l}, got, want, spec.Bound(l, info.AbsEB)); err != nil {
				return "", err
			}
		}
	}
	return fmtEB(1.01 * spec.Bound(1, info.AbsEB)), nil
}

// maxOutstanding caps the requests an open loop keeps in flight; a
// schedule that would exceed it counts the request as failed instead of
// growing without bound.
const maxOutstanding = 256

// openLoop sends requests at coldRate for d, each at its due time whatever
// earlier requests are doing, and waits for the last to finish. Latency
// is measured from the due time; lateness is how far behind its schedule
// the generator sent each request. With a tracer, every second pass
// through each class of the mix is traced.
func openLoop(lb *loopback, orc oracle, mix *mixer, tr *tracer, d time.Duration) (samples []sample, lateMs []float64) {
	interval := time.Second / coldRate
	n := int(d / interval)
	samples = make([]sample, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)
	start := time.Now()
	for i := 0; i < n; i++ {
		rs, t := mix.pick(tr)
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lateMs = append(lateMs, ms(time.Since(due)))
		select {
		case sem <- struct{}{}:
		default:
			samples[i] = sample{class: rs.class, latMs: ms(time.Since(due)), traced: t != nil}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			samples[i] = lb.do(rs, "identity", orc, t, due)
		}(i)
	}
	wg.Wait()
	return samples, lateMs
}
