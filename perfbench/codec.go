package main

import (
	"crypto/sha256"
	"runtime"
	"time"

	crossfield "repro"
)

// Sizes and settings shared by the workloads. The codec snapshot is the
// paper's Hurricane case at the repository's default grid; the serve
// workloads use a smaller grid so that one run holds enough requests for
// a p95 with at least ten samples beyond it.
var (
	codecDims = [3]int{24, 128, 128}
	serveDims = [3]int{16, 64, 64}
	bound     = crossfield.Rel(1e-3)
)

// setupRepeats is how many times each run repeats its set-up; setup_s is
// the median.
const setupRepeats = 4

// training is the CFNN budget every workload uses: small enough that
// set-up can be repeated, large enough that Wf is a real hybrid.
func training(seed uint64) crossfield.Training {
	return crossfield.Training{Epochs: 2, StepsPerEpoch: 8, Seed: int64(seed)}
}

// snapshot is one generated Hurricane snapshot: the anchors Uf, Vf, Pf and
// the CFNN target Wf.
type snapshot struct {
	fields []*crossfield.Field // Uf, Vf, Pf, Wf
	bytes  int
}

func generate(dims [3]int, seed uint64) (*snapshot, error) {
	ds, err := crossfield.GenerateHurricane(dims[0], dims[1], dims[2], int64(seed))
	if err != nil {
		return nil, err
	}
	fs, err := ds.Fieldset("Uf", "Vf", "Pf", "Wf")
	if err != nil {
		return nil, err
	}
	sn := &snapshot{fields: fs}
	for _, f := range fs {
		sn.bytes += 4 * f.Len()
	}
	return sn, nil
}

func (sn *snapshot) field(name string) *crossfield.Field {
	for _, f := range sn.fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func (sn *snapshot) train(seed uint64) (*crossfield.Codec, error) {
	return crossfield.Train(sn.field("Wf"), sn.fields[:3], training(seed))
}

// specs makes Uf, Vf, Pf baseline anchors and Wf the CFNN hybrid over them.
func (sn *snapshot) specs(c *crossfield.Codec) []crossfield.FieldSpec {
	return []crossfield.FieldSpec{{Field: sn.fields[0]}, {Field: sn.fields[1]}, {Field: sn.fields[2]}, {Field: sn.fields[3], Codec: c}}
}

// quarterSlabs is the WithChunks size that cuts a field into four z slabs.
func quarterSlabs(dims [3]int) int { return dims[0] / 4 * dims[1] * dims[2] }

type codecRep struct {
	packMs, unpackMs, firstMs, totalMs float64
	ok                                 bool
	traced                             bool
	stages                             map[string]float64 // busy ms per stage, traced reps only
	packUnattributedMs                 float64
	blobSum                            [32]byte
}

func runCodec(cfg *runConfig) (*result, error) {
	var (
		sn        *snapshot
		codec     *crossfield.Codec
		setupSecs []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := generate(codecDims, cfg.seed)
		if err != nil {
			return nil, err
		}
		c, err := s.train(cfg.seed)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		sn, codec = s, c
	}
	specs := sn.specs(codec)
	opts := []crossfield.Option{crossfield.WithChunks(quarterSlabs(codecDims))}

	// Oracle: the first round trip's archive. Every later rep must
	// reproduce it byte for byte, and every field must meet its bound.
	first, err := crossfield.CompressDataset(specs, bound, opts...)
	if err != nil {
		return nil, err
	}
	wantSum := sha256.Sum256(first.Blob)

	// A traced run traces every second rep; the traced and untraced reps
	// give the tracing overhead.
	settleHeap()
	watch := startRuntimeWatch()
	var reps []codecRep
	start := time.Now()
	for time.Since(start) < cfg.window() || len(reps) < 3 {
		traced := cfg.trace && len(reps)%2 == 1
		// Every rep starts from a collected heap, so that where the GC
		// cycles fall within a rep does not differ from run to run.
		runtime.GC()
		rep, err := codecRoundTrip(cfg, sn, specs, opts, traced)
		if err != nil {
			return nil, err
		}
		rep.ok = rep.ok && rep.blobSum == wantSum
		reps = append(reps, *rep)
	}
	watch.end()

	res := &result{attempted: len(reps), e2e: metrics{}, layers: zeroLayers()}
	var pack, unpack, firstField, total []float64
	var totalSum float64
	for _, r := range reps {
		if !r.ok {
			res.failed++
		}
		pack = append(pack, r.packMs)
		unpack = append(unpack, r.unpackMs)
		firstField = append(firstField, r.firstMs)
		total = append(total, r.totalMs)
		totalSum += r.totalMs
	}
	res.correct = res.failed == 0
	inMiB := float64(sn.bytes) / mib
	e := res.e2e
	e.set("setup_s", median(setupSecs), "s")
	e.set("pack_mb_s", inMiB/(median(pack)/1e3), "MiB/s")
	e.set("unpack_mb_s", inMiB/(median(unpack)/1e3), "MiB/s")
	e.set("ratio", float64(sn.bytes)/float64(len(first.Blob)), "x")
	e.set("req_s", float64(len(reps))/(totalSum/1e3), "1/s")
	e.set("p50_ms", median(total), "ms")
	e.set("p95_ms", quantile(total, 0.95), "ms")
	e.set("preview_p50_ms", median(firstField), "ms")
	e.set("success_rate", float64(len(reps)-res.failed)/float64(len(reps)), "share")
	e.set("wire_kb_per_req", float64(len(first.Blob))/1024/float64(len(specs)), "KiB")
	e.set("peak_rss_mb", watch.peakRSSMB(), "MiB")

	if cfg.trace {
		if err := codecLayers(cfg, res, reps, first.Blob, watch); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// codecRoundTrip runs one rep: CompressDataset, OpenArchive, Field for
// every field in dependency order, then Verify of every field.
func codecRoundTrip(cfg *runConfig, sn *snapshot, specs []crossfield.FieldSpec, opts []crossfield.Option, traced bool) (*codecRep, error) {
	tr := cfg.tr
	if !traced {
		tr = nil
	}
	trace := tr.newTrace()
	out := &codecRep{traced: traced, ok: true}
	var tm crossfield.DatasetTimings
	if traced {
		opts = append(append([]crossfield.Option(nil), opts...), crossfield.WithStageTimings(&tm))
	}
	t0 := time.Now()
	root := tr.start(trace, 0, "codec.round_trip")
	sp := tr.start(trace, root, "crossfield.pack")
	arch, err := crossfield.CompressDataset(specs, bound, opts...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sp = tr.start(trace, root, "crossfield.open")
	ar, err := crossfield.OpenArchive(arch.Blob)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	recon := make(map[string]*crossfield.Field)
	for k, name := range ar.TopoNames() {
		sp = tr.start(trace, root, "crossfield.field")
		f, err := ar.Field(name)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			out.firstMs = ms(time.Since(t1))
		}
		recon[name] = f
	}
	t2 := time.Now()
	for _, info := range ar.Manifest() {
		sp = tr.start(trace, root, "crossfield.verify")
		_, ok, err := crossfield.Verify(sn.field(info.Name), recon[info.Name], info.AbsEB)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.ok = out.ok && ok
	}
	tr.end(root)
	t3 := time.Now()
	out.packMs, out.unpackMs, out.totalMs = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t0))
	out.blobSum = sha256.Sum256(arch.Blob)
	if len(ar.Fields()) != len(sn.fields) {
		out.ok = false
	}
	if traced {
		out.stages, out.packUnattributedMs = stageBusy(&tm, out.packMs)
	}
	return out, nil
}

// stageBusy sums each compression stage's busy time over every field and
// returns it with the pack wall time no stage covers.
func stageBusy(tm *crossfield.DatasetTimings, packMs float64) (map[string]float64, float64) {
	busy := make(map[string]float64)
	var sum float64
	for _, f := range tm.Fields {
		for _, s := range f.Stages {
			v := s.Seconds() * 1e3
			busy[s.Stage] += v
			sum += v
		}
	}
	return busy, packMs - sum
}

// codecLayers derives the per-layer metrics of a traced codec run.
func codecLayers(cfg *runConfig, res *result, reps []codecRep, blob []byte, watch *runtimeWatch) error {
	l := res.layers
	var tracedLat, plainLat, unattributed []float64
	stages := make(map[string][]float64)
	for _, r := range reps {
		if !r.traced {
			plainLat = append(plainLat, r.totalMs)
			continue
		}
		tracedLat = append(tracedLat, r.totalMs)
		unattributed = append(unattributed, r.packUnattributedMs)
		for _, st := range compressStages {
			stages[st] = append(stages[st], r.stages[st])
		}
	}
	for _, st := range compressStages {
		l.set("core.compress."+st+"_ms", mean(stages[st]), "ms")
	}
	l.set("crossfield.pack.unattributed_ms", mean(unattributed), "ms")

	lt := cfg.tr.table()
	for _, st := range compressStages {
		lt.addChild("crossfield.pack", "core.compress."+st, len(stages[st]), mean(stages[st])*float64(len(stages[st])))
	}
	lt.markContainer("codec.round_trip", "crossfield.pack")
	res.notes = append(res.notes, lt.format("codec"))
	l.set("trace.unattributed_pct", pct(lt.unattributedMs(), lt.wallMs), "%")
	l.set("trace.overhead_pct", 100*(median(tracedLat)/median(plainLat)-1), "%")
	l.set("trace.spans", float64(len(cfg.tr.spans)), "count")
	watch.report(l)

	dl, err := decodeLayersMedian(func() (decodeSample, error) {
		return decodeLayers([][]byte{blob})
	})
	if err != nil {
		return err
	}
	dl.report(l)
	return nil
}

// compressStages are the stage names WithStageTimings reports.
var compressStages = []string{"inference", "quantize", "predict", "huffman", "flate"}
