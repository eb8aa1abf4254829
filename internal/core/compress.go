package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Compress compresses field into w: a monolithic CFC1 payload when
// opts.ChunkVoxels is 0, a random-access CFC2 container of ~ChunkVoxels
// values per chunk when it is positive. A nil model selects the Lorenzo
// baseline (anchors ignored); a trained model selects the hybrid
// cross-field pipeline (or opts.Method's cross-only ablation), with
// anchors being the *decompressed* anchor fields, so the decompressor,
// given the same anchors, reproduces the predictions bit for bit.
//
// Every field takes one path. The error bound and the layer plan are
// resolved once over the full field, so every point, chunk seams
// included, honors the same absolute bound. The field is planned as a
// grid of slabs along its slowest axis (a monolithic field is a one-chunk
// grid), one segmented CFNN pass covers every chunk, and the chunks
// compress on a bounded worker pool: dual quantization leaves no
// read-after-write hazard between chunks, which makes every chunk
// independently decodable. Only the compressed payloads are ever resident,
// never a second copy of the raw field.
func Compress(w io.Writer, field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts Options) (*Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	// Resolve the layer plan once so every chunk shares identical layer
	// geometry (and bad progressive options fail before any work).
	if err := opts.resolveProg(); err != nil {
		return nil, err
	}
	method := opts.Method
	if model == nil {
		if method != container.MethodBaseline {
			return nil, fmt.Errorf("core: method %v needs a CFNN model", method)
		}
	} else {
		if method == container.MethodBaseline {
			method = container.MethodHybrid
		}
		if field.Rank() != 2 && field.Rank() != 3 {
			return nil, fmt.Errorf("core: cross-field compression needs rank 2 or 3, got %d", field.Rank())
		}
		if len(anchors) == 0 {
			return nil, fmt.Errorf("core: cross-field compression needs anchors")
		}
		for i, a := range anchors {
			if !a.SameShape(field) {
				return nil, fmt.Errorf("core: anchor %d shape %v != field shape %v", i, a.Shape(), field.Shape())
			}
		}
	}
	eb, err := resolveEB(field, opts.Bound)
	if err != nil {
		return nil, err
	}
	mono := opts.ChunkVoxels == 0
	voxels := opts.ChunkVoxels
	if mono {
		voxels = field.Len()
	}
	g, err := chunk.Plan(field.Shape(), voxels)
	if err != nil {
		return nil, err
	}
	var modelBlob []byte
	if model != nil {
		var mb bytes.Buffer
		if err := model.Save(&mb); err != nil {
			return nil, err
		}
		modelBlob = mb.Bytes()
	}
	// A monolithic payload carries the model and the anchor names itself;
	// a CFC2 container stores them once in its header instead. The arena
	// is scratch for the single shared inference pass below, never for the
	// concurrent chunk workers.
	payloadOpts, payloadModel := opts, modelBlob
	payloadOpts.Arena = nil
	if !mono {
		payloadOpts.AnchorNames, payloadModel = nil, nil
	}
	// Shared-inference stage: one segmented CFNN pass over the full anchor
	// set (segment = chunk slab, so every chunk's predictions are
	// bit-identical to per-chunk inference) replaces N per-chunk passes on
	// N model clones. Workers below receive read-only slab views.
	var inf *fieldInference
	if model != nil {
		endInfer := opts.Stages.Timer("inference")
		inf, err = newFieldInference(model, anchors, eb, g, opts.Arena, opts.workers())
		endInfer()
		if err != nil {
			return nil, err
		}
	}
	n := g.NumChunks()
	payloads := make([][]byte, n)
	chunkStats := make([]Stats, n)
	err = parallel.ForErr(opts.workers(), n, func(i int) error {
		sub, err := g.View(field, i)
		if err != nil {
			return err
		}
		var dq [][]float64
		if inf != nil {
			dq = inf.chunkDQ(i)
		}
		res, err := compressPayload(sub, dq, payloadModel, method, eb, payloadOpts)
		if err != nil {
			if mono {
				return err
			}
			return fmt.Errorf("core: chunk %d: %w", i, err)
		}
		payloads[i] = res.Blob
		chunkStats[i] = res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	if mono {
		if _, err := w.Write(payloads[0]); err != nil {
			return nil, err
		}
		return &chunkStats[0], nil
	}
	st := aggregateChunkStats(chunkStats, method, eb, len(modelBlob))
	hdr := &chunk.Header{
		Method:     method,
		BoundMode:  byte(opts.Bound.Mode),
		BoundValue: opts.Bound.Value,
		AbsEB:      eb,
		Dims:       append([]int(nil), field.Shape()...),
		Anchors:    append([]string(nil), opts.AnchorNames...),
		Model:      modelBlob,
		Blocks:     st.BlockMode != 0,
		Layered:    opts.prog != nil,
	}
	maxErrs := make([]float64, n)
	for i, cs := range chunkStats {
		maxErrs[i] = cs.MaxErr
	}
	total, err := chunk.EncodeTo(w, hdr, g, payloads, maxErrs)
	if err != nil {
		return nil, err
	}
	st.setCompressedBytes(total)
	return &st, nil
}

// aggregateChunkStats folds per-chunk stats into one field-level Stats
// (compressed size still unset). The field is block-coded when any chunk
// is, and block-independent only when every chunk is.
func aggregateChunkStats(chunkStats []Stats, method container.Method, eb float64, modelBytes int) Stats {
	st := Stats{Method: method, ModelBytes: modelBytes, AbsEB: eb, BlockMode: container.BlockIndependent}
	var entropy float64
	blocked := false
	for _, cs := range chunkStats {
		st.OriginalBytes += cs.OriginalBytes
		st.TableBytes += cs.TableBytes
		st.PayloadBytes += cs.PayloadBytes
		entropy += cs.CodeEntropy * float64(cs.OriginalBytes)
		if cs.MaxErr > st.MaxErr {
			st.MaxErr = cs.MaxErr
		}
		blocked = blocked || cs.BlockMode != 0
		if cs.BlockMode != container.BlockIndependent {
			st.BlockMode = container.BlockWavefront
		}
	}
	if !blocked {
		st.BlockMode = 0
	}
	if st.OriginalBytes > 0 {
		st.CodeEntropy = entropy / float64(st.OriginalBytes)
	}
	return st
}

// setCompressedBytes records the compressed size and the ratio and bit
// rate that follow from it.
func (st *Stats) setCompressedBytes(n int) {
	st.CompressedBytes = n
	st.Ratio = metrics.CompressionRatio(st.OriginalBytes, n)
	st.BitRate = metrics.BitRate(st.OriginalBytes/4, n)
}

// compressPayload compresses one payload (a whole field, or one chunk of
// a chunked field) into a CFC1 blob: prequantize once, predict residual
// codes, entropy-code them (block-major when opts.Blocks applies, as a
// base layer plus refinement bit planes when opts is layered), run the
// lossless backend, and frame the result. dq holds the CFNN difference
// predictions covering exactly this payload in prequant units (nil for
// the baseline); modelBlob, when non-nil, embeds the CFNN weights.
func compressPayload(field *tensor.Tensor, dq [][]float64, modelBlob []byte, method container.Method, eb float64, opts Options) (*Result, error) {
	endQuant := opts.Stages.Timer("quantize")
	q, err := quant.Prequantize(field.Data(), eb)
	endQuant()
	if err != nil {
		return nil, err
	}
	dims := field.Shape()
	// A layered payload predicts its base layer qb = q >> shift, against
	// difference predictions scaled by the same exact 2^-shift.
	base, baseDQ := q, dq
	if opts.prog != nil {
		shift := opts.prog.shift
		base = make([]int32, len(q))
		parallel.ForRange(len(q), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				base[i] = q[i] >> shift
			}
		})
		baseDQ = scaleDQ(dq, shift)
	}
	endPredict := opts.Stages.Timer("predict")
	codes, weights, err := predictCodes(base, dims, baseDQ, method, opts)
	var alt *blockAlt
	if g := blockGeomFor(opts, dims); err == nil && g != nil {
		alt = &blockAlt{geom: g, indep: blockLocalCodes(base, dims, g, baseDQ, weights, method)}
	}
	endPredict()
	if err != nil {
		return nil, err
	}

	blob := &container.Blob{
		Header: container.Header{
			Method:     method,
			BoundMode:  byte(opts.Bound.Mode),
			BoundValue: opts.Bound.Value,
			AbsEB:      eb,
			Dims:       append([]int(nil), dims...),
			BackendID:  opts.Backend.ID(),
			Hybrid:     weights,
			Anchors:    append([]string(nil), opts.AnchorNames...),
		},
		Model: modelBlob,
	}
	endHuff := opts.Stages.Timer("huffman")
	var (
		codec *huffman.Codec
		raw   []byte
	)
	if alt != nil {
		codec, raw, blob.Blocks, codes, err = chooseBlockCoding(codes, alt, dims, opts.MaxSymbols)
	} else {
		codec, raw, err = huffmanEncode(codes, opts.MaxSymbols)
	}
	endHuff()
	if err != nil {
		return nil, err
	}
	if blob.Table, blob.Payload, err = finishStream(codec, raw, opts); err != nil {
		return nil, err
	}
	blob.PayloadRaw = len(raw)
	maxErr := achievedMaxErr(field.Data(), q, eb)
	if opts.prog != nil {
		if err := addRefinementLayers(blob, field.Data(), q, eb, maxErr, opts); err != nil {
			return nil, err
		}
	}
	enc, err := container.Encode(blob)
	if err != nil {
		return nil, err
	}
	st := Stats{
		Method:        method,
		OriginalBytes: field.Len() * 4,
		ModelBytes:    len(modelBlob),
		TableBytes:    len(blob.Table),
		PayloadBytes:  len(blob.Payload),
		AbsEB:         eb,
		MaxErr:        maxErr,
		CodeEntropy:   metrics.CodeEntropy(codes),
		HybridWeights: weights,
	}
	if blob.Layers != nil {
		for l, layer := range blob.Layers.Layers {
			st.TableBytes += len(layer.Table)
			st.PayloadBytes += len(blob.LayerData[l])
		}
	}
	if blob.Blocks != nil {
		st.BlockMode = blob.Blocks.Mode
	}
	st.setCompressedBytes(len(enc))
	return &Result{Blob: enc, Stats: st}, nil
}

// huffmanEncode builds a canonical Huffman code for one symbol stream and
// encodes the stream with it.
func huffmanEncode(codes []int32, maxSymbols int) (*huffman.Codec, []byte, error) {
	codec, err := huffman.Build(codes, maxSymbols)
	if err != nil {
		return nil, nil, err
	}
	var w bitstream.Writer
	if err := codec.Encode(&w, codes); err != nil {
		return nil, nil, err
	}
	return codec, w.Bytes(), nil
}

// finishStream runs the lossless backend over one entropy-coded stream
// and marshals its Huffman table.
func finishStream(codec *huffman.Codec, raw []byte, opts Options) (table, enc []byte, err error) {
	endFlate := opts.Stages.Timer("flate")
	enc, err = opts.Backend.Compress(raw)
	endFlate()
	if err != nil {
		return nil, nil, err
	}
	table, err = codec.MarshalBinary()
	return table, enc, err
}

// predictCodes computes the residual codes q − prediction: Lorenzo for the
// baseline; for the cross-field methods, the least-squares fit of the
// candidate predictions (Lorenzo and the CFNN differences dq for hybrid,
// dq alone for cross-only). weights holds the fitted weights followed by
// the bias, nil for the baseline. Dual quantization makes every
// prediction a function of prequant values, so the loop is parallel.
func predictCodes(q []int32, dims []int, dq [][]float64, method container.Method, opts Options) (codes []int32, weights []float64, err error) {
	if method == container.MethodBaseline {
		lor, err := predictor.LorenzoAll(q, dims)
		if err != nil {
			return nil, nil, err
		}
		return predictor.ResidualCodesInt(q, lor), nil, nil
	}
	feats, err := candidateFeatures(q, dims, dq, method)
	if err != nil {
		return nil, nil, err
	}
	hy, err := fitHybrid(feats, q, opts)
	if err != nil {
		return nil, nil, err
	}
	codes = make([]int32, len(q))
	parallel.ForRange(len(q), func(lo, hi int) {
		row := make([]float64, len(feats))
		for i := lo; i < hi; i++ {
			for k := range feats {
				row[k] = feats[k][i]
			}
			pred := roundHalfAway(clampPred(hy.Apply(row)))
			codes[i] = q[i] - int32(pred)
		}
	})
	return codes, append(append([]float64(nil), hy.W...), hy.Bias), nil
}

// candidateFeatures builds the per-point candidate predictions:
// [Lorenzo, cross-axis-0, ..., cross-axis-(r-1)] for hybrid, or just the
// cross predictions for cross-only.
func candidateFeatures(q []int32, dims []int, dq [][]float64, method container.Method) ([][]float64, error) {
	var feats [][]float64
	if method == container.MethodHybrid {
		lor, err := predictor.LorenzoAll(q, dims)
		if err != nil {
			return nil, err
		}
		lf := make([]float64, len(q))
		parallel.ForRange(len(q), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				lf[i] = float64(lor[i])
			}
		})
		feats = append(feats, lf)
	}
	strides := stridesOf(dims)
	for a := range dq {
		cf := make([]float64, len(q))
		axis := a
		stride, dim := strides[axis], dims[axis]
		dqa := dq[axis]
		parallel.ForRange(len(q), func(lo, hi int) {
			// Walk the axis coordinate incrementally instead of dividing
			// per point: coord advances by 1 every `stride` points and
			// wraps after `dim` steps.
			coord := (lo / stride) % dim
			phase := lo % stride
			for i := lo; i < hi; i++ {
				cf[i] = predictor.CrossFieldPred(q, i, stride, coord, dqa[i])
				if phase++; phase == stride {
					phase = 0
					if coord++; coord == dim {
						coord = 0
					}
				}
			}
		})
		feats = append(feats, cf)
	}
	return feats, nil
}

func stridesOf(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// fitHybrid least-squares-fits the hybrid weights on a deterministic random
// sample of points.
func fitHybrid(feats [][]float64, q []int32, opts Options) (*predictor.Hybrid, error) {
	n := len(q)
	samples := opts.HybridSamples
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	idx := make([]int, samples)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	sub := make([][]float64, len(feats))
	for k := range feats {
		sub[k] = make([]float64, samples)
		for i, p := range idx {
			sub[k][i] = feats[k][p]
		}
	}
	target := make([]float64, samples)
	for i, p := range idx {
		target[i] = float64(q[p])
	}
	return predictor.Fit(sub, target)
}
