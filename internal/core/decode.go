package core

// The decode pipeline. One entry point, Decode, reverses every payload the
// compressor writes — plain, block-coded, and layered CFC1 payloads, alone
// or as the chunks of a CFC2 container — for a whole field or one chunk,
// at any progressive level, on a bounded worker pool, under a cancelable
// context. Every payload reconstructs through reconstructBlocks: a plain
// payload is a single wavefront block whose causal origin is the grid
// origin, and a layered payload's base layer is a plain payload over the
// shifted integers.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// WholeField selects the whole field in Request.Chunk.
const WholeField = -1

// Request selects what Decode reconstructs.
type Request struct {
	// Chunk is WholeField or one chunk's index. A monolithic CFC1 blob
	// is a single chunk 0.
	Chunk int
	// Level is LevelFull (the deepest, bit-exact level) or a progressive
	// level in [0, Levels). A non-layered payload has exactly one level.
	Level int
	// Workers bounds the decode worker pool; <= 0 means GOMAXPROCS.
	Workers int
}

// Decode reconstructs the compressed field stored in src[0:size] as req
// asks, reading only the bytes the level needs: the container header and
// index, then each payload in full, or just the layer prefix of a layered
// payload decoded below its deepest level. Whole payloads verify their
// CRC32 from the chunk index; prefixes rely on their per-layer CRCs.
//
// Cross-field payloads predict from the same decompressed anchor fields
// the compressor used, in the same order; baseline payloads take nil. For
// a one-chunk request the anchors may instead be slabs covering just that
// chunk (the chunk's dims), which lets a server decode a dependent chunk
// without materializing whole anchor fields. Either way the predictions
// are bit-identical.
//
// Decode returns the reconstruction, its first slab along axis 0 (0 for
// a whole field), and the max error the compressor recorded for the level
// (NaN when the payload is not layered). ctx is checked at every block,
// wavefront front and refinement plane.
func Decode(ctx context.Context, src io.ReaderAt, size int64, anchors []*tensor.Tensor, req Request) (*tensor.Tensor, int, float64, error) {
	workers := req.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	s, err := open(src, size)
	if err != nil {
		return nil, 0, 0, err
	}
	if req.Chunk == WholeField && s.a != nil {
		t, achieved, err := s.decodeField(ctx, anchors, req.Level, workers)
		return t, 0, achieved, err
	}
	i := max(req.Chunk, 0) // the whole field of a CFC1 blob is its chunk 0
	b, sub, err := s.payload(i, req.Level, anchors)
	if err != nil {
		return nil, 0, 0, s.chunkErr(i, err)
	}
	dq, err := resolveDQ(b, sub, s.model, nil)
	if err != nil {
		return nil, 0, 0, s.chunkErr(i, err)
	}
	vals, achieved, err := decodePayload(ctx, b, dq, nil, req.Level, workers)
	if err != nil {
		return nil, 0, 0, s.chunkErr(i, err)
	}
	t, err := tensor.FromSlice(vals, b.Dims...)
	if err != nil {
		return nil, 0, 0, err
	}
	start := 0
	if s.a != nil {
		start = s.a.Index[i].Start
	}
	return t, start, achieved, nil
}

// Decompress reconstructs a whole field at full fidelity from an
// in-memory CFC1 or CFC2 blob: Decode with the default request.
func Decompress(blob []byte, anchors []*tensor.Tensor) (*tensor.Tensor, error) {
	return DecompressChunkedWith(blob, anchors, 0)
}

// DecompressChunkedWith is Decompress on at most workers goroutines
// (<= 0 means GOMAXPROCS).
func DecompressChunkedWith(blob []byte, anchors []*tensor.Tensor, workers int) (*tensor.Tensor, error) {
	t, _, _, err := Decode(context.TODO(), bytes.NewReader(blob), int64(len(blob)), anchors,
		Request{Chunk: WholeField, Level: LevelFull, Workers: workers})
	return t, err
}

// source is an opened compressed field: a monolithic CFC1 payload, or a
// CFC2 container's header, index, slab grid and shared CFNN model.
type source struct {
	src   io.ReaderAt
	size  int64
	a     *chunk.Archive // nil for CFC1
	g     *chunk.Grid
	model *cfnn.Model
}

func open(src io.ReaderAt, size int64) (*source, error) {
	s := &source{src: src, size: size}
	var magic [4]byte
	if size < int64(len(magic)) || readFull(src, magic[:], 0) != nil || !chunk.IsChunked(magic[:]) {
		return s, nil // a CFC1 payload, validated when read
	}
	cr, err := chunk.NewReader(io.NewSectionReader(src, 0, size))
	if err != nil {
		return nil, err
	}
	s.a = &chunk.Archive{Header: *cr.Header(), Index: cr.Index()}
	if last := s.a.Index[len(s.a.Index)-1]; int64(last.Offset+last.PayloadLen) < size {
		return nil, fmt.Errorf("%w: %d trailing bytes", chunk.ErrCorrupt, size-int64(last.Offset+last.PayloadLen))
	}
	if s.g, err = s.a.Grid(); err != nil {
		return nil, err
	}
	if s.model, err = loadArchiveModel(&s.a.Header); err != nil {
		return nil, err
	}
	return s, nil
}

// chunkErr names the chunk in a CFC2 decode error.
func (s *source) chunkErr(i int, err error) error {
	if s.a == nil || err == nil {
		return err
	}
	return fmt.Errorf("core: chunk %d: %w", i, err)
}

// payload reads chunk i's payload as level needs it and returns it with
// the anchors its cross-field predictions come from: whole anchor fields
// are cut to the chunk's views, and anchors already shaped like the chunk
// are its slabs.
func (s *source) payload(i, level int, anchors []*tensor.Tensor) (*container.Blob, []*tensor.Tensor, error) {
	if s.a == nil {
		if i != 0 {
			return nil, nil, fmt.Errorf("core: chunk %d out of [0,1) (monolithic blob)", i)
		}
		b, err := readPayload(s.src, s.size, 0, s.size, level, nil)
		return b, anchors, err
	}
	if i < 0 || i >= len(s.a.Index) {
		return nil, nil, fmt.Errorf("core: chunk %d out of [0,%d)", i, len(s.a.Index))
	}
	e := s.a.Index[i]
	b, err := readPayload(s.src, s.size, int64(e.Offset), int64(e.PayloadLen), level, &e.Checksum)
	if err != nil {
		return nil, nil, err
	}
	if want := s.g.ChunkDims(i); !slices.Equal(b.Dims, want) {
		return nil, nil, fmt.Errorf("%w: payload dims %v, index says %v", chunk.ErrCorrupt, b.Dims, want)
	}
	if len(anchors) > 0 && slices.Equal(anchors[0].Shape(), s.a.Dims) {
		if anchors, err = s.g.Views(anchors, i); err != nil {
			return nil, nil, err
		}
	}
	return b, anchors, nil
}

// decodeField decodes every chunk of a CFC2 container straight into its
// region of the output: CFNN inference runs once over the whole anchor
// fields, chunks decode in parallel, and leftover workers go to
// block-parallel decode inside each chunk. The achieved error is the max
// across chunks.
func (s *source) decodeField(ctx context.Context, anchors []*tensor.Tensor, level, workers int) (*tensor.Tensor, float64, error) {
	var inf *fieldInference
	if s.model != nil {
		if err := checkAnchors(anchors, s.a.Dims, s.a.Method, s.a.Anchors); err != nil {
			return nil, 0, err
		}
		var err error
		if inf, err = newFieldInference(s.model, anchors, s.a.AbsEB, s.g, nil, workers); err != nil {
			return nil, 0, err
		}
	}
	n := s.g.NumChunks()
	out := make([]float32, s.a.NumPoints())
	achieved := make([]float64, n)
	err := parallel.ForErr(workers, n, func(i int) error {
		b, _, err := s.payload(i, level, nil)
		if err != nil {
			return s.chunkErr(i, err)
		}
		var dq [][]float64
		if inf != nil {
			dq = inf.chunkDQ(i)
		}
		if dq, err = resolveDQ(b, nil, nil, dq); err != nil {
			return s.chunkErr(i, err)
		}
		lo := s.g.Offset(i)
		_, achieved[i], err = decodePayload(ctx, b, dq, out[lo:lo+s.g.Voxels(i)], level, max(1, workers/n))
		return s.chunkErr(i, err)
	})
	if err != nil {
		return nil, 0, err
	}
	t, err := tensor.FromSlice(out, s.a.Dims...)
	if err != nil {
		return nil, 0, err
	}
	return t, maxAchieved(achieved), nil
}

// maxAchieved folds per-chunk achieved errors; any NaN (unknown) makes the
// aggregate NaN.
func maxAchieved(errs []float64) float64 {
	out := 0.0
	for _, e := range errs {
		if math.IsNaN(e) {
			return math.NaN()
		}
		out = max(out, e)
	}
	return out
}

// readFull reads len(p) bytes of src at off; a short read means the
// container is truncated.
func readFull(src io.ReaderAt, p []byte, off int64) error {
	if n, err := src.ReadAt(p, off); n < len(p) {
		if err == nil || err == io.EOF {
			err = container.ErrCorrupt
		}
		return fmt.Errorf("core: read %d bytes at offset %d: %w", len(p), off, err)
	}
	return nil
}

// readPayload parses the CFC1 payload recorded at [off, off+n) of src. A
// layered payload decoded below its deepest level is read only up to the
// prefix that level needs — from a truncated source too, so intact lower
// levels stay decodable. Every other read takes the whole payload and,
// when sum is non-nil, verifies it against the index checksum.
func readPayload(src io.ReaderAt, size, off, n int64, level int, sum *uint32) (*container.Blob, error) {
	var head [5]byte
	if n < int64(len(head)) || off+int64(len(head)) > size {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, n)
	}
	if err := readFull(src, head[:], off); err != nil {
		return nil, err
	}
	if level != LevelFull && container.IsLayered(head[:]) {
		b, _, err := readLayeredPrefix(src, off, min(n, size-off), level)
		return b, err
	}
	if off+n > size {
		return nil, fmt.Errorf("%w: %d-byte payload at offset %d runs past the end (%d bytes)", container.ErrCorrupt, n, off, size)
	}
	buf := make([]byte, n)
	if err := readFull(src, buf, off); err != nil {
		return nil, err
	}
	if sum != nil && crc32.ChecksumIEEE(buf) != *sum {
		return nil, chunk.ErrChecksum
	}
	return container.Decode(buf)
}

// decodePayload reverses one parsed CFC1 payload (a whole field or one
// chunk) through level into dst, allocated when nil. dq holds the
// cross-field predictions (nil for baseline payloads). It returns the
// values and the achieved max error recorded for the level, NaN when the
// payload is not layered.
//
// A layered payload's base layer carries q >> Shift and predicts from dq
// scaled to match; its refinement planes re-attach below it, and the bits
// still unknown at the level are filled with their midpoint.
func decodePayload(ctx context.Context, b *container.Blob, dq [][]float64, dst []float32, level, workers int) ([]float32, float64, error) {
	ls := b.Layers
	levels := 1
	if ls != nil {
		levels = ls.NumLevels()
	}
	if level == LevelFull {
		level = levels - 1
	}
	if level < 0 || level >= levels {
		return nil, 0, fmt.Errorf("core: level %d out of [0,%d)", level, levels)
	}
	if ls != nil && level >= b.LayersAvail() {
		return nil, 0, fmt.Errorf("%w: level %d needs %d layers, prefix holds %d",
			container.ErrCorrupt, level, level+1, b.LayersAvail())
	}
	backend, err := lossless.ByID(b.BackendID)
	if err != nil {
		return nil, 0, err
	}
	raw, codec, bs, err := baseStream(b, backend)
	if err != nil {
		return nil, 0, err
	}
	n := b.NumPoints()
	if dst == nil {
		dst = make([]float32, n)
	}
	q := make([]int32, n)
	if ls == nil {
		if err := reconstructBlocks(ctx, q, dst, raw, codec, b, bs, dq, workers, nil); err != nil {
			return nil, 0, err
		}
		return dst, math.NaN(), nil
	}
	if err := reconstructBlocks(ctx, q, nil, raw, codec, b, bs, scaleDQ(dq, ls.Shift), workers, nil); err != nil {
		return nil, 0, err
	}
	// Refinement planes are independent byte streams: decode them on the
	// worker pool, then merge below the base.
	planes := make([][]int32, level)
	err = parallel.ForErr(workers, level, func(pi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		l := pi + 1
		enc, err := b.LayerPayload(l)
		if err != nil {
			return err
		}
		raw, err := backend.Decompress(enc, ls.Layers[l].RawLen)
		if err != nil {
			return err
		}
		pc, _, err := huffman.UnmarshalCodec(ls.Layers[l].Table)
		if err != nil {
			return err
		}
		syms, err := pc.Decode(bitstream.NewReader(raw), n)
		if err != nil {
			return err
		}
		limit := int32(1) << ls.Layers[l].Bits
		for _, s := range syms {
			if s < 0 || s >= limit {
				return fmt.Errorf("%w: layer %d symbol %d exceeds %d-bit plane", container.ErrCorrupt, l, s, ls.Layers[l].Bits)
			}
		}
		planes[pi] = syms
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	rem := ls.Remaining(level)
	shifts := make([]int, level) // plane pi re-attaches at bit position shifts[pi]
	for pi := range shifts {
		shifts[pi] = ls.Remaining(pi + 1)
	}
	var mid int32
	if rem > 0 {
		mid = int32(1) << (rem - 1)
	}
	s2 := 2 * b.AbsEB
	parallel.ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := q[i] << ls.Shift
			for pi := range planes {
				v += planes[pi][i] << shifts[pi]
			}
			dst[i] = float32(float64(v+mid) * s2)
		}
	})
	return dst, ls.Layers[level].MaxErr, nil
}

// baseStream inflates a payload's residual stream (the base layer's, for
// a layered payload), parses its Huffman table, and returns the block
// layout the stream is cut into: a plain payload is one wavefront block
// whose causal origin is the grid origin.
func baseStream(b *container.Blob, backend lossless.Backend) ([]byte, *huffman.Codec, *container.BlockSection, error) {
	enc, rawLen := b.Payload, b.PayloadRaw
	if b.Layers != nil {
		var err error
		if enc, err = b.LayerPayload(0); err != nil {
			return nil, nil, nil, err
		}
		rawLen = b.Layers.Layers[0].RawLen
	}
	raw, err := backend.Decompress(enc, rawLen)
	if err != nil {
		return nil, nil, nil, err
	}
	codec, _, err := huffman.UnmarshalCodec(b.Table)
	if err != nil {
		return nil, nil, nil, err
	}
	bs := b.Blocks
	if bs == nil {
		bs = &container.BlockSection{Mode: container.BlockWavefront, Edges: b.Dims, SegLens: []int{len(raw)}}
	}
	return raw, codec, bs, nil
}

// resolveDQ produces the cross-field difference predictions (prequant
// units) a payload's reconstruction needs: dqExt when the shared-inference
// pass already computed them, otherwise a fresh CFNN inference over the
// anchors using the payload's embedded model or the container-level ext
// model. Baseline payloads return nil.
func resolveDQ(b *container.Blob, anchors []*tensor.Tensor, ext *cfnn.Model, dqExt [][]float64) ([][]float64, error) {
	switch b.Method {
	case container.MethodBaseline:
		return nil, nil
	case container.MethodHybrid, container.MethodCrossOnly:
		if dqExt != nil {
			return dqExt, nil
		}
		if err := checkAnchors(anchors, b.Dims, b.Method, b.Anchors); err != nil {
			return nil, err
		}
		model := ext
		if len(b.Model) > 0 {
			var err error
			if model, err = cfnn.Load(bytes.NewReader(b.Model)); err != nil {
				return nil, err
			}
		}
		if model == nil {
			return nil, fmt.Errorf("core: blob method %v has no embedded model and none was supplied", b.Method)
		}
		return predictedDQ(model, anchors, b.AbsEB)
	default:
		return nil, fmt.Errorf("core: unknown method %v", b.Method)
	}
}

// checkAnchors validates the anchors of a cross-field decode against the
// dims they must cover.
func checkAnchors(anchors []*tensor.Tensor, dims []int, method container.Method, names []string) error {
	if len(anchors) == 0 {
		return fmt.Errorf("%w: method %v, anchors %v", ErrNeedAnchors, method, names)
	}
	for i, a := range anchors {
		if !slices.Equal(a.Shape(), dims) {
			return fmt.Errorf("core: anchor %d shape %v != field dims %v", i, a.Shape(), dims)
		}
	}
	return nil
}

// PeekStats decodes just the container header of a blob — used by tools to
// inspect compressed files without full decompression.
func PeekStats(blob []byte) (*container.Blob, error) {
	return container.Decode(blob)
}
