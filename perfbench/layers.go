package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/archive"
	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run reports all of them; a layer a workload leaves idle reads
// zero work.
var perLayer = []struct{ name, unit string }{
	{"core.compress.inference_ms", "ms"},
	{"core.compress.quantize_ms", "ms"},
	{"core.compress.predict_ms", "ms"},
	{"core.compress.huffman_ms", "ms"},
	{"core.compress.flate_ms", "ms"},
	{"crossfield.pack.unattributed_ms", "ms"},
	{"archive.open_ms", "ms"},
	{"archive.payload_ms", "ms"},
	{"chunk.index_ms", "ms"},
	{"container.decode_ms", "ms"},
	{"lossless.inflate_ms", "ms"},
	{"lossless.inflate_mb", "MiB"},
	{"huffman.table_ms", "ms"},
	{"huffman.decode_ms", "ms"},
	{"huffman.symbols", "count"},
	{"huffman.ns_per_symbol", "ns"},
	{"cfnn.model_load_ms", "ms"},
	{"cfnn.infer_ms", "ms"},
	{"quant.dequantize_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"core.reconstruct_ms", "ms"},
	{"http.request.field_ms", "ms"},
	{"http.request.chunk_ms", "ms"},
	{"http.request.preview_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"http.client_overhead_ms", "ms"},
	{"serve.field_cache.hit_ratio", "share"},
	{"serve.field_cache.misses", "count"},
	{"serve.field_cache.coalesced", "count"},
	{"serve.field_cache.evictions", "count"},
	{"serve.chunk_cache.hit_ratio", "share"},
	{"serve.chunk_cache.misses", "count"},
	{"serve.chunk_cache.coalesced", "count"},
	{"serve.chunk_cache.evictions", "count"},
	{"serve.payload_cache.hit_ratio", "share"},
	{"serve.payload_cache.misses", "count"},
	{"serve.payload_cache.coalesced", "count"},
	{"serve.payload_cache.evictions", "count"},
	{"resilience.admission.admitted", "count"},
	{"resilience.admission.waited", "count"},
	{"resilience.admission.shed", "count"},
	{"resilience.admission.high_water_mb", "MiB"},
	{"serve.stage.cache_lookup_ms", "ms"},
	{"serve.stage.payload_read_ms", "ms"},
	{"serve.stage.anchor_decode_ms", "ms"},
	{"serve.stage.chunk_decode_ms", "ms"},
	{"serve.stage.field_decode_ms", "ms"},
	{"serve.wire_bytes", "B"},
	{"serve.decoded_bytes", "B"},
	{"loadgen.late_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.heap_peak_mb", "MiB"},
	{"process.cpu_util_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"trace.spans", "count"},
}

func zeroLayers() metrics {
	m := make(metrics, len(perLayer))
	for _, p := range perLayer {
		m.set(p.name, 0, p.unit)
	}
	return m
}

// decodeSample is one timed pass over an archive's decode layers. Times
// are summed over every payload of the pass, in ms.
type decodeSample map[string]float64

// decodeLayers opens each archive through archive.NewReader and decodes
// every field once, timing each layer separately through its exported
// functions: the archive reader, the CFC2 chunk index, the CFC1 container
// parser, the lossless backend, the Huffman table and decoder, CFNN model
// load and inference, and dequantization. It then times the whole core
// decode of the same payload with one worker; core.reconstruct_ms is that
// time minus the layers above (prediction reversal and layer merge, which
// have no exported entry point), so it is derived, not measured.
func decodeLayers(blobs [][]byte) (decodeSample, error) {
	s := decodeSample{}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		s[name] += ms(time.Since(t0))
		return err
	}
	for _, blob := range blobs {
		var arc *archive.Archive
		if err := timed("archive.open_ms", func() (err error) {
			arc, err = archive.NewReader(bytes.NewReader(blob), int64(len(blob)))
			return err
		}); err != nil {
			return nil, err
		}
		recon := make(map[string]*tensor.Tensor)
		for _, i := range arc.TopoOrder() {
			e := arc.Entries[i]
			var payload []byte
			if err := timed("archive.payload_ms", func() (err error) {
				payload, err = arc.Payload(i)
				return err
			}); err != nil {
				return nil, err
			}
			anchors := make([]*tensor.Tensor, len(e.Deps))
			for k, d := range e.Deps {
				anchors[k] = recon[d]
			}
			if err := payloadLayers(s, timed, payload, anchors); err != nil {
				return nil, fmt.Errorf("field %s: %w", e.Name, err)
			}
			var t *tensor.Tensor
			if err := timed("core.decode_ms", func() (err error) {
				t, err = core.DecompressChunkedWith(payload, anchors, 1)
				return err
			}); err != nil {
				return nil, err
			}
			recon[e.Name] = t
		}
	}
	sub := 0.0
	for _, k := range []string{"chunk.index_ms", "container.decode_ms", "lossless.inflate_ms", "huffman.table_ms",
		"huffman.decode_ms", "cfnn.model_load_ms", "cfnn.infer_ms", "quant.dequantize_ms"} {
		sub += s[k]
	}
	s["core.reconstruct_ms"] = s["core.decode_ms"] - sub
	if s["huffman.symbols"] > 0 {
		s["huffman.ns_per_symbol"] = s["huffman.decode_ms"] * 1e6 / s["huffman.symbols"]
	}
	return s, nil
}

// payloadLayers times the sub-layers of one field payload (CFC1 or CFC2).
func payloadLayers(s decodeSample, timed func(string, func() error) error, payload []byte, anchors []*tensor.Tensor) error {
	var parts [][]byte
	var modelBytes []byte
	var segCounts []int
	if chunk.IsChunked(payload) {
		if err := timed("chunk.index_ms", func() error {
			a, err := chunk.Decode(payload)
			if err != nil {
				return err
			}
			for ci := 0; ci < a.NumChunks(); ci++ {
				p, err := a.Payload(ci)
				if err != nil {
					return err
				}
				parts = append(parts, p)
				segCounts = append(segCounts, a.Index[ci].Count)
			}
			modelBytes = a.Model
			return nil
		}); err != nil {
			return err
		}
	} else {
		parts = [][]byte{payload}
	}
	for _, p := range parts {
		var b *container.Blob
		if err := timed("container.decode_ms", func() (err error) {
			b, err = container.Decode(p)
			return err
		}); err != nil {
			return err
		}
		if len(b.Model) > 0 {
			modelBytes = b.Model
		}
		backend, err := lossless.ByID(b.BackendID)
		if err != nil {
			return err
		}
		n := b.NumPoints()
		decodeStream := func(enc []byte, rawLen int, table []byte, counts []int) error {
			var raw []byte
			if err := timed("lossless.inflate_ms", func() (err error) {
				raw, err = backend.Decompress(enc, rawLen)
				return err
			}); err != nil {
				return err
			}
			s["lossless.inflate_mb"] += float64(len(raw)) / mib
			var codec *huffman.Codec
			if err := timed("huffman.table_ms", func() (err error) {
				codec, _, err = huffman.UnmarshalCodec(table)
				return err
			}); err != nil {
				return err
			}
			return timed("huffman.decode_ms", func() error {
				off := 0
				for k, c := range counts {
					seg := raw[off:]
					if b.Blocks != nil {
						seg = raw[off : off+b.Blocks.SegLens[k]]
						off += b.Blocks.SegLens[k]
					}
					if _, err := codec.Decode(bitstream.NewReader(seg), c); err != nil {
						return err
					}
					s["huffman.symbols"] += float64(c)
				}
				return nil
			})
		}
		switch {
		case b.Layers != nil:
			for l, layer := range b.Layers.Layers {
				enc, err := b.LayerPayload(l)
				if err != nil {
					return err
				}
				table := layer.Table
				if l == 0 {
					table = b.Table
				}
				if err := decodeStream(enc, layer.RawLen, table, []int{n}); err != nil {
					return fmt.Errorf("layer %d: %w", l, err)
				}
			}
		case b.Blocks != nil:
			counts, err := blockVoxels(b.Dims, b.Blocks)
			if err != nil {
				return err
			}
			if err := decodeStream(b.Payload, b.PayloadRaw, b.Table, counts); err != nil {
				return err
			}
		default:
			if err := decodeStream(b.Payload, b.PayloadRaw, b.Table, []int{n}); err != nil {
				return err
			}
		}
		// Dequantization costs the same whatever the integers hold; the
		// reconstructed ones are not reachable through an exported call.
		q := make([]int32, n)
		timed("quant.dequantize_ms", func() error {
			quant.Dequantize(q, b.AbsEB)
			return nil
		})
	}
	if len(modelBytes) == 0 {
		return nil
	}
	var model *cfnn.Model
	if err := timed("cfnn.model_load_ms", func() (err error) {
		model, err = cfnn.Load(bytes.NewReader(modelBytes))
		return err
	}); err != nil {
		return err
	}
	return timed("cfnn.infer_ms", func() error {
		_, err := model.PredictDiffsWith(anchors, segCounts, nil, 1)
		return err
	})
}

// blockVoxels lists the voxel count of every decode block of a
// block-coded payload, in the block-raster order of its segments.
func blockVoxels(dims []int, bs *container.BlockSection) ([]int, error) {
	n, err := bs.NumBlocks(dims)
	if err != nil {
		return nil, err
	}
	if n != len(bs.SegLens) {
		return nil, fmt.Errorf("%d block segments for %d blocks", len(bs.SegLens), n)
	}
	per := make([][]int, len(dims))
	for a, d := range dims {
		for lo := 0; lo < d; lo += bs.Edges[a] {
			per[a] = append(per[a], min(bs.Edges[a], d-lo))
		}
	}
	counts := []int{1}
	for a := range dims {
		next := make([]int, 0, len(counts)*len(per[a]))
		for _, c := range counts {
			for _, e := range per[a] {
				next = append(next, c*e)
			}
		}
		counts = next
	}
	return counts, nil
}

// decodeLayersMedian repeats a decode pass and keeps each layer's median.
// The passes run on one thread, so that the core decode (which would
// otherwise decode chunks, blocks and refinement layers in parallel) and
// the sequentially timed layers measure the same busy time.
func decodeLayersMedian(pass func() (decodeSample, error)) (decodeSample, error) {
	const passes = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	all := make(map[string][]float64)
	for i := 0; i < passes; i++ {
		s, err := pass()
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			all[k] = append(all[k], v)
		}
	}
	out := decodeSample{}
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out, nil
}

// report copies the decode layers into the per-layer metrics.
func (s decodeSample) report(m metrics) {
	for k, v := range s {
		if old, ok := m[k]; ok {
			m.set(k, v, old.Unit)
		}
	}
}
