package core

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
)

// ChunkCount returns the number of chunks in a CFC2 container (1 for a
// monolithic CFC1 blob).
func ChunkCount(blob []byte) (int, error) {
	if !chunk.IsChunked(blob) {
		if _, err := container.Decode(blob); err != nil {
			return 0, err
		}
		return 1, nil
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return 0, err
	}
	return a.NumChunks(), nil
}

// ChunkInfo describes one chunk of a compressed blob as recorded in its
// index, without decompressing anything.
type ChunkInfo struct {
	Start        int     // first slab along axis 0
	Slabs        int     // slab count along axis 0
	Voxels       int     // values in the chunk
	RawBytes     int     // uncompressed size (voxels × 4)
	PayloadBytes int     // compressed payload length
	MaxErr       float64 // achieved max abs error; NaN when unknown
}

// ChunkIndex returns per-chunk metadata for a blob. A monolithic CFC1
// blob reports a single chunk covering the whole field (its payload
// charged the full blob size), so callers can treat every container
// format as chunked.
func ChunkIndex(blob []byte) ([]ChunkInfo, error) {
	if !chunk.IsChunked(blob) {
		b, err := container.Decode(blob)
		if err != nil {
			return nil, err
		}
		n := b.NumPoints()
		return []ChunkInfo{{
			Start:        0,
			Slabs:        b.Dims[0],
			Voxels:       n,
			RawBytes:     n * 4,
			PayloadBytes: len(blob),
			MaxErr:       math.NaN(),
		}}, nil
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return nil, err
	}
	return ChunkInfoFromIndex(a.Dims, a.Index), nil
}

// ChunkInfoFromIndex converts a parsed CFC2 chunk index into ChunkInfo
// rows given the container dims. Serving layers use it to build a chunk
// table from a stream-parsed header (chunk.NewReader) without holding the
// container bytes.
func ChunkInfoFromIndex(dims []int, index []chunk.IndexEntry) []ChunkInfo {
	slab := 1
	for _, d := range dims[1:] {
		slab *= d
	}
	out := make([]ChunkInfo, len(index))
	for i, e := range index {
		out[i] = ChunkInfo{
			Start:        e.Start,
			Slabs:        e.Count,
			Voxels:       e.Count * slab,
			RawBytes:     e.RawBytes,
			PayloadBytes: e.PayloadLen,
			MaxErr:       e.MaxErr,
		}
	}
	return out
}

// loadArchiveModel loads the shared CFNN model out of a CFC2 header (nil
// for baseline containers), without validating any anchors.
func loadArchiveModel(h *chunk.Header) (*cfnn.Model, error) {
	switch h.Method {
	case container.MethodBaseline:
		return nil, nil
	case container.MethodHybrid, container.MethodCrossOnly:
		return cfnn.Load(bytes.NewReader(h.Model))
	default:
		return nil, fmt.Errorf("core: unknown method %v", h.Method)
	}
}
