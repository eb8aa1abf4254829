package crossfield

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/core"
)

// Option configures a compression call. Options are shared by the
// single-field entry points (CompressBaseline, Codec.Compress) and the
// dataset-level CompressDataset; options that only make sense at one level
// are rejected with an error at the other, so misuse fails loudly instead
// of being silently ignored.
type Option interface {
	applyOption(*compressConfig) error
}

// compressConfig is the resolved option set.
type compressConfig struct {
	chunkVoxels int // 0 = monolithic
	workers     int
	blocks      bool
	blockEdge   int
	progressive *core.ProgressiveSpec
	fieldBounds map[string]ErrorBound
	timings     *DatasetTimings
}

// coreOptions translates the resolved options into core.Options for one
// field compressed under bound.
func (c *compressConfig) coreOptions(bound ErrorBound) core.Options {
	return core.Options{
		Bound:       bound,
		ChunkVoxels: c.chunkVoxels,
		Workers:     c.workers,
		Blocks:      core.BlockSpec{Enable: c.blocks, Edge: c.blockEdge},
		Progressive: c.progressive,
	}
}

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*compressConfig) error

func (f optionFunc) applyOption(c *compressConfig) error { return f(c) }

// WithChunks selects the chunked parallel engine with the given target
// number of values per chunk (rounded to whole slabs along the slowest
// axis). voxels == 0 selects the default of ~2M values per chunk; negative
// values are rejected.
func WithChunks(voxels int) Option {
	return optionFunc(func(c *compressConfig) error {
		if voxels < 0 {
			return fmt.Errorf("crossfield: WithChunks(%d): chunk voxels must be >= 0 (0 = default)", voxels)
		}
		c.chunkVoxels = voxels
		if voxels == 0 {
			c.chunkVoxels = chunk.DefaultChunkVoxels
		}
		return nil
	})
}

// WithWorkers bounds how many chunks compress concurrently and selects the
// chunked engine. n == 0 means GOMAXPROCS; negative values are rejected.
func WithWorkers(n int) Option {
	return optionFunc(func(c *compressConfig) error {
		if n < 0 {
			return fmt.Errorf("crossfield: WithWorkers(%d): workers must be >= 0 (0 = GOMAXPROCS)", n)
		}
		if c.chunkVoxels == 0 {
			c.chunkVoxels = chunk.DefaultChunkVoxels
		}
		c.workers = n
		return nil
	})
}

// WithDecodeBlocks enables block-coded payloads: the prequant grid is
// split into fixed decode blocks (edge per axis; 0 picks the rank default
// of 64³/256²/4096¹) and each block's residuals are entropy-coded into
// its own segment, so decompression reconstructs blocks in parallel —
// wavefront-scheduled when seam-crossing prediction was kept, fully
// independently when compression measured that resetting prediction at
// block borders cost nothing. Reconstructed floats are byte-identical to
// the sequential decoder either way; only decode latency changes.
// Containers become CFC1 v2 / CFC2 v3 (older readers reject them).
func WithDecodeBlocks(edge int) Option {
	return optionFunc(func(c *compressConfig) error {
		if edge < 0 {
			return fmt.Errorf("crossfield: WithDecodeBlocks(%d): edge must be >= 0 (0 = default)", edge)
		}
		c.blocks = true
		c.blockEdge = edge
		return nil
	})
}

// WithProgressive writes layered payloads for progressive multi-resolution
// retrieval: the quantized integers split into a base layer at a relaxed
// bound plus levels-1 refinement bit-plane layers, each independently
// entropy-coded and CRC'd, so a reader can stop after any payload prefix
// and reconstruct with a provable error bound — and consuming every layer
// is bit-identical to a non-progressive decode. levels counts the base
// layer and must be in [2,8]; each extra level adds two refinement bits
// (quartering the preview bound). Containers become CFC1 v3 / CFC2 v4 /
// CFC3 v3 (older readers reject them up front). Decode any level with
// DecompressAtLevel or Archive.DecodeFieldAtLevel. Mutually exclusive with
// WithDecodeBlocks.
func WithProgressive(levels int) Option {
	return optionFunc(func(c *compressConfig) error {
		if levels < 2 || levels > 8 {
			return fmt.Errorf("crossfield: WithProgressive(%d): levels out of [2,8]", levels)
		}
		if c.progressive == nil {
			c.progressive = &core.ProgressiveSpec{}
		}
		c.progressive.Levels = levels
		return nil
	})
}

// WithPreviewBound sets the target error bound of the progressive base
// layer, in the same mode (absolute or range-relative) as the compression
// bound, and implies WithProgressive(2) when no level count was chosen.
// The layering drops the largest bit count whose provable base bound still
// meets the preview; the preview must exceed 3× the full bound. Combine
// with WithProgressive(n) to spread the refinement across more levels.
func WithPreviewBound(b float64) Option {
	return optionFunc(func(c *compressConfig) error {
		if !(b > 0) {
			return fmt.Errorf("crossfield: WithPreviewBound(%g): bound must be > 0", b)
		}
		if c.progressive == nil {
			c.progressive = &core.ProgressiveSpec{}
		}
		c.progressive.PreviewBound = b
		return nil
	})
}

// WithFieldBound overrides the dataset-wide error bound for one named field
// of a CompressDataset call. It is rejected by the single-field entry
// points, and CompressDataset rejects names that match no field in the
// dataset.
func WithFieldBound(name string, bound ErrorBound) Option {
	return optionFunc(func(c *compressConfig) error {
		if name == "" {
			return fmt.Errorf("crossfield: WithFieldBound: empty field name")
		}
		if c.fieldBounds == nil {
			c.fieldBounds = make(map[string]ErrorBound)
		}
		c.fieldBounds[name] = bound
		return nil
	})
}

// WithStageTimings records each field's per-stage compression wall time
// (inference, quantize, predict, huffman, flate) into t. Like
// WithFieldBound it applies only to CompressDataset; the single-field
// entry points reject it. Recording never changes output bytes.
func WithStageTimings(t *DatasetTimings) Option {
	return optionFunc(func(c *compressConfig) error {
		if t == nil {
			return fmt.Errorf("crossfield: WithStageTimings: nil DatasetTimings")
		}
		c.timings = t
		return nil
	})
}

// resolveOptions folds the option list into a config. caller names the
// entry point for error messages; dataset selects whether per-field bounds
// are legal.
func resolveOptions(caller string, opts []Option, dataset bool) (*compressConfig, error) {
	c := &compressConfig{}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("crossfield: %s: nil Option", caller)
		}
		if err := o.applyOption(c); err != nil {
			return nil, err
		}
	}
	if !dataset && len(c.fieldBounds) > 0 {
		return nil, fmt.Errorf("crossfield: %s: WithFieldBound applies only to CompressDataset", caller)
	}
	if !dataset && c.timings != nil {
		return nil, fmt.Errorf("crossfield: %s: WithStageTimings applies only to CompressDataset", caller)
	}
	return c, nil
}
