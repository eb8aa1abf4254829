package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/container"
	"repro/internal/lossless"
	"repro/internal/tensor"
)

// BlockProfile is the measured single-worker decode schedule of one
// block-coded payload. cfbench uses it to model the multi-worker decode
// latency on machines with fewer cores than the ladder requests (the
// same honest-bench convention as the cluster experiment's capacity
// model): every number in the profile is a real single-worker
// measurement; only the parallel composition is computed.
type BlockProfile struct {
	// Mode is container.BlockWavefront or container.BlockIndependent.
	Mode byte
	// Fronts holds per-block decode seconds grouped by wavefront front.
	// Fronts are barriers in the real scheduler; block-independent
	// payloads form a single front.
	Fronts [][]float64
	// InferS is the CFNN inference time producing the cross-field
	// difference estimates (zero for baseline payloads). Inference is
	// row-parallel, so the model scales it by the worker count.
	InferS float64
	// SerialS is everything outside inference and the block loop:
	// container parse, lossless inflate, Huffman table load, output
	// allocation. It does not scale with workers.
	SerialS float64
}

// TotalBlockS sums the per-block decode time — the block-loop wall time
// at one worker.
func (p *BlockProfile) TotalBlockS() float64 {
	total := 0.0
	for _, front := range p.Fronts {
		for _, s := range front {
			total += s
		}
	}
	return total
}

// ModeledLatencyS computes the decode latency at the given worker count
// from the measured schedule: serial overhead unscaled, inference
// divided by the worker count, and each front list-scheduled greedily
// onto the workers (each block goes to the least-loaded worker, in block
// order — the same order the real pool drains), with a barrier between
// fronts.
func (p *BlockProfile) ModeledLatencyS(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	total := p.SerialS + p.InferS/float64(workers)
	load := make([]float64, workers)
	for _, front := range p.Fronts {
		for i := range load {
			load[i] = 0
		}
		for _, c := range front {
			mi := 0
			for k := 1; k < workers; k++ {
				if load[k] < load[mi] {
					mi = k
				}
			}
			load[mi] += c
		}
		makespan := load[0]
		for _, l := range load[1:] {
			if l > makespan {
				makespan = l
			}
		}
		total += makespan
	}
	return total
}

// ProfileChunkBlocks decodes chunk i of a block-coded blob at one worker
// while timing each decode block, taking the best of three passes per
// block to shed scheduler noise. The blob may be a monolithic CFC1 v2
// blob (i must be 0) or a CFC2 v3 container; hybrid payloads need the
// same anchors Decode would.
func ProfileChunkBlocks(blob []byte, i int, anchors []*tensor.Tensor) (*BlockProfile, error) {
	t0 := time.Now()
	s, err := open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	b, sub, err := s.payload(i, LevelFull, anchors)
	if err != nil {
		return nil, s.chunkErr(i, err)
	}
	if b.Blocks == nil {
		return nil, fmt.Errorf("core: payload is not block-coded")
	}
	backend, err := lossless.ByID(b.BackendID)
	if err != nil {
		return nil, err
	}
	raw, codec, bs, err := baseStream(b, backend)
	if err != nil {
		return nil, err
	}
	n := b.NumPoints()
	q := make([]int32, n)
	vals := make([]float32, n)
	serial := time.Since(t0).Seconds()

	tInf := time.Now()
	dq, err := resolveDQ(b, sub, s.model, nil)
	if err != nil {
		return nil, err
	}
	inferS := 0.0
	if dq != nil {
		inferS = time.Since(tInf).Seconds()
	}

	g, err := geomFor(b.Dims, bs.Edges)
	if err != nil {
		return nil, err
	}
	times := make([]float64, g.total)
	best := make([]float64, g.total)
	for pass := 0; pass < 3; pass++ {
		if err := reconstructBlocks(context.Background(), q, vals, raw, codec, b, bs, dq, 1, times); err != nil {
			return nil, err
		}
		for bi, s := range times {
			if pass == 0 || s < best[bi] {
				best[bi] = s
			}
		}
	}
	p := &BlockProfile{Mode: bs.Mode, InferS: inferS, SerialS: serial}
	if bs.Mode == container.BlockIndependent {
		p.Fronts = [][]float64{best}
		return p, nil
	}
	for _, front := range g.fronts() {
		row := make([]float64, len(front))
		for x, bi := range front {
			row[x] = best[bi]
		}
		p.Fronts = append(p.Fronts, row)
	}
	return p, nil
}
