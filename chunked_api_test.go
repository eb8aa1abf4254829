package crossfield_test

import (
	"math"
	"testing"

	crossfield "repro"
)

func chunkedTestField(t *testing.T, nz, ny, nx int) *crossfield.Field {
	t.Helper()
	data := make([]float32, nz*ny*nx)
	p := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				data[p] = float32(25*math.Sin(float64(k)/3+float64(i)/9) + 15*math.Cos(float64(j)/7))
				p++
			}
		}
	}
	return crossfield.MustNewField("W", data, nz, ny, nx)
}

func TestChunkedBaselineAPI(t *testing.T) {
	f := chunkedTestField(t, 9, 20, 24)
	bound := crossfield.Rel(1e-3)
	res, err := crossfield.CompressBaseline(f, bound, crossfield.WithChunks(2*20*24), crossfield.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	n, err := crossfield.ChunkCount(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // ceil(9/2)
		t.Fatalf("ChunkCount = %d, want 5", n)
	}
	back, err := crossfield.Decompress("W", res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crossfield.Verify(f, back, res.Stats.AbsEB); err != nil || !ok {
		t.Fatalf("bound violated (ok=%v, err=%v)", ok, err)
	}
	// Random access: chunk 2 equals the matching region of the full
	// reconstruction.
	part, start, err := crossfield.DecompressChunk("W", res.Blob, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start != 4 {
		t.Fatalf("chunk 2 start = %d, want 4", start)
	}
	slab := 20 * 24
	for i, v := range part.Data() {
		if back.Data()[start*slab+i] != v {
			t.Fatalf("chunk reconstruction differs from full reconstruction at %d", i)
		}
	}
}

func TestChunkedHybridAPI(t *testing.T) {
	target := chunkedTestField(t, 8, 16, 16)
	anchorData := make([]float32, len(target.Data()))
	for i, v := range target.Data() {
		anchorData[i] = 0.8*v + 3
	}
	anchor := crossfield.MustNewField("U", anchorData, 8, 16, 16)
	codec, err := crossfield.Train(target, []*crossfield.Field{anchor}, crossfield.Training{
		Features: 4, Epochs: 2, StepsPerEpoch: 4, Batch: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := crossfield.Abs(0.05)
	// Baseline-compress the anchor (chunked, for good measure) and use its
	// reconstruction on both sides, as the package contract requires.
	aComp, err := crossfield.CompressBaseline(anchor, bound, crossfield.WithChunks(16*16))
	if err != nil {
		t.Fatal(err)
	}
	aDec, err := crossfield.Decompress("U", aComp.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	anchors := []*crossfield.Field{aDec}
	res, err := codec.Compress(target, anchors, bound, crossfield.WithChunks(3*16*16))
	if err != nil {
		t.Fatal(err)
	}
	n, err := crossfield.ChunkCount(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // ceil(8/3)
		t.Fatalf("ChunkCount = %d, want 3", n)
	}
	back, err := codec.Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crossfield.Verify(target, back, 0.05); err != nil || !ok {
		t.Fatalf("bound violated (ok=%v, err=%v)", ok, err)
	}
	part, _, err := crossfield.DecompressChunk("W", res.Blob, 1, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Dims()) != 3 || part.Dims()[0] != 3 {
		t.Fatalf("chunk dims = %v, want [3 16 16]", part.Dims())
	}
}
