package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
)

// Property: Decompress never panics on arbitrary byte blobs — it either
// errors or (vanishingly unlikely) returns a field. Malformed input is a
// normal condition for a codec that reads files.
func TestDecompressArbitraryBytesNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		blob := make([]byte, int(n%2048))
		rng.Read(blob)
		_, _ = Decompress(blob, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid baseline blob either
// errors, or decodes to the correct shape (a flipped payload bit can land
// in Huffman padding). Never a panic.
func TestDecompressSingleByteFlips(t *testing.T) {
	field := smoothField2D(16, 16, 50)
	res, err := compressBlob(field, nil, nil, Options{Bound: quant.AbsBound(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blob {
		bad := append([]byte(nil), res.Blob...)
		bad[i] ^= 0x55
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic flipping byte %d: %v", i, r)
				}
			}()
			recon, err := Decompress(bad, nil)
			if err == nil && recon != nil && recon.Len() != field.Len() {
				t.Fatalf("byte %d: wrong-size reconstruction accepted", i)
			}
		}()
	}
}

// Same property over a chunked CFC2 v3 blob: flips and truncations that
// land in the block table (mode byte, edge uvarints, segment lengths)
// must surface as errors or correctly-shaped output — the table is fully
// validated before any worker touches the payload, so no slice arithmetic
// downstream can go out of bounds.
func TestCFC2V3CorruptBlockTablesNeverPanic(t *testing.T) {
	field := smoothField2D(24, 24, 50)
	res, err := compressBlob(field, nil, nil, Options{Bound: quant.AbsBound(0.05), Blocks: BlockSpec{Enable: true, Edge: 8}, ChunkVoxels: 24 * 24 / 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blob[4] != 3 {
		t.Fatalf("fixture is CFC2 v%d, want v3", res.Blob[4])
	}
	check := func(label string, blob []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %s: %v", label, r)
			}
		}()
		recon, err := Decompress(blob, nil)
		if err == nil && recon != nil && recon.Len() != field.Len() {
			t.Fatalf("%s: wrong-size reconstruction accepted", label)
		}
	}
	for i := range res.Blob {
		bad := append([]byte(nil), res.Blob...)
		bad[i] ^= 0x55
		check("flip", bad)
	}
	for n := 0; n < len(res.Blob); n += 7 {
		check("truncate", res.Blob[:n])
	}
}
