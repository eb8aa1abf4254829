package crossfield_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	crossfield "repro"
	"repro/internal/core"
	"repro/internal/tensor"
)

// The golden fixtures under testdata/golden pin every container format
// version the codebase has ever written: a future format bump that breaks
// decoding of old blobs fails here instead of silently corrupting
// archives in the field. Regenerate with
//
//	go test -run TestGolden -update
//
// after an intentional format change, and commit the new fixtures. The
// expectations are exact reconstructed bytes, so these tests also pin the
// decoder's numerics (amd64 CI; Go does not fuse float ops there).
var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden")

const goldenDir = "testdata/golden"

// goldenField is a small deterministic field (6×10×12) with enough
// structure to exercise Lorenzo, Huffman, and the hybrid path.
func goldenField() *crossfield.Field {
	const nz, ny, nx = 6, 10, 12
	data := make([]float32, nz*ny*nx)
	p := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				data[p] = float32(12*math.Sin(0.7*float64(k)+0.3*float64(i)) + 5*math.Cos(0.9*float64(j)))
				p++
			}
		}
	}
	return crossfield.MustNewField("W", data, nz, ny, nx)
}

// goldenDataset is the archive fixture's field set: three anchors and a
// pointwise-linear target, the same construction the API tests use.
func goldenDataset() (target *crossfield.Field, anchors []*crossfield.Field) {
	const nz, ny, nx = 6, 10, 12
	n := nz * ny * nx
	u := make([]float32, n)
	v := make([]float32, n)
	p := make([]float32, n)
	w := make([]float32, n)
	idx := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				phase := 0.9*float64(k) + 1.3*float64(i) + 1.7*float64(j)
				uu := 10*math.Sin(phase) + 2*math.Sin(float64(i)/9)
				vv := 8*math.Cos(phase) + 1.5*math.Cos(float64(j)/7)
				pp := 500 + 20*math.Sin(float64(i)/9)*math.Cos(float64(j)/11)
				u[idx] = float32(uu)
				v[idx] = float32(vv)
				p[idx] = float32(pp)
				w[idx] = float32(0.5*uu - 0.4*vv + 0.02*(pp-500))
				idx++
			}
		}
	}
	target = crossfield.MustNewField("W", w, nz, ny, nx)
	anchors = []*crossfield.Field{
		crossfield.MustNewField("U", u, nz, ny, nx),
		crossfield.MustNewField("V", v, nz, ny, nx),
		crossfield.MustNewField("PRES", p, nz, ny, nx),
	}
	return target, anchors
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden fixture %s missing (run `go test -run TestGolden -update` and commit): %v", name, err)
	}
	return b
}

// goldenFixtures lists every committed container fixture with the magic
// and version byte it must carry. A frozen fixture is an old wire version
// no writer emits any more: -update never rewrites it, because it is the
// only pin on that version's reader.
var goldenFixtures = []struct {
	file    string
	magic   string
	version byte
	frozen  bool
}{
	{"baseline_cfc1.cfc", "CFC1", 1, false},
	{"baseline_cfc1v2.cfc", "CFC1", 2, false},
	{"baseline_cfc1v3.cfc", "CFC1", 3, false},
	{"chunked_cfc2v1.cfc", "CFC2", 1, false},
	{"chunked_cfc2v2.cfc", "CFC2", 2, false},
	{"chunked_cfc2v3.cfc", "CFC2", 3, false},
	{"chunked_cfc2v4.cfc", "CFC2", 4, false},
	{"archive_cfc3.cfc", "CFC3", 1, true},
	{"archive_cfc3v2.cfc", "CFC3", 2, false},
	{"archive_cfc3v2_mono.cfc", "CFC3", 2, false},
	{"archive_cfc3v3.cfc", "CFC3", 3, false},
}

// fixtureHeader returns a container's magic and version byte.
func fixtureHeader(b []byte) (string, byte) {
	if len(b) < 5 {
		return "", 0
	}
	return string(b[:4]), b[4]
}

// writeGolden rewrites one fixture. Frozen fixtures are skipped, and a
// container whose header disagrees with the fixture table fails instead of
// replacing the pinned version.
func writeGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, fx := range goldenFixtures {
		if fx.file != name {
			continue
		}
		if fx.frozen {
			t.Logf("kept frozen %s", goldenPath(name))
			return
		}
		if magic, version := fixtureHeader(data); magic != fx.magic || version != fx.version {
			t.Fatalf("%s: writer emits %q v%d, fixture table pins %q v%d", name, magic, version, fx.magic, fx.version)
		}
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", goldenPath(name), len(data))
}

func floatsToBytes(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// requireExact compares a reconstruction against the stored expectation
// bit for bit.
func requireExact(t *testing.T, name string, got *crossfield.Field, wantFile string) {
	t.Helper()
	want := readGolden(t, wantFile)
	gotB := floatsToBytes(got.Data())
	if len(gotB) != len(want) {
		t.Fatalf("%s: decoded %d bytes, expectation %s holds %d", name, len(gotB), wantFile, len(want))
	}
	for i := range gotB {
		if gotB[i] != want[i] {
			t.Fatalf("%s: decode differs from %s at byte %d (value index %d): old blobs no longer decode bit-exactly",
				name, wantFile, i, i/4)
		}
	}
}

// cfc2ToV1 rewrites a version-2 CFC2 container as version 1: the version
// byte drops to 1 and the 8-byte achieved-max-error field is removed from
// every index entry. Payload bytes are untouched, so the v1 fixture
// decodes to exactly the v2 expectation — which is precisely what the
// format's compatibility contract promises.
func cfc2ToV1(t *testing.T, blob []byte) []byte {
	t.Helper()
	if string(blob[:4]) != "CFC2" || blob[4] != 2 {
		t.Fatalf("not a CFC2 v2 blob")
	}
	off := 4 // magic
	out := append([]byte(nil), blob[:4]...)
	out = append(out, 1) // version byte
	off++
	// method, bound mode, bound value, abs eb
	out = append(out, blob[off:off+2+16]...)
	off += 2 + 16
	uv := func() uint64 {
		v, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at offset %d", off)
		}
		out = append(out, blob[off:off+n]...)
		off += n
		return v
	}
	rank := uv()
	for i := uint64(0); i < rank; i++ {
		uv()
	}
	numAnchors := uv()
	for i := uint64(0); i < numAnchors; i++ {
		l := uv()
		out = append(out, blob[off:off+int(l)]...)
		off += int(l)
	}
	modelLen := uv()
	out = append(out, blob[off:off+int(modelLen)]...)
	off += int(modelLen)
	numChunks := uv()
	for i := uint64(0); i < numChunks; i++ {
		uv()                                  // slab count
		uv()                                  // payload length
		out = append(out, blob[off:off+4]...) // CRC32
		off += 4
		off += 8 // drop the v2 max-error float
	}
	out = append(out, blob[off:]...) // payloads
	return out
}

// Each decode test regenerates its own fixtures when -update is set, so
// one `go test -run TestGolden -update` run rewrites everything without
// depending on test execution order.
func regenGoldenBaseline(t *testing.T) {
	f := goldenField()
	res, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "baseline_cfc1.cfc", res.Blob)
	back, err := crossfield.Decompress("W", res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "baseline_cfc1.f32", floatsToBytes(back.Data()))
}

func regenGoldenChunked(t *testing.T) {
	f := goldenField()
	res, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05),
		crossfield.WithChunks(2*10*12)) // 3 chunks of 2 slabs
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "chunked_cfc2v2.cfc", res.Blob)
	writeGolden(t, "chunked_cfc2v1.cfc", cfc2ToV1(t, res.Blob))
	back, err := crossfield.Decompress("W", res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "chunked_cfc2.f32", floatsToBytes(back.Data()))
}

// Block-coded fixtures. Dual quantization fixes every quantized integer
// before prediction runs, so the block-local payloads decode to exactly
// the same floats as the sequential ones — the v2/v3 fixtures share the
// v1/v2 .f32 expectations instead of adding new ones.
func regenGoldenBlocks(t *testing.T) {
	f := goldenField()
	res, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05),
		crossfield.WithDecodeBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "baseline_cfc1v2.cfc", res.Blob)
	resC, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05),
		crossfield.WithChunks(2*10*12), crossfield.WithDecodeBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "chunked_cfc2v3.cfc", resC.Blob)
}

// Layered (progressive) fixtures. Consuming every layer recovers exactly
// the quantized integers the sequential payloads store, so the
// full-prefix decodes share the existing .f32 expectations; the preview
// levels are checked against their advertised bounds instead of adding
// new expectation files.
func regenGoldenLayered(t *testing.T) {
	f := goldenField()
	res, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05),
		crossfield.WithProgressive(3))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "baseline_cfc1v3.cfc", res.Blob)
	resC, err := crossfield.CompressBaseline(f, crossfield.Abs(0.05),
		crossfield.WithChunks(2*10*12), crossfield.WithProgressive(3))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "chunked_cfc2v4.cfc", resC.Blob)
}

// goldenArchiveSpecs is the archive fixtures' dataset: three baseline
// anchors and a hybrid target with a deterministically trained codec.
func goldenArchiveSpecs(t *testing.T) []crossfield.FieldSpec {
	target, anchors := goldenDataset()
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 6, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}
}

func regenGoldenLayeredArchive(t *testing.T) {
	res, err := crossfield.CompressDataset(goldenArchiveSpecs(t), crossfield.Rel(1e-3),
		crossfield.WithChunks(2*10*12), crossfield.WithProgressive(3))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "archive_cfc3v3.cfc", res.Blob)
}

// regenGoldenArchive writes the chunked and the monolithic non-layered
// archives. The frozen version-1 archive_cfc3.cfc has no writer; all three
// share one set of expectations, because under dual quantization the
// quantized integers depend on neither the predictor nor the chunking.
func regenGoldenArchive(t *testing.T) {
	specs := goldenArchiveSpecs(t)
	res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3),
		crossfield.WithChunks(2*10*12))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "archive_cfc3v2.cfc", res.Blob)
	mono, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "archive_cfc3v2_mono.cfc", mono.Blob)
	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ar.Fields() {
		f, err := ar.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, fmt.Sprintf("archive_cfc3_%s.f32", name), floatsToBytes(f.Data()))
	}
}

func TestGoldenCFC1Baseline(t *testing.T) {
	if *update {
		regenGoldenBaseline(t)
	}
	blob := readGolden(t, "baseline_cfc1.cfc")
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC1 golden blob no longer decodes: %v", err)
	}
	requireExact(t, "CFC1", back, "baseline_cfc1.f32")
	// The committed blob must still honor its recorded bound against the
	// deterministic source field.
	if maxErr, ok, err := crossfield.Verify(goldenField(), back, 0.05); err != nil || !ok {
		t.Fatalf("bound violated: maxErr=%g ok=%v err=%v", maxErr, ok, err)
	}
}

func TestGoldenCFC2V2(t *testing.T) {
	if *update {
		regenGoldenChunked(t)
	}
	blob := readGolden(t, "chunked_cfc2v2.cfc")
	if n, err := crossfield.ChunkCount(blob); err != nil || n != 3 {
		t.Fatalf("ChunkCount = %d, %v; want 3", n, err)
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC2 v2 golden blob no longer decodes: %v", err)
	}
	requireExact(t, "CFC2v2", back, "chunked_cfc2.f32")
	// Random access must agree with the full reconstruction.
	part, start, err := crossfield.DecompressChunk("W", blob, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start != 2 {
		t.Fatalf("chunk 1 start = %d, want 2", start)
	}
	slab := 10 * 12
	for i, v := range part.Data() {
		if v != back.Data()[start*slab+i] {
			t.Fatalf("chunk decode differs from full decode at %d", i)
		}
	}
}

func TestGoldenCFC2V1(t *testing.T) {
	if *update {
		regenGoldenChunked(t)
	}
	blob := readGolden(t, "chunked_cfc2v1.cfc")
	if blob[4] != 1 {
		t.Fatalf("fixture version byte = %d, want 1", blob[4])
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC2 v1 golden blob no longer decodes: %v", err)
	}
	// v1 lacks per-chunk errors but carries identical payloads, so the
	// reconstruction matches the v2 expectation bit for bit.
	requireExact(t, "CFC2v1", back, "chunked_cfc2.f32")
}

func TestGoldenCFC1V2Blocks(t *testing.T) {
	if *update {
		regenGoldenBlocks(t)
	}
	blob := readGolden(t, "baseline_cfc1v2.cfc")
	if blob[4] != 2 {
		t.Fatalf("fixture version byte = %d, want 2", blob[4])
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC1 v2 golden blob no longer decodes: %v", err)
	}
	// Block-local payloads reconstruct the identical quantized integers,
	// so the expectation is the sequential fixture's.
	requireExact(t, "CFC1v2", back, "baseline_cfc1.f32")
}

func TestGoldenCFC2V3Blocks(t *testing.T) {
	if *update {
		regenGoldenBlocks(t)
	}
	blob := readGolden(t, "chunked_cfc2v3.cfc")
	if blob[4] != 3 {
		t.Fatalf("fixture version byte = %d, want 3", blob[4])
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC2 v3 golden blob no longer decodes: %v", err)
	}
	requireExact(t, "CFC2v3", back, "chunked_cfc2.f32")
}

func TestGoldenCFC3Archive(t *testing.T) {
	if *update {
		regenGoldenArchive(t)
	}
	for _, file := range []string{"archive_cfc3.cfc", "archive_cfc3v2.cfc", "archive_cfc3v2_mono.cfc"} {
		ar, err := crossfield.OpenArchive(readGolden(t, file))
		if err != nil {
			t.Fatalf("%s no longer opens: %v", file, err)
		}
		names := ar.Fields()
		if len(names) != 4 {
			t.Fatalf("%s holds %v, want 4 fields", file, names)
		}
		for _, name := range names {
			f, err := ar.Field(name)
			if err != nil {
				t.Fatalf("%s: field %s no longer decodes: %v", file, name, err)
			}
			requireExact(t, file+"/"+name, f, fmt.Sprintf("archive_cfc3_%s.f32", name))
		}
		// The dependent field's manifest entry must still record its graph.
		fi, ok := ar.FieldInfoFor("W")
		if !ok || fi.Role != "dependent" || len(fi.Anchors) != 3 {
			t.Fatalf("%s: W manifest entry = %+v", file, fi)
		}
		want := "CFC2"
		if file == "archive_cfc3v2_mono.cfc" {
			want = "CFC1"
		}
		for _, fi := range ar.Manifest() {
			if fi.Container != want {
				t.Fatalf("%s: field %s payload is %s, want %s", file, fi.Name, fi.Container, want)
			}
		}
	}
}

func TestGoldenCFC1V3Layered(t *testing.T) {
	if *update {
		regenGoldenLayered(t)
	}
	blob := readGolden(t, "baseline_cfc1v3.cfc")
	if blob[4] != 3 {
		t.Fatalf("fixture version byte = %d, want 3", blob[4])
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC1 v3 golden blob no longer decodes: %v", err)
	}
	// Full-prefix decode recovers the quantized integers exactly, so the
	// expectation is the sequential fixture's.
	requireExact(t, "CFC1v3", back, "baseline_cfc1.f32")
	spec, err := crossfield.PayloadLevels(blob)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("layer table reports %d levels, want 3", spec.Levels)
	}
	full, _, err := crossfield.DecompressAtLevel("W", blob, nil, crossfield.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range full.Data() {
		if v != back.Data()[i] {
			t.Fatalf("full-level decode differs from Decompress at %d", i)
		}
	}
}

func TestGoldenCFC2V4Layered(t *testing.T) {
	if *update {
		regenGoldenLayered(t)
	}
	blob := readGolden(t, "chunked_cfc2v4.cfc")
	if blob[4] != 4 {
		t.Fatalf("fixture version byte = %d, want 4", blob[4])
	}
	if n, err := crossfield.ChunkCount(blob); err != nil || n != 3 {
		t.Fatalf("ChunkCount = %d, %v; want 3", n, err)
	}
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatalf("CFC2 v4 golden blob no longer decodes: %v", err)
	}
	requireExact(t, "CFC2v4", back, "chunked_cfc2.f32")
	spec, err := crossfield.PayloadLevels(blob)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("layer table reports %d levels, want 3", spec.Levels)
	}
	// Base-level random access stays within the base layer's advertised
	// bound over the chunk's slab range of the source field.
	part, start, achieved, err := crossfield.DecompressChunkAtLevel("W", blob, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if start != 2 {
		t.Fatalf("chunk 1 start = %d, want 2", start)
	}
	const slab = 10 * 12
	srcChunk := crossfield.MustNewField("W",
		goldenField().Data()[start*slab:(start+2)*slab], 2, 10, 12)
	bound := spec.Bound(0, 0.05)
	if achieved > bound {
		t.Fatalf("chunk base level: recorded max error %g over advertised bound %g", achieved, bound)
	}
	if maxErr, ok, err := crossfield.Verify(srcChunk, part, bound); err != nil || !ok {
		t.Fatalf("chunk base level: maxErr=%g over bound %g (ok=%v err=%v)", maxErr, bound, ok, err)
	}
	// The deepest chunk level agrees with the full reconstruction.
	deep, start2, _, err := crossfield.DecompressChunkAtLevel("W", blob, 1, crossfield.LevelFull, nil)
	if err != nil || start2 != start {
		t.Fatalf("full-level chunk decode: start=%d err=%v", start2, err)
	}
	for i, v := range deep.Data() {
		if v != back.Data()[start*slab+i] {
			t.Fatalf("full-level chunk decode differs from full decode at %d", i)
		}
	}
}

func TestGoldenCFC3V3LayeredArchive(t *testing.T) {
	if *update {
		regenGoldenLayeredArchive(t)
	}
	blob := readGolden(t, "archive_cfc3v3.cfc")
	if string(blob[:4]) != "CFC3" || blob[4] != 3 {
		t.Fatalf("fixture header = %q v%d, want CFC3 v3", blob[:4], blob[4])
	}
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatalf("CFC3 v3 golden archive no longer opens: %v", err)
	}
	// Full-fidelity decodes share the non-layered archive's expectations.
	for _, name := range ar.Fields() {
		f, err := ar.Field(name)
		if err != nil {
			t.Fatalf("field %s no longer decodes: %v", name, err)
		}
		requireExact(t, "CFC3v3/"+name, f, fmt.Sprintf("archive_cfc3_%s.f32", name))
	}
	// The dependent field's base level stays within its advertised bound
	// against the deterministic source dataset.
	spec, err := ar.FieldLevels("W")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("W layer table reports %d levels, want 3", spec.Levels)
	}
	fi, ok := ar.FieldInfoFor("W")
	if !ok {
		t.Fatal("W missing from manifest")
	}
	f0, achieved, err := ar.DecodeFieldAtLevel("W", 0)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := goldenDataset()
	bound := spec.Bound(0, fi.AbsEB)
	if achieved > bound {
		t.Fatalf("W base level: recorded max error %g over advertised bound %g", achieved, bound)
	}
	if maxErr, ok, err := crossfield.Verify(target, f0, bound); err != nil || !ok {
		t.Fatalf("W base level: maxErr=%g over bound %g (ok=%v err=%v)", maxErr, bound, ok, err)
	}
}

// goldenPayload is one compressed field the decode table walks: a bare
// fixture blob or one field of an archive fixture, with its full-fidelity
// expectation, its deterministic source, and the anchors it predicts from.
type goldenPayload struct {
	name    string
	blob    []byte
	want    []float32
	src     []float32
	dims    []int
	absEB   float64
	anchors []*tensor.Tensor
}

// goldenPayloads loads every fixture as decode-table input.
func goldenPayloads(t *testing.T) []goldenPayload {
	t.Helper()
	floats := func(file string) []float32 {
		b := readGolden(t, file)
		out := make([]float32, len(b)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
		return out
	}
	w := goldenField()
	var out []goldenPayload
	for _, fx := range []struct{ file, want string }{
		{"baseline_cfc1.cfc", "baseline_cfc1.f32"},
		{"baseline_cfc1v2.cfc", "baseline_cfc1.f32"},
		{"baseline_cfc1v3.cfc", "baseline_cfc1.f32"},
		{"chunked_cfc2v1.cfc", "chunked_cfc2.f32"},
		{"chunked_cfc2v2.cfc", "chunked_cfc2.f32"},
		{"chunked_cfc2v3.cfc", "chunked_cfc2.f32"},
		{"chunked_cfc2v4.cfc", "chunked_cfc2.f32"},
	} {
		out = append(out, goldenPayload{name: fx.file, blob: readGolden(t, fx.file), want: floats(fx.want),
			src: w.Data(), dims: w.Dims(), absEB: 0.05})
	}
	target, anchors := goldenDataset()
	sources := map[string]*crossfield.Field{target.Name: target}
	for _, a := range anchors {
		sources[a.Name] = a
	}
	for _, file := range []string{"archive_cfc3.cfc", "archive_cfc3v2.cfc", "archive_cfc3v2_mono.cfc", "archive_cfc3v3.cfc"} {
		ar, err := crossfield.OpenArchive(readGolden(t, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range ar.Manifest() {
			payload, err := ar.FieldPayload(fi.Name)
			if err != nil {
				t.Fatal(err)
			}
			p := goldenPayload{name: file + "/" + fi.Name, blob: payload,
				want: floats(fmt.Sprintf("archive_cfc3_%s.f32", fi.Name)),
				src:  sources[fi.Name].Data(), dims: fi.Dims, absEB: fi.AbsEB}
			for _, dep := range fi.Anchors {
				a, err := tensor.FromSlice(floats(fmt.Sprintf("archive_cfc3_%s.f32", dep)), fi.Dims...)
				if err != nil {
					t.Fatal(err)
				}
				p.anchors = append(p.anchors, a)
			}
			out = append(out, p)
		}
	}
	return out
}

// TestGoldenDecodeTable drives every fixture through the one decode
// pipeline, core.Decode, at every (chunk, level, workers): the deepest
// level must reproduce the committed expectation bit for bit, and every
// preview must honor the bound its layer table advertises against the
// deterministic source. One-chunk requests take whole anchor fields at
// one worker and the chunk's anchor slabs at two, so both anchor forms
// stay pinned.
func TestGoldenDecodeTable(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	for _, p := range goldenPayloads(t) {
		spec, err := crossfield.PayloadLevels(p.blob)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		infos, err := core.ChunkIndex(p.blob)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		slab := len(p.want) / p.dims[0]
		levels := []int{crossfield.LevelFull}
		for l := 0; l < spec.Levels; l++ {
			levels = append(levels, l)
		}
		for ci := core.WholeField; ci < len(infos); ci++ {
			lo, hi, dims := 0, len(p.want), p.dims
			if ci != core.WholeField {
				lo, hi = infos[ci].Start*slab, (infos[ci].Start+infos[ci].Slabs)*slab
				dims = append([]int{infos[ci].Slabs}, p.dims[1:]...)
			}
			for _, level := range levels {
				for _, workers := range []int{1, 2} {
					label := fmt.Sprintf("%s chunk=%d level=%d workers=%d", p.name, ci, level, workers)
					anchors := p.anchors
					if ci != core.WholeField && workers == 2 {
						anchors = nil
						for _, a := range p.anchors {
							s, err := tensor.FromSlice(a.Data()[lo:hi], dims...)
							if err != nil {
								t.Fatal(err)
							}
							anchors = append(anchors, s)
						}
					}
					got, start, achieved, err := core.Decode(context.Background(), bytes.NewReader(p.blob), int64(len(p.blob)),
						anchors, core.Request{Chunk: ci, Level: level, Workers: workers})
					if err != nil {
						t.Fatalf("%s: no longer decodes: %v", label, err)
					}
					if start*slab != lo || got.Len() != hi-lo {
						t.Fatalf("%s: start %d, %d values; want values [%d,%d)", label, start, got.Len(), lo, hi)
					}
					if level == crossfield.LevelFull || level == spec.Levels-1 {
						if !bytes.Equal(floatsToBytes(got.Data()), floatsToBytes(p.want[lo:hi])) {
							t.Fatalf("%s: differs from the committed expectation: old blobs no longer decode bit-exactly", label)
						}
						continue
					}
					bound := spec.Bound(level, p.absEB)
					if achieved > bound {
						t.Fatalf("%s: recorded max error %g over advertised bound %g", label, achieved, bound)
					}
					src := crossfield.MustNewField("src", p.src[lo:hi], dims...)
					rec := crossfield.MustNewField("rec", got.Data(), dims...)
					if maxErr, ok, err := crossfield.Verify(src, rec, bound); err != nil || !ok {
						t.Fatalf("%s: maxErr=%g over advertised bound %g (ok=%v err=%v)", label, maxErr, bound, ok, err)
					}
				}
			}
		}
	}
}

// TestFormatsSpecAgainstGoldenFixtures cross-checks docs/FORMATS.md's
// byte-level claims against the committed fixtures and a freshly written
// streaming archive: layer tables and the CFC3 v2 trailer geometry (magic
// strings and version bytes are TestGoldenFixturesCommitted's table). If this fails, either the formats drifted (regenerate
// fixtures deliberately) or the spec document is stale — fix whichever is
// wrong.
func TestFormatsSpecAgainstGoldenFixtures(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	// Layer-table claims: version-3 CFC1 (and the chunked v4 carrying it)
	// holds a base layer plus refinement planes whose byte prefixes grow
	// strictly and end at the whole blob — "consume any prefix, stop at any
	// layer" only works if the table's lengths describe the payload bytes
	// exactly.
	for _, file := range []string{"baseline_cfc1v3.cfc", "chunked_cfc2v4.cfc"} {
		b := readGolden(t, file)
		spec, err := crossfield.PayloadLevels(b)
		if err != nil {
			t.Errorf("%s: layer table unreadable: %v", file, err)
			continue
		}
		if spec.Levels < 2 {
			t.Errorf("%s: %d levels, spec requires a base layer plus refinement planes", file, spec.Levels)
		}
		prefixes, err := crossfield.PayloadLevelBytes(b)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		for l := 1; l < len(prefixes); l++ {
			if prefixes[l] <= prefixes[l-1] {
				t.Errorf("%s: level %d prefix %d not past level %d's %d", file, l, prefixes[l], l-1, prefixes[l-1])
			}
		}
		if got := prefixes[len(prefixes)-1]; got != int64(len(b)) {
			t.Errorf("%s: deepest prefix %d != blob size %d", file, got, len(b))
		}
		// Advertised bounds tighten monotonically to the full bound.
		for l := 1; l < spec.Levels; l++ {
			if spec.Bound(l, 0.05) >= spec.Bound(l-1, 0.05) {
				t.Errorf("%s: bound(%d)=%g not tighter than bound(%d)=%g",
					file, l, spec.Bound(l, 0.05), l-1, spec.Bound(l-1, 0.05))
			}
		}
		if spec.Bound(spec.Levels-1, 0.05) != 0.05 {
			t.Errorf("%s: deepest bound %g, spec says it collapses to the full bound", file, spec.Bound(spec.Levels-1, 0.05))
		}
	}
	// A freshly written archive is version 2: payloads at offset 5, then
	// manifest, then the 20-byte trailer ending in "CF3T", with the
	// documented size equation holding.
	target, anchors := goldenDataset()
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]}, {Field: target},
	}, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Blob
	if string(blob[:4]) != "CFC3" || blob[4] != 2 {
		t.Fatalf("streamed archive header = %q v%d, spec says CFC3 v2", blob[:4], blob[4])
	}
	tr := blob[len(blob)-20:]
	if string(tr[16:]) != "CF3T" {
		t.Fatalf("trailer magic = %q, spec says CF3T", tr[16:])
	}
	manOff := binary.LittleEndian.Uint64(tr[0:])
	manLen := binary.LittleEndian.Uint32(tr[8:])
	if manOff+uint64(manLen)+20 != uint64(len(blob)) {
		t.Fatalf("trailer geometry %d+%d+20 != blob size %d", manOff, manLen, len(blob))
	}
}

// TestGoldenFixturesCommitted fails fast with a helpful message when the
// fixture directory is missing entirely (e.g. a partial checkout), and
// asserts every container fixture's magic and version byte against the
// fixture table.
func TestGoldenFixturesCommitted(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("testdata/golden missing or empty (err=%v): run `go test -run TestGolden -update` and commit the fixtures", err)
	}
	for _, fx := range goldenFixtures {
		b, err := os.ReadFile(goldenPath(fx.file))
		if err != nil {
			t.Errorf("fixture %s missing: %v", fx.file, err)
			continue
		}
		if magic, version := fixtureHeader(b); magic != fx.magic || version != fx.version {
			t.Errorf("%s: header %q v%d, want %q v%d", fx.file, magic, version, fx.magic, fx.version)
		}
	}
	for _, want := range []string{
		"baseline_cfc1.f32", "chunked_cfc2.f32",
		"archive_cfc3_U.f32", "archive_cfc3_V.f32", "archive_cfc3_PRES.f32", "archive_cfc3_W.f32",
	} {
		if _, err := os.Stat(goldenPath(want)); err != nil {
			t.Errorf("expectation %s missing: %v", want, err)
		}
	}
}
