package crossfield_test

// Integration tests across the public API and the file-based tool workflow
// (dataset save/load, model save/load, blob portability) — what cmd/cfgen,
// cmd/cftrain, and cmd/cfc do, exercised as a library.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestFileWorkflowRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// cfgen: generate and save a dataset.
	ds, err := sim.GenerateHurricane(sim.HurricaneSpec{NZ: 6, NY: 32, NX: 32, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SaveDataset(dir, ds); err != nil {
		t.Fatal(err)
	}

	// cftrain: load, train, save the model.
	loaded, err := sim.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	target := loaded.MustField("Wf")
	uf := loaded.MustField("Uf")
	vf := loaded.MustField("Vf")
	pf := loaded.MustField("Pf")
	anchorFields := []*tensor.Tensor{uf, vf, pf}
	model, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: 3, Features: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train(anchorFields, target, cfnn.TrainConfig{
		Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 23,
	}); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "wf.cfnn")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	// cfc: reload model, round-trip anchors through the baseline, compress
	// hybrid, write the blob, reload, decompress, verify.
	mf2, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model2, err := cfnn.Load(mf2)
	mf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	bound := quant.RelBound(1e-3)
	var anchorsDec []*tensor.Tensor
	for _, a := range anchorFields {
		blob, _ := coreCompress(t, a, nil, nil, core.Options{Bound: bound})
		dec, err := core.Decompress(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		anchorsDec = append(anchorsDec, dec)
	}
	hybrid, st := coreCompress(t, target, model2, anchorsDec, core.Options{Bound: bound})
	blobPath := filepath.Join(dir, "wf.cfc")
	if err := os.WriteFile(blobPath, hybrid, 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := core.Decompress(blob, anchorsDec)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, ok, err := core.VerifyBound(target, recon, st.AbsEB)
	if err != nil || !ok {
		t.Fatalf("file workflow bound violated: %v (err %v)", maxErr, err)
	}
}

// Compression must be deterministic across runs: identical inputs yield
// byte-identical blobs (worker count does not leak into the output).
func TestCompressionDeterministic(t *testing.T) {
	ds, err := crossfield.GenerateHurricane(6, 32, 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("Wf")
	bound := crossfield.Rel(1e-3)
	a, err := crossfield.CompressBaseline(target, bound)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crossfield.CompressBaseline(target, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Blob, b.Blob) {
		t.Fatal("baseline compression not deterministic")
	}
}

// Training with the same seed must be bit-reproducible.
func TestTrainingDeterministic(t *testing.T) {
	ds, err := crossfield.GenerateHurricane(6, 24, 24, 25)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("Wf")
	anchors, err := ds.Fieldset("Uf", "Vf", "Pf")
	if err != nil {
		t.Fatal(err)
	}
	tr := crossfield.Training{Features: 4, Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 26}
	c1, err := crossfield.Train(target, anchors, tr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := crossfield.Train(target, anchors, tr)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := c1.TrainingLosses(), c2.TrainingLosses()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("training not deterministic: %v vs %v", l1, l2)
		}
	}
}

// Blob from one codec instance must decompress with a freshly-loaded model
// (the model travels inside the blob).
func TestBlobSelfContainedModel(t *testing.T) {
	ds, err := crossfield.GenerateCESM(32, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("LWCF")
	anchors, err := ds.Fieldset("FLUTC", "FLNT")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 4, Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := crossfield.Rel(1e-3)
	var anchorsDec []*crossfield.Field
	for _, a := range anchors {
		comp, err := crossfield.CompressBaseline(a, bound)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := crossfield.Decompress(a.Name, comp.Blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		anchorsDec = append(anchorsDec, dec)
	}
	res, err := codec.Compress(target, anchorsDec, bound)
	if err != nil {
		t.Fatal(err)
	}
	// Decompress through the package-level function — no codec object.
	recon, err := crossfield.Decompress("LWCF", res.Blob, anchorsDec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crossfield.Verify(target, recon, res.Stats.AbsEB); err != nil || !ok {
		t.Fatalf("self-contained decompress failed (err %v)", err)
	}
}
