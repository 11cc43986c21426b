package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/stats"
)

func TestCompactModelRoundTrip(t *testing.T) {
	f := pipeline(t)
	blob, err := f.model.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompactModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Forest != nil || back.Tree != nil {
		t.Fatal("compact decode materialized pointer nodes")
	}
	// Estimates must be bit-identical through the flat-only model.
	for _, rec := range f.a1.Records[:300] {
		x1 := f.model.Features.FromRecord(rec)
		x2 := back.Features.FromRecord(rec)
		if f.model.EstimateCPM(x1) != back.EstimateCPM(x2) {
			t.Fatal("estimate diverged through compact round trip")
		}
		if f.model.EstimateCPMTree(x1) != back.EstimateCPMTree(x2) {
			t.Fatal("tree estimate diverged through compact round trip")
		}
	}
	if back.Version != f.model.Version {
		t.Errorf("version %d != %d", back.Version, f.model.Version)
	}
	if back.TimeShift != f.model.TimeShift {
		t.Error("time shift lost")
	}
	if !back.TrainedAt.Equal(f.model.TrainedAt) {
		t.Error("trained-at lost")
	}
	if back.Metrics.TrainSize != f.model.Metrics.TrainSize {
		t.Error("metrics lost")
	}
}

// TestDecodeParentFormatMetrics: blobs whose header metrics still carry
// the cross-validated fields in the model itself — the format published
// while the cross-validation ran before publish — decode with those
// fields intact.
func TestDecodeParentFormatMetrics(t *testing.T) {
	f := pipeline(t)
	old := ModelMetrics{Accuracy: 0.5875, FPRate: 0.137, Precision: 0.58, Recall: 0.5875,
		AUCROC: 0.83, Classes: 4, TrainSize: 8640}
	oldJSON := `{"accuracy":0.5875,"fp_rate":0.137,"precision":0.58,"recall":0.5875,"auc_roc":0.83,"classes":4,"train_size":8640}`
	m := f.model.CloneWithVersion(1, f.model.TrainedAt)
	m.Metrics = ModelMetrics{Classes: 4, TrainSize: 8640}
	const published = `"metrics":{"oob_error":0,"classes":4,"train_size":8640}`

	compact, err := m.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	// The header is length-prefixed: rewrite it and its length.
	hdrLen := int(binary.LittleEndian.Uint32(compact[6:]))
	hdr := bytes.Replace(compact[10:10+hdrLen], []byte(published), []byte(`"metrics":`+oldJSON), 1)
	if bytes.Equal(hdr, compact[10:10+hdrLen]) {
		t.Fatal("compact header metrics not in the expected form")
	}
	parent := binary.LittleEndian.AppendUint32(slices.Clone(compact[:6]), uint32(len(hdr)))
	parent = append(append(parent, hdr...), compact[10+hdrLen:]...)
	back, err := DecodeCompactModel(parent)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics != old {
		t.Fatalf("compact blob metrics %+v, want %+v", back.Metrics, old)
	}
}

func TestDecodeCompactModelRejectsCorruption(t *testing.T) {
	f := pipeline(t)
	blob, err := f.model.EncodeCompact()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, b []byte) {
		if _, err := DecodeCompactModel(b); !errors.Is(err, ErrBadCompactModel) {
			t.Errorf("%s: err = %v, want ErrBadCompactModel", name, err)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("XXXX"), blob[4:]...))
	{
		b := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(b[4:], 99)
		check("future version", b)
	}
	check("truncated header", blob[:8])
	check("truncated body", blob[:len(blob)-3])
	check("trailing bytes", append(append([]byte(nil), blob...), 0xAB))
	{
		// Grow a split feature index past the feature space.
		ff := f.model.FlatForest()
		for i, ft := range ff.Feats {
			_ = i
			if ft >= 0 {
				b := append([]byte(nil), blob...)
				// Find the forest section: magic+2, skip header section.
				off := len(compactMagic) + 2
				hlen := int(binary.LittleEndian.Uint32(b[off:]))
				off += 4 + hlen + 4 // header + forest length prefix
				featOff := off + 12 + 4*len(ff.Roots) + 4*i
				binary.LittleEndian.PutUint32(b[featOff:], uint32(1<<20))
				check("feature out of range", b)
				break
			}
		}
	}
}

func TestEncodeCompactNeedsForest(t *testing.T) {
	m := &Model{Features: &SFeatures{Names: []string{"a"}}}
	if _, err := m.EncodeCompact(); err == nil {
		t.Error("forest-less model encoded")
	}
}

// smallModel trains a deliberately small model — three shallow trees
// over random S vectors — so a compact blob of it stays a few KB, a
// size the fuzzer can mutate usefully.
func smallModel(tb testing.TB) *Model {
	tb.Helper()
	feats := NewSFeatures(nil)
	rng := stats.NewRand(5)
	X := make([][]float64, 200)
	prices := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, feats.Dim())
		for j := range X[i] {
			if rng.Float64() < 0.2 {
				X[i][j] = 1
			}
		}
		prices[i] = 0.1 + rng.Float64()
	}
	binner, err := mlkit.NewBinner(prices, 4)
	if err != nil {
		tb.Fatal(err)
	}
	forest, err := mlkit.TrainForest(X, binner.Labels(prices), binner.Classes(),
		mlkit.ForestConfig{Trees: 3, MaxDepth: 4, Seed: 6})
	if err != nil {
		tb.Fatal(err)
	}
	return &Model{
		Version:   3,
		TrainedAt: time.Date(2016, 6, 15, 0, 0, 0, 0, time.UTC),
		Features:  feats,
		Binner:    binner,
		Forest:    forest,
		Tree:      forest.RepresentativeTree(X),
		TimeShift: 1.25,
	}
}

// FuzzDecodeCompactModel feeds arbitrary bytes to the compact decoder:
// it must either reject them or return a model that estimates a zero S
// vector without panicking and that re-encodes into a blob which
// decodes again.
func FuzzDecodeCompactModel(f *testing.F) {
	blob, err := smallModel(f).EncodeCompact()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeCompactModel(blob); err != nil {
		f.Fatal(err)
	}
	// The whole blob, then truncations at and around every section
	// boundary: magic, version, header, forest, tree flag, tree.
	hdrEnd := len(compactMagic) + 2 + 4 + int(binary.LittleEndian.Uint32(blob[len(compactMagic)+2:]))
	forestEnd := hdrEnd + 4 + int(binary.LittleEndian.Uint32(blob[hdrEnd:]))
	f.Add(blob)
	for _, n := range []int{0, 3, 6, 9, hdrEnd - 1, hdrEnd, hdrEnd + 12, forestEnd, forestEnd + 1, forestEnd + 5, len(blob) - 1} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeCompactModel(b)
		if err != nil {
			return
		}
		zero := make([]float64, m.Features.Dim())
		m.EstimateCPM(zero)
		if m.FlatTree() != nil {
			m.EstimateCPMTree(zero)
		}
		again, err := m.EncodeCompact()
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		if _, err := DecodeCompactModel(again); err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
	})
}
