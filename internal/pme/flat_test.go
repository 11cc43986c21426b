package pme

import (
	"context"
	"fmt"
	"testing"

	"yourandvalue/internal/core"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/stats"
)

// flatItems builds a varied batch big enough to cross EstimateInto's
// chunk boundary.
func flatItems(n int) []EstimateItem {
	adxs := []string{"DoubleClick", "MoPub", "Rubicon", "AppNexus"}
	cities := []string{"Madrid", "Berlin", "London", ""}
	items := make([]EstimateItem, n)
	for i := range items {
		items[i] = EstimateItem{
			ADX:     adxs[i%len(adxs)],
			City:    cities[i%len(cities)],
			OS:      "Android",
			Origin:  "app",
			Slot:    fmt.Sprintf("%dx%d", 300+(i%3)*20, 250),
			Hour:    i % 24,
			Weekday: i % 7,
		}
	}
	return items
}

// TestPublishCompactBlob: a snapshot's blob is the compact encoding of
// its model, and the decoded blob estimates like the serving model.
func TestPublishCompactBlob(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	snap, err := reg.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeCompactModel(snap.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != snap.Version {
		t.Errorf("blob version %d, snapshot %d", back.Version, snap.Version)
	}
	sess := &EstimateSession{snap: snap, vec: make([]float64, snap.Model.Features.Dim())}
	vec := make([]float64, back.Features.Dim())
	for i, it := range flatItems(40) {
		want := sess.Estimate(&it)
		hour, weekday := it.timeFeatures()
		back.Features.EncodeStringsInto(vec, core.StringContext{
			ADX: it.ADX, City: it.City, OS: it.OS, Device: it.Device,
			Origin: it.Origin, Slot: it.Slot, IAB: it.IAB,
			Hour: hour, Weekday: weekday,
		})
		if got := back.EstimateCPM(vec); got != want {
			t.Fatalf("item %d: decoded blob estimates %v, serving model %v", i, got, want)
		}
	}
}

func TestEstimateIntoMatchesEstimate(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	svc := NewCore(reg, NewPool(0))
	ctx := context.Background()

	// 600 items crosses the 256-chunk boundary twice, with a ragged tail.
	items := flatItems(600)
	res, err := svc.EstimateBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenEstimateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if want := sess.Estimate(&items[i]); res.EstimatesCPM[i] != want {
			t.Fatalf("item %d: batch %v, per-item %v", i, res.EstimatesCPM[i], want)
		}
	}

	// Around the chunk boundary, through fresh sessions and through one
	// warm session whose scratch grows from one row to a full chunk and
	// is then reused by smaller requests.
	for _, n := range []int{1, 255, core.EstimateChunk, 257, 600, 1} {
		fresh, err := svc.EstimateBatch(ctx, items[:n])
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		sess.EstimateInto(dst, items[:n])
		for i := range dst {
			want := res.EstimatesCPM[i]
			if fresh.EstimatesCPM[i] != want || dst[i] != want {
				t.Fatalf("n=%d item %d: batch %v, warm session %v, per-item %v",
					n, i, fresh.EstimatesCPM[i], dst[i], want)
			}
		}
	}
}

// TestEstimateIntoZeroAlloc pins the direct path's scratch contract: a
// session's first EstimateInto sizes its encode matrix to the request,
// never past core.EstimateChunk rows, and a warm session allocates
// nothing.
func TestEstimateIntoZeroAlloc(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	sess, err := NewCore(reg, NewPool(0)).OpenEstimateSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	items := flatItems(600)
	dst := make([]float64, len(items))
	for _, n := range []int{8, len(items)} {
		sess.EstimateInto(dst, items[:n])
		if want := min(n, core.EstimateChunk); len(sess.rows) != want {
			t.Fatalf("%d-item request built %d scratch rows, want %d", n, len(sess.rows), want)
		}
		if raceEnabled {
			continue
		}
		if a := testing.AllocsPerRun(20, func() { sess.EstimateInto(dst, items[:n]) }); a != 0 {
			t.Errorf("warm %d-item EstimateInto: %v allocs/op, want 0", n, a)
		}
	}
}

// TestHotSwapServesFreshFlat guards the stale-cache hazard: after a
// publish replaces the forest, every flat-routed path must serve the
// new forest's predictions, never a previously compiled one.
func TestHotSwapServesFreshFlat(t *testing.T) {
	m := testModel(t)
	reg := NewRegistry()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}

	// A second model with the same feature space but a freshly trained
	// forest over random labels — predictions will genuinely differ.
	dim := m.Features.Dim()
	classes := m.Binner.Classes()
	rng := stats.NewRand(77)
	X := make([][]float64, 400)
	y := make([]int, len(X))
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = rng.Intn(classes)
	}
	forest, err := mlkit.TrainForest(X, y, classes, mlkit.ForestConfig{Trees: 5, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	m2 := *m
	m2.Forest = forest
	snap2, err := reg.Publish(&m2)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewCore(reg, NewPool(0))
	items := flatItems(300)
	res, err := svc.EstimateBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != snap2.Version {
		t.Fatalf("serving version %d, want %d", res.Version, snap2.Version)
	}
	// Ground truth from a fresh compile of the new forest, bypassing
	// every flat cache.
	fresh := forest.Compile()
	vec := make([]float64, dim)
	for i := range items {
		hour, weekday := items[i].timeFeatures()
		snap2.Model.Features.EncodeStringsInto(vec, core.StringContext{
			ADX: items[i].ADX, City: items[i].City, OS: items[i].OS,
			Device: items[i].Device, Origin: items[i].Origin,
			Slot: items[i].Slot, IAB: items[i].IAB,
			Hour: hour, Weekday: weekday,
		})
		want := snap2.Model.Binner.Representative(fresh.Predict(vec))
		if res.EstimatesCPM[i] != want {
			t.Fatalf("item %d: estimate %v, new forest says %v — stale flat cache?", i, res.EstimatesCPM[i], want)
		}
	}
}
