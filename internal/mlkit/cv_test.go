package mlkit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"yourandvalue/internal/stats"
)

func TestKFoldCoverage(t *testing.T) {
	folds := KFold(103, 10, 1)
	if len(folds) != 10 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f.TestIdx {
			seen[i]++
		}
		if len(f.TrainIdx)+len(f.TestIdx) != 103 {
			t.Fatal("fold does not partition the data")
		}
		inTest := map[int]bool{}
		for _, i := range f.TestIdx {
			inTest[i] = true
		}
		for _, i := range f.TrainIdx {
			if inTest[i] {
				t.Fatal("row in both train and test")
			}
		}
	}
	if len(seen) != 103 {
		t.Fatalf("only %d rows covered", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("row %d in %d test sets", i, n)
		}
	}
}

func TestKFoldSmallEdge(t *testing.T) {
	folds := KFold(3, 10, 2)
	if len(folds) != 3 {
		t.Errorf("k should clamp to n: %d", len(folds))
	}
	folds = KFold(10, 1, 3)
	if len(folds) != 2 {
		t.Errorf("k should clamp up to 2: %d", len(folds))
	}
}

func TestKFoldDeterminism(t *testing.T) {
	a, b := KFold(50, 5, 7), KFold(50, 5, 7)
	for i := range a {
		if len(a[i].TestIdx) != len(b[i].TestIdx) {
			t.Fatal("fold sizes differ")
		}
		for j := range a[i].TestIdx {
			if a[i].TestIdx[j] != b[i].TestIdx[j] {
				t.Fatal("fold contents differ under same seed")
			}
		}
	}
}

func TestCrossValidateForest(t *testing.T) {
	X, y := noisyData(600, 51)
	rep, err := CrossValidateForest(X, y, 3, 5, 2, ForestConfig{Trees: 15, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.75 {
		t.Errorf("CV accuracy %.3f", rep.Accuracy)
	}
	if rep.AUCROC < 0.85 {
		t.Errorf("CV AUC %.3f", rep.AUCROC)
	}
	// Aggregated confusion covers runs × n rows.
	if rep.Confusion.Total() != 2*600 {
		t.Errorf("confusion total %d", rep.Confusion.Total())
	}
	if _, err := CrossValidateForest(nil, nil, 3, 5, 1, ForestConfig{}); err == nil {
		t.Error("empty CV accepted")
	}
}

// TestCrossValidateDegenerateFolds: KFold clamps k to n, so one row
// leaves a fold with nothing to train on. That, like an empty set, is
// an error, not a panic in the bootstrap draw.
func TestCrossValidateDegenerateFolds(t *testing.T) {
	for _, c := range []struct {
		name string
		X    [][]float64
		y    []int
	}{{"empty", nil, nil}, {"one row", [][]float64{{1, 2}}, []int{1}}} {
		for _, workers := range []int{1, 2} {
			cfg := ForestConfig{Trees: 3, Seed: 1, Workers: workers}
			if _, err := CrossValidateForest(c.X, c.y, 2, 10, 1, cfg); !errors.Is(err, ErrBadTrainingData) {
				t.Errorf("%s/workers=%d: CrossValidateForest err %v", c.name, workers, err)
			}
			if _, _, err := TrainForestCV(c.X, c.y, 2, 10, 1, cfg, nil); !errors.Is(err, ErrBadTrainingData) {
				t.Errorf("%s/workers=%d: TrainForestCV err %v", c.name, workers, err)
			}
		}
	}
}

// TestStartForestCVReadyFirst pins the ready-first path at worker
// counts {1, 2, 7}: StartForestCV returns the forest TrainForest trains,
// node for node with the same importance and OOB error, after its
// callback ran exactly once; the report that lands later is
// CrossValidateForest's, bit for bit and cell for cell.
func TestStartForestCVReadyFirst(t *testing.T) {
	X, y := sShapedData(400, 33)
	base := ForestConfig{Trees: 6, MaxDepth: 24, MinLeaf: 1, Seed: 34}
	want, err := CrossValidateForest(X, y, 4, 10, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		cfg := base
		cfg.Workers = workers
		name := fmt.Sprintf("workers=%d", workers)
		ref, err := TrainForest(X, y, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		forest, cv, err := StartForestCV(context.Background(), X, y, 4, 10, 1, cfg, func(*FlatForest) { calls++ })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if calls != 1 {
			t.Fatalf("%s: callback ran %d times before StartForestCV returned", name, calls)
		}
		sameFlat(t, name, forest, ref)
		sameBits(t, name+" importance", forest.importance, ref.importance)
		if math.Float64bits(forest.OOBError()) != math.Float64bits(ref.OOBError()) {
			t.Fatalf("%s: OOB %v, want %v", name, forest.OOBError(), ref.OOBError())
		}
		got, err := cv.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameReport(t, name, got, want)
	}
}

// TestStartForestCVCancel: a run whose context has ended still returns
// the whole forest, takes no fold after the next fold boundary, and
// reports the context's error once its pool has exited. Cancelled
// before the start, it runs no fold; cancelled from the ready callback,
// it runs none on one worker, and elsewhere either stops or, if every
// fold was already taken, reports the full report — never a partial one.
func TestStartForestCVCancel(t *testing.T) {
	X, y := sShapedData(400, 35)
	for _, workers := range []int{1, 2, 7} {
		cfg := ForestConfig{Trees: 4, MaxDepth: 24, MinLeaf: 1, Seed: 36, Workers: workers}
		want, err := CrossValidateForest(X, y, 4, 10, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		forest, cv, err := StartForestCV(ctx, X, y, 4, 10, 1, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(forest.Roots) != 4 {
			t.Fatalf("workers=%d: forest not finished", workers)
		}
		if _, err := cv.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Wait(cancelled ctx) = %v", workers, err)
		}
		// Returns only after every pool goroutine has exited.
		if _, err := cv.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: run cancelled before start reported %v", workers, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		_, cv, err = StartForestCV(ctx, X, y, 4, 10, 1, cfg, func(*FlatForest) { cancel() })
		if err != nil {
			t.Fatal(err)
		}
		got, err := cv.Wait(context.Background())
		switch {
		case errors.Is(err, context.Canceled):
		case err == nil && workers > 1:
			sameReport(t, fmt.Sprintf("workers=%d", workers), got, want)
		default:
			t.Fatalf("workers=%d: run cancelled at ready reported %v", workers, err)
		}
	}
}

// TestStartForestCVReleasesX: past ready the folds score from the rank
// columns, so X (and the callback holding it) is garbage while they run.
func TestStartForestCVReleasesX(t *testing.T) {
	X, y := sShapedData(3000, 37)
	var freed atomic.Int64
	for i := range X {
		row := slices.Clone(X[i])
		runtime.SetFinalizer(&row[0], func(*float64) { freed.Add(1) })
		X[i] = row
	}
	n := int64(len(X))
	cfg := ForestConfig{Trees: 10, MaxDepth: 24, MinLeaf: 1, Seed: 38, Workers: 2}
	_, cv, err := StartForestCV(context.Background(), X, y, 4, 10, 3, cfg,
		func(f *FlatForest) { f.RepresentativeTree(X) })
	if err != nil {
		t.Fatal(err)
	}
	X = nil
	for freed.Load() < n {
		select {
		case <-cv.done:
			t.Fatalf("cross-validation finished with %d of %d rows of X still reachable", n-freed.Load(), n)
		default:
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := cv.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCrossValidateForest runs the bootstrap's §5.4 protocol shape
// — 10 folds × 1 run of 40 depth-24, single-sample-leaf trees on the
// 8,640×89 S-shaped set BenchmarkTrainForest uses — with the folds on
// one worker and on GOMAXPROCS workers.
func BenchmarkCrossValidateForest(b *testing.B) {
	X, y := sShapedData(8640, 31)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := ForestConfig{Trees: 40, MaxDepth: 24, MinLeaf: 1, Seed: 32, Workers: bc.workers}
			for b.Loop() {
				if _, err := CrossValidateForest(X, y, 4, 10, 1, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestVarianceFilter(t *testing.T) {
	rng := stats.NewRand(61)
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{
			1.0,                  // constant → dropped
			rng.Float64(),        // normal variance → kept
			rng.Float64() * 1000, // huge variance → dropped at q=0.5
			rng.Float64() * 1.1,  // similar to f1 → kept
		}
	}
	keep := VarianceFilter(X, 0.9)
	kept := map[int]bool{}
	for _, f := range keep {
		kept[f] = true
	}
	if kept[0] {
		t.Error("constant feature survived")
	}
	if !kept[1] || !kept[3] {
		t.Errorf("normal features dropped: %v", keep)
	}
	if kept[2] {
		t.Error("high-variance feature survived q=0.9 filter")
	}
	if VarianceFilter(nil, 0.9) != nil {
		t.Error("empty input")
	}
}

func TestSelectColumns(t *testing.T) {
	X := [][]float64{{1, 2, 3}, {4, 5, 6}}
	out := SelectColumns(X, []int{2, 0})
	if out[0][0] != 3 || out[0][1] != 1 || out[1][0] != 6 || out[1][1] != 4 {
		t.Errorf("projection wrong: %v", out)
	}
}
