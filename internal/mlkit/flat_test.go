package mlkit

import (
	"math"
	"testing"

	"yourandvalue/internal/stats"
)

// fuzzVectors builds adversarial test vectors for equivalence checks:
// uniform random rows, rows salted with NaN/±Inf, and rows sitting
// exactly on thresholds harvested from the trained forest (the x ==
// Threshold boundary is where a flat/pointer comparison divergence
// would hide).
func fuzzVectors(f *Forest, dim, n int, seed int64) [][]float64 {
	rng := stats.NewRand(seed)
	var thresholds []float64
	var collect func(nd *Node)
	collect = func(nd *Node) {
		if nd == nil || nd.Leaf {
			return
		}
		thresholds = append(thresholds, nd.Threshold)
		collect(nd.Left)
		collect(nd.Right)
	}
	for _, t := range f.Trees {
		collect(t.Root)
	}
	X := make([][]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64() * 2
		}
		switch i % 5 {
		case 1:
			row[rng.Intn(dim)] = math.NaN()
		case 2:
			row[rng.Intn(dim)] = math.Inf(1)
			row[rng.Intn(dim)] = math.Inf(-1)
		case 3:
			if len(thresholds) > 0 {
				// Land exactly on a real split threshold.
				for k := 0; k < 3; k++ {
					row[rng.Intn(dim)] = thresholds[rng.Intn(len(thresholds))]
				}
			}
		}
		X[i] = row
	}
	return X
}

func TestFlatForestEquivalence(t *testing.T) {
	X, y := noisyData(800, 21)
	f, err := TrainForest(X, y, 3, ForestConfig{Trees: 25, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	ff := f.Flat()
	if ff.NumTrees() != len(f.Trees) {
		t.Fatalf("NumTrees = %d, want %d", ff.NumTrees(), len(f.Trees))
	}
	vecs := fuzzVectors(f, 10, 500, 23)
	for vi, x := range vecs {
		if got, want := ff.Predict(x), refForestPredict(f, x); got != want {
			t.Fatalf("vec %d: flat Predict = %d, pointer = %d", vi, got, want)
		}
		for ti, tr := range f.Trees {
			if got, want := int(ff.walk(ff.Roots[ti], x)), tr.Predict(x); got != want {
				t.Fatalf("vec %d tree %d: flat = %d, pointer = %d", vi, ti, got, want)
			}
		}
	}
}

func TestFlatForestProbaEquivalence(t *testing.T) {
	X, y := noisyData(500, 31)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 17, Seed: 32})
	ff := f.Flat()
	dst := make([]float64, 3)
	for _, x := range fuzzVectors(f, 10, 200, 33) {
		want := refForestProba(f, x)
		ff.PredictProbaInto(dst, x)
		for c := range want {
			// Bit-identical, not approximately equal: same counts, same division.
			if dst[c] != want[c] {
				t.Fatalf("proba class %d: flat %v, pointer %v", c, dst[c], want[c])
			}
		}
	}
}

// TestFlatForestBatchMatchesSingle covers every lockstep tail (n mod 4)
// below and around the 256-row chunk the estimate paths use, and a
// batch larger than one chunk.
func TestFlatForestBatchMatchesSingle(t *testing.T) {
	X, y := noisyData(400, 41)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 12, Seed: 42})
	ff := f.Flat()
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 391, 4095, 4096} {
		vecs := fuzzVectors(f, 10, n, int64(50+n))
		dst := make([]int, n)
		ff.PredictInto(dst, vecs)
		for i, x := range vecs {
			if want := ff.Predict(x); dst[i] != want {
				t.Fatalf("batch n=%d row %d: %d != %d", n, i, dst[i], want)
			}
		}
	}
}

// chainTree builds a tree that is one right-leaning chain of depth
// splits on x[k%dim] <= 0.5, each with a leaf of class k%3 on its left.
// A row of zeros stops at depth 1; a row of ones, NaNs or +Infs runs the
// whole chain.
func chainTree(depth, dim int) *Tree {
	end := &Node{Leaf: true, Counts: []int{1, 0, 2}}
	next := end
	for k := depth - 1; k >= 0; k-- {
		counts := make([]int, 3)
		counts[k%3] = 1
		next = &Node{
			Feature: k % dim, Threshold: 0.5,
			Left:  &Node{Leaf: true, Counts: counts},
			Right: next,
		}
	}
	return &Tree{Classes: 3, Root: next}
}

// lanes returns every 4-row group over kinds, concatenated, so each
// kind sits at each lane position of a lockstep group beside every
// combination of the others.
func lanes(kinds [][]float64) [][]float64 {
	var rows [][]float64
	k := len(kinds)
	for g := 0; g < k*k*k*k; g++ {
		for lane, c := 0, g; lane < 4; lane, c = lane+1, c/k {
			rows = append(rows, kinds[c%k])
		}
	}
	return rows
}

// TestFlatLockstepLanes puts NaN, ±Inf and exact-threshold rows at each
// lane position of walk4's groups, beside lanes that reach a leaf first
// while the others are still deep, and checks PredictInto against the
// pointer walk row by row. Prefix rows shift the groups by 0–3, which
// also leaves 0–3 rows at the end for the scalar tail.
func TestFlatLockstepLanes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	check := func(name string, ff *FlatForest, want func([]float64) int, rows [][]float64) {
		t.Helper()
		for shift := 0; shift < 4; shift++ {
			X := append(append([][]float64(nil), rows[:shift]...), rows...)
			dst := make([]int, len(X))
			ff.PredictInto(dst, X)
			for i, x := range X {
				if w := want(x); dst[i] != w {
					t.Fatalf("%s shift %d row %d %v: batch %d, pointer %d", name, shift, i, x, dst[i], w)
				}
			}
		}
	}

	chain := chainTree(12, 3)
	check("chain", chain.Flat(), chain.Predict, lanes([][]float64{
		{0, 0, 0},       // leaf at depth 1
		{1, 1, 1},       // the whole chain
		{nan, nan, nan}, // NaN branches right: the whole chain
		{inf, inf, inf}, // the whole chain
		{1, -inf, 1},    // -Inf goes left at depth 2
		{1, 1, 0.5},     // exactly on the threshold: left at depth 3
		{1, nan, -inf},  // right, right, then left at depth 3
	}))

	X, y := noisyData(400, 43)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 9, MaxDepth: 24, MinLeaf: 1, Seed: 44})
	// Each tree's root split, exactly on its threshold.
	onThr := make([]float64, 10)
	for _, tr := range f.Trees {
		onThr[tr.Root.Feature] = tr.Root.Threshold
	}
	kinds := [][]float64{X[0], X[1], onThr, make([]float64, 10), make([]float64, 10), make([]float64, 10)}
	for j := range 10 {
		kinds[3][j], kinds[4][j], kinds[5][j] = nan, inf, -inf
	}
	check("forest", f.Flat(), func(x []float64) int { return refForestPredict(f, x) }, lanes(kinds))
}

// FuzzFlatPredictInto checks the lockstep batch walk against the
// single-row walk on rows decoded from the fuzz input, ten bytes a row.
// A byte maps to NaN, ±Inf, one of the forest's own split thresholds or
// a value in [0, 2), so rows land on split boundaries and in every
// branch.
func FuzzFlatPredictInto(f *testing.F) {
	X, y := noisyData(300, 111)
	forest, err := TrainForest(X, y, 3, ForestConfig{Trees: 8, MaxDepth: 24, MinLeaf: 1, Seed: 112})
	if err != nil {
		f.Fatal(err)
	}
	ff := forest.Flat()
	var thrs []float64
	for i, ft := range ff.Feats {
		if ft >= 0 {
			thrs = append(thrs, ff.Thrs[i])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("0123456789"))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09abcdefghijklmnopqrstuvwxyz\x80\xff\x90\xa0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const dim = 10
		n := min(len(data)/dim, 1024)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, dim)
			for j, b := range data[i*dim : (i+1)*dim] {
				switch {
				case b == 0:
					row[j] = math.NaN()
				case b == 1:
					row[j] = math.Inf(1)
				case b == 2:
					row[j] = math.Inf(-1)
				case b < 128:
					row[j] = thrs[int(b)%len(thrs)]
				default:
					row[j] = float64(b-128) / 64
				}
			}
			rows[i] = row
		}
		dst := make([]int, n)
		ff.PredictInto(dst, rows)
		for i, x := range rows {
			if want := ff.Predict(x); dst[i] != want {
				t.Fatalf("row %d of %d %v: PredictInto %d, Predict %d", i, n, x, dst[i], want)
			}
		}
	})
}

func TestFlatTreeEquivalence(t *testing.T) {
	X, y := noisyData(400, 51)
	tr, err := trainTree(X, y, 3, TreeConfig{MaxDepth: 8, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	ft := tr.Flat()
	if ft.NumTrees() != 1 {
		t.Fatalf("tree flat has %d roots", ft.NumTrees())
	}
	for _, x := range X {
		if got, want := ft.Predict(x), tr.Predict(x); got != want {
			t.Fatalf("flat tree %d != pointer %d", got, want)
		}
	}
}

// TestFlatNilChildren pins the synthetic-leaf fallback: a hand-built
// tree with nil children must compile to the same class-0 fallback the pointer walk computes.
func TestFlatNilChildren(t *testing.T) {
	tr := &Tree{
		Classes: 3,
		Root: &Node{
			Feature:   0,
			Threshold: 0.5,
			Left:      nil, // pointer walk: nil → zero counts → class 0
			Right:     &Node{Leaf: true, Counts: []int{1, 5, 2}},
		},
	}
	ff := tr.Flat()
	for _, x := range [][]float64{{0.1}, {0.5}, {0.9}, {math.NaN()}} {
		if got, want := ff.Predict(x), tr.Predict(x); got != want {
			t.Fatalf("x=%v: flat %d, pointer %d", x, got, want)
		}
	}
}

func TestFlatForestBinaryRoundTrip(t *testing.T) {
	X, y := noisyData(600, 61)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 15, Seed: 62})
	ff := f.Flat()
	blob := ff.AppendBinary(nil)
	if len(blob) != ff.BinarySize() {
		t.Fatalf("encoded %d bytes, BinarySize says %d", len(blob), ff.BinarySize())
	}
	dec, n, err := DecodeFlatForest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d bytes", n, len(blob))
	}
	for _, x := range fuzzVectors(f, 10, 300, 63) {
		if got, want := dec.Predict(x), ff.Predict(x); got != want {
			t.Fatalf("decoded %d != original %d", got, want)
		}
	}
}

func TestDecodeFlatForestRejectsCorruption(t *testing.T) {
	X, y := noisyData(200, 71)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 5, Seed: 72})
	blob := f.Flat().AppendBinary(nil)

	// Truncations at every boundary must error, never panic.
	for _, n := range []int{0, 4, 11, 12, 20, len(blob) - 1} {
		if _, _, err := DecodeFlatForest(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), blob...)
		mutate(b)
		_, _, err := DecodeFlatForest(b)
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 0xFF; b[1] = 0xFF; b[2] = 0xFF; b[3] = 0xFF }); err == nil {
		t.Error("absurd class count accepted")
	}
	if err := corrupt(func(b []byte) { b[4] = 0xFF; b[5] = 0xFF; b[6] = 0xFF; b[7] = 0xFF }); err == nil {
		t.Error("negative tree count accepted")
	}
	if err := corrupt(func(b []byte) { b[12] = 0xFF; b[13] = 0xFF; b[14] = 0xFF; b[15] = 0xFF }); err == nil {
		t.Error("out-of-range root accepted")
	}
	// A backward child pointer would make the walk loop forever.
	if err := corrupt(func(b []byte) {
		ff := f.Flat()
		// First internal node's kid → itself.
		for i, ft := range ff.Feats {
			if ft >= 0 {
				off := 12 + 4*len(ff.Roots) + 4*len(ff.Feats) + 4*i
				b[off], b[off+1], b[off+2], b[off+3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				return
			}
		}
	}); err == nil {
		t.Error("backward child pointer accepted")
	}
}

func TestFlatPredictZeroAlloc(t *testing.T) {
	X, y := noisyData(300, 81)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 10, Seed: 82})
	ff := f.Flat()
	x := X[0]
	if n := testing.AllocsPerRun(100, func() { ff.Predict(x) }); n != 0 {
		t.Errorf("Predict allocates %.1f per op", n)
	}
	dst := make([]int, 128)
	batch := X[:128]
	if n := testing.AllocsPerRun(100, func() { ff.PredictInto(dst, batch) }); n != 0 {
		t.Errorf("PredictInto allocates %.1f per op", n)
	}
	proba := make([]float64, 3)
	if n := testing.AllocsPerRun(100, func() { ff.PredictProbaInto(proba, x) }); n != 0 {
		t.Errorf("PredictProbaInto allocates %.1f per op", n)
	}
}

// TestForestPredictProbaInto: PredictProbaInto overwrites a reused,
// dirty buffer — no vote share leaks from one row into the next.
func TestForestPredictProbaInto(t *testing.T) {
	X, y := noisyData(300, 91)
	f, _ := TrainForest(X, y, 3, ForestConfig{Trees: 10, Seed: 92})
	ff := f.Flat()
	dst := []float64{7, -1, math.NaN()}
	for _, x := range X[:50] {
		ff.PredictProbaInto(dst, x)
		want := refForestProba(f, x)
		for c := range want {
			if dst[c] != want[c] {
				t.Fatalf("PredictProbaInto class %d: %v != %v", c, dst[c], want[c])
			}
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := noisyData(2000, 101)
	f, err := TrainForest(X, y, 3, ForestConfig{Trees: 50, Seed: 102})
	if err != nil {
		b.Fatal(err)
	}
	ff := f.Flat()
	vecs := fuzzVectors(f, 10, 512, 103)
	b.Run("pointer", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += refForestPredict(f, vecs[i%len(vecs)])
		}
		_ = sink
	})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += ff.Predict(vecs[i%len(vecs)])
		}
		_ = sink
	})
	// Named without a trailing numeric segment: bench parsers strip a
	// final "-N" as the GOMAXPROCS suffix.
	b.Run("flat-batch512", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]int, len(vecs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ff.PredictInto(dst, vecs)
		}
		// Normalize to per-vector cost for cross-sub comparison.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vecs)), "ns/vec")
	})
	// The batch walk on 8-row windows, the size of a small estimate
	// request: two lockstep groups and no tail.
	b.Run("flat-window8", func(b *testing.B) {
		const window = 8
		b.ReportAllocs()
		dst := make([]int, window)
		windows := len(vecs) / window
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := i % windows * window
			ff.PredictInto(dst, vecs[w:w+window])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/vec")
	})
}
