package mlkit

import (
	"sync"
	"sync/atomic"

	"yourandvalue/internal/stats"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth per tree (default 12).
	MaxDepth int
	// MinLeaf per tree (default 2).
	MinLeaf int
	// MaxFeatures per split; 0 means √d, the RF convention.
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
	// Workers is the number of goroutines the trees are built on; ≤1
	// builds them one after another. The forest is identical at any
	// worker count.
	Workers int
}

func (c ForestConfig) withDefaults(d int) ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = isqrt(d)
	}
	return c
}

func isqrt(n int) int {
	if n <= 0 {
		return 1
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// Forest is a trained random-forest classifier — the model family the
// paper selects because "it takes into account the target variable, can
// be trained quickly on large datasets, maintains interpretability of
// features and generally does not overfit" (§5.1).
type Forest struct {
	Trees   []*Tree
	Classes int

	oobError   float64
	importance []float64
	flat       flatOnce
}

// TrainForest trains a random forest on X with labels y in [0, classes).
// Features must not be NaN.
func TrainForest(X [][]float64, y []int, classes int, cfg ForestConfig) (*Forest, error) {
	cols, err := newColumns(X, y, classes)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(X[0]))
	j := newForestJob(cols, cfg)
	tcfg := cfg.treeConfig()
	runTasks(cfg.Workers, cfg.Trees, func() func(int) {
		b := newTreeBuilder(cols, tcfg)
		return func(t int) { j.grow(b, t) }
	})
	j.finish(X)
	return j.f, nil
}

// treeConfig is the per-tree configuration of a defaulted forest config;
// each tree's seed comes from the forest's own draws.
func (c ForestConfig) treeConfig() TreeConfig {
	return TreeConfig{MaxDepth: c.MaxDepth, MinLeaf: c.MinLeaf, MaxFeatures: c.MaxFeatures}.withDefaults()
}

// runTasks runs every task in [0, n) once, on min(workers, n) goroutines
// counting the caller's, which take the next task in ascending order as
// they come free. newWorker runs once on each goroutine and returns the
// function that goroutine runs its tasks with, so per-goroutine scratch
// lives in its closure. runTasks returns when every task has.
func runTasks(workers, n int, newWorker func() func(task int)) {
	var next atomic.Int64
	work := func() {
		do := newWorker()
		for t := int(next.Add(1) - 1); t < n; t = int(next.Add(1) - 1) {
			do(t)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// forestJob is one forest in training. Every tree's bootstrap sample
// and seed are drawn up front, in the order a one-tree-at-a-time build
// would draw them, so the trees can then be grown in any order, on any
// goroutine, without changing one of them. A sample is kept as per-row
// draw counts; rows a tree never drew (weight 0) are its out-of-bag
// rows.
type forestJob struct {
	f       *Forest
	n       int
	weights []int32 // tree t's draw counts are weights[t*n : (t+1)*n]
	seeds   []int64
	cols    *columns
}

func newForestJob(cols *columns, cfg ForestConfig) *forestJob {
	rng := stats.NewRand(cfg.Seed)
	n := len(cols.y)
	j := &forestJob{
		f: &Forest{
			Classes: cols.classes, Trees: make([]*Tree, cfg.Trees),
			importance: make([]float64, len(cols.dict)),
		},
		n: n, weights: make([]int32, cfg.Trees*n), seeds: make([]int64, cfg.Trees),
		cols: cols,
	}
	for t := range j.seeds {
		w := j.weights[t*n : (t+1)*n]
		for range n {
			w[rng.Intn(n)]++
		}
		j.seeds[t] = rng.Int63()
	}
	return j
}

// grow builds tree t with b.
func (j *forestJob) grow(b *treeBuilder, t int) {
	j.f.Trees[t] = b.grow(j.weights[t*j.n:(t+1)*j.n], j.seeds[t])
}

// finish sums importance and the out-of-bag error in tree order once
// every tree is grown. X is the matrix the columns were built from.
func (j *forestJob) finish(X [][]float64) {
	f, n, classes := j.f, j.n, j.cols.classes
	for _, tree := range f.Trees {
		for i, v := range tree.importance {
			f.importance[i] += v
		}
	}

	// Out-of-bag votes, walked through the flat form — compiling here
	// means every trained forest leaves training with its inference
	// engine already built and cached. Each tree walks its out-of-bag
	// rows four at a time.
	flat := f.Flat()
	oobVotes := make([]int, n*classes)
	oobIdx := make([]int, 0, n)
	oobRows := make([][]float64, 0, n)
	cls := make([]int32, n)
	for t, root := range flat.Roots {
		w := j.weights[t*n : (t+1)*n]
		oobIdx, oobRows = oobIdx[:0], oobRows[:0]
		for i := 0; i < n; i++ {
			if w[i] == 0 {
				oobIdx = append(oobIdx, i)
				oobRows = append(oobRows, X[i])
			}
		}
		flat.walkRows(cls, root, oobRows)
		for k, i := range oobIdx {
			oobVotes[i*classes+int(cls[k])]++
		}
	}

	// OOB error: fraction of rows (with ≥1 OOB vote) misclassified by the
	// OOB majority.
	wrong, counted := 0, 0
	for i := 0; i < n; i++ {
		votes := oobVotes[i*classes : (i+1)*classes]
		total := 0
		best, bestN := 0, -1
		for c, v := range votes {
			total += v
			if v > bestN {
				best, bestN = c, v
			}
		}
		if total == 0 {
			continue
		}
		counted++
		if best != j.cols.y[i] {
			wrong++
		}
	}
	if counted > 0 {
		f.oobError = float64(wrong) / float64(counted)
	}
}

// OOBError returns the out-of-bag misclassification estimate, one of the
// §5.1 model-selection metrics.
func (f *Forest) OOBError() float64 { return f.oobError }

// Importance returns mean-decrease-in-impurity feature importances,
// normalized to sum to 1 — the §5.1 dimensionality-reduction signal.
func (f *Forest) Importance() []float64 {
	return normalizeImportance(f.importance)
}

// RepresentativeTree returns the single ensemble member whose training
// behaviour best matches the forest (highest agreement with forest votes
// on the provided sample; ties go to the earlier tree) — the portable
// decision tree the PME distributes to clients. Each tree walks the
// sample once, four rows at a time, on the flat form; the forest vote
// (ties to the lower class, as in FlatForest.PredictInto) and every
// tree's agreement with it are read from those classes.
func (f *Forest) RepresentativeTree(X [][]float64) *Tree {
	if len(f.Trees) == 0 {
		return nil
	}
	n := len(X)
	if n == 0 {
		return f.Trees[0]
	}
	flat := f.Flat()
	cls := make([]int32, len(flat.Roots)*n) // tree t's classes are cls[t*n : (t+1)*n]
	for t, root := range flat.Roots {
		flat.walkRows(cls[t*n:(t+1)*n], root, X)
	}
	forestPred := make([]int32, n)
	votes := make([]int32, f.Classes)
	for i := range forestPred {
		clear(votes)
		for t := range flat.Roots {
			votes[cls[t*n+i]]++
		}
		best, bestN := 0, int32(-1)
		for c, v := range votes {
			if v > bestN {
				best, bestN = c, v
			}
		}
		forestPred[i] = int32(best)
	}
	best, bestAgree := 0, -1
	for t := range f.Trees {
		agree := 0
		for i, c := range cls[t*n : (t+1)*n] {
			if c == forestPred[i] {
				agree++
			}
		}
		if agree > bestAgree {
			best, bestAgree = t, agree
		}
	}
	return f.Trees[best]
}
