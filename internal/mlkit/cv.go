package mlkit

import (
	"sync/atomic"

	"yourandvalue/internal/stats"
)

// Fold is one train/test split of a cross-validation run.
type Fold struct {
	TrainIdx []int
	TestIdx  []int
}

// KFold produces k shuffled folds over n rows. Every row appears in
// exactly one test set.
func KFold(n, k int, seed int64) []Fold {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	rng := stats.NewRand(seed)
	perm := rng.Perm(n)
	folds := make([]Fold, k)
	for i, p := range perm {
		folds[i%k].TestIdx = append(folds[i%k].TestIdx, p)
	}
	for fi := range folds {
		inTest := make(map[int]bool, len(folds[fi].TestIdx))
		for _, i := range folds[fi].TestIdx {
			inTest[i] = true
		}
		for _, p := range perm {
			if !inTest[p] {
				folds[fi].TrainIdx = append(folds[fi].TrainIdx, p)
			}
		}
	}
	return folds
}

// CrossValidateForest runs k-fold cross-validation of a random forest,
// repeated `runs` times with distinct shuffles, and returns the mean
// metric report — the paper's protocol: "we applied 10-fold cross
// validation, and averaged results over 10 runs" (§5.4). Fold fi of run
// r trains the forest TrainForest would on the fold's training rows
// with seed cfg.Seed + 1000r + fi, and the report is bit-identical to
// scoring that forest on the fold's test rows. Folds run on cfg.Workers
// goroutines; the report does not depend on how many.
func CrossValidateForest(X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig) (Report, error) {
	_, rep, err := crossValidate(X, y, classes, k, runs, cfg, false, nil)
	return rep, err
}

// TrainForestCV returns what TrainForest(X, y, classes, cfg) and
// CrossValidateForest(X, y, classes, k, runs, cfg) return, computed
// together: one column set and one pool of cfg.Workers goroutines
// serve both, the forest's trees queued behind the folds so they fill
// the pool as the folds drain. If then is non-nil it runs once the
// forest is trained, on the pool goroutine that finished it, before
// TrainForestCV returns.
func TrainForestCV(X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig, then func(*Forest)) (*Forest, Report, error) {
	return crossValidate(X, y, classes, k, runs, cfg, true, then)
}

// crossValidate is CrossValidateForest, and with serve TrainForestCV.
//
// Every fold trains on the rows fold.TrainIdx of one column set built
// over all of X. That is exact: each split statistic is an integer sum
// over the node's rows, and a node's candidate thresholds come from the
// dictionary values of the ranks present at it, which are the values a
// column set over the fold alone would hold (a feature constant in the
// fold offers none). A fold is streamed by the goroutine that owns it:
// tree t's bootstrap counts, then its seed, are drawn in the order
// TrainForest draws them, the tree is grown, its votes over the fold's
// test rows are added, and the tree is dropped. No fold forest is kept.
func crossValidate(X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig, serve bool, then func(*Forest)) (*Forest, Report, error) {
	cols, err := newColumns(X, y, classes)
	if err != nil {
		return nil, Report{}, err
	}
	if runs <= 0 {
		runs = 1
	}
	cfg = cfg.withDefaults(len(X[0]))
	type foldJob struct {
		Fold
		seed int64
	}
	var folds []foldJob
	for run := 0; run < runs; run++ {
		for fi, fold := range KFold(len(X), k, cfg.Seed+int64(run)*7919) {
			if len(fold.TrainIdx) == 0 {
				return nil, Report{}, ErrBadTrainingData // k clamps to n: n = 1 trains on nothing
			}
			folds = append(folds, foldJob{fold, cfg.Seed + int64(run*1000+fi)})
		}
	}

	var job *forestJob
	tasks := len(folds)
	var treesLeft atomic.Int64
	if serve {
		job = newForestJob(cols, cfg)
		tasks += cfg.Trees
		treesLeft.Store(int64(cfg.Trees))
	}
	reps := make([]Report, len(folds))
	tcfg := cfg.treeConfig()
	runTasks(cfg.Workers, tasks, func() func(int) {
		b := newTreeBuilder(cols, tcfg)
		var w []int32
		return func(task int) {
			if task < len(folds) {
				if w == nil {
					w = make([]int32, len(X))
				}
				reps[task] = validateFold(b, w, X, folds[task].Fold, folds[task].seed, cfg.Trees)
				return
			}
			job.grow(b, task-len(folds))
			if treesLeft.Add(-1) == 0 {
				job.finish(X)
				if then != nil {
					then(job.f)
				}
			}
		}
	})

	// Summed in (run, fold) order, so the float means do not depend on
	// which fold finished first.
	agg := Report{Confusion: NewConfusion(classes)}
	for _, rep := range reps {
		agg.Accuracy += rep.Accuracy
		agg.FPRate += rep.FPRate
		agg.Precision += rep.Precision
		agg.Recall += rep.Recall
		agg.AUCROC += rep.AUCROC
		for a := 0; a < classes; a++ {
			for p := 0; p < classes; p++ {
				agg.Confusion.Cells[a][p] += rep.Confusion.Cells[a][p]
			}
		}
	}
	f := float64(len(reps))
	agg.Accuracy /= f
	agg.FPRate /= f
	agg.Precision /= f
	agg.Recall /= f
	agg.AUCROC /= f
	var forest *Forest
	if job != nil {
		forest = job.f
	}
	return forest, agg, nil
}

// validateFold streams one fold's forest of `trees` trees through b and
// scores it on the fold's test rows. w is an n-long scratch buffer for
// each tree's bootstrap counts, indexed by row of the full column set:
// drawing local index i of the fold counts a copy of row TrainIdx[i],
// so the tree's samples stay in ascending row order. The report
// rebuilds the forest's votes exactly as FlatForest.Predict and
// PredictProbaInto count them: argmax with ties to the lower class,
// and vote shares of votes/trees.
func validateFold(b *treeBuilder, w []int32, X [][]float64, fold Fold, seed int64, trees int) Report {
	classes := b.cols.classes
	rng := stats.NewRand(seed)
	m := len(fold.TrainIdx)
	votes := make([]int, len(fold.TestIdx)*classes)
	for range trees {
		clear(w)
		for range m {
			w[fold.TrainIdx[rng.Intn(m)]]++
		}
		tree := b.grow(w, rng.Int63())
		for i, r := range fold.TestIdx {
			votes[i*classes+tree.Predict(X[r])]++
		}
	}

	cm := NewConfusion(classes)
	teY := make([]int, len(fold.TestIdx))
	shares := make([]float64, len(votes))
	probs := make([][]float64, len(fold.TestIdx))
	for i, r := range fold.TestIdx {
		best, bestN := 0, -1
		p := shares[i*classes : (i+1)*classes]
		for c, v := range votes[i*classes : (i+1)*classes] {
			if v > bestN {
				best, bestN = c, v
			}
			p[c] = float64(v) / float64(trees)
		}
		teY[i] = b.cols.y[r]
		cm.Add(teY[i], best)
		probs[i] = p
	}
	return assembleReport(cm, probs, teY, classes)
}
