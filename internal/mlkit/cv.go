package mlkit

import (
	"context"
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
	_, cv, err := crossValidate(context.Background(), X, y, classes, k, runs, cfg, false, nil)
	if err != nil {
		return Report{}, err
	}
	return cv.Wait(context.Background())
}

// TrainForestCV returns what TrainForest(X, y, classes, cfg) and
// CrossValidateForest(X, y, classes, k, runs, cfg) return, computed
// together by StartForestCV and waited for. If then is non-nil it runs
// once the forest is trained, on the pool goroutine that finished it,
// before TrainForestCV returns.
func TrainForestCV(X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig, then func(*Forest)) (*Forest, Report, error) {
	f, cv, err := StartForestCV(context.Background(), X, y, classes, k, runs, cfg, then)
	if err != nil {
		return nil, Report{}, err
	}
	rep, err := cv.Wait(context.Background())
	return f, rep, err
}

// StartForestCV trains the forest TrainForest(X, y, classes, cfg)
// trains and starts CrossValidateForest(X, y, classes, k, runs, cfg)
// beside it: one column set and one pool of cfg.Workers goroutines
// serve both, the forest's trees queued ahead of the folds. It returns
// as soon as the forest is trained and then (if non-nil) has run, on
// the pool goroutine that finished the last tree; the folds keep
// running on the pool, and the returned CVRun collects their report.
// Past that point the run holds no reference to X, the forest's
// bootstrap draws or then.
//
// ctx bounds the folds: once it ends, each pool goroutine finishes the
// fold it is on, takes no other, and the run reports ctx.Err(). The
// served forest is always finished.
func StartForestCV(ctx context.Context, X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig, then func(*Forest)) (*Forest, *CVRun, error) {
	return crossValidate(ctx, X, y, classes, k, runs, cfg, true, then)
}

// CVRun is a cross-validation running on its pool.
type CVRun struct {
	done chan struct{} // closed once every pool goroutine has exited
	rep  Report
	err  error
}

// Wait returns the cross-validation's report once every fold is scored
// and the pool has exited, or ctx.Err() if ctx ends first.
func (r *CVRun) Wait(ctx context.Context) (Report, error) {
	select {
	case <-r.done:
		return r.rep, r.err
	case <-ctx.Done():
		return Report{}, ctx.Err()
	}
}

// crossValidate is CrossValidateForest, and with serve StartForestCV.
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
//
// The pool runs on its own goroutines; crossValidate waits only for the
// served forest (with serve) or for nothing.
func crossValidate(ctx context.Context, X [][]float64, y []int, classes, k, runs int,
	cfg ForestConfig, serve bool, then func(*Forest)) (*Forest, *CVRun, error) {
	cols, err := newColumns(X, y, classes)
	if err != nil {
		return nil, nil, err
	}
	if runs <= 0 {
		runs = 1
	}
	n := len(X)
	cfg = cfg.withDefaults(len(X[0]))
	type foldJob struct {
		Fold
		seed int64
	}
	var folds []foldJob
	for run := 0; run < runs; run++ {
		for fi, fold := range KFold(n, k, cfg.Seed+int64(run)*7919) {
			if len(fold.TrainIdx) == 0 {
				return nil, nil, ErrBadTrainingData // k clamps to n: n = 1 trains on nothing
			}
			folds = append(folds, foldJob{fold, cfg.Seed + int64(run*1000+fi)})
		}
	}

	// The served forest's trees are tasks [0, trees), the folds follow.
	// ready runs once, on the goroutine that grows the last tree, and is
	// then dropped, and with it the closure's hold on X and then.
	trees := 0
	var job *forestJob
	var treesLeft atomic.Int64
	var ready func()
	readyCh := make(chan struct{})
	if serve {
		trees = cfg.Trees
		job = newForestJob(cols, cfg)
		treesLeft.Store(int64(trees))
		ready = func() {
			job.finish(X)
			if then != nil {
				then(job.f)
			}
		}
	}
	cv := &CVRun{done: make(chan struct{})}
	reps := make([]Report, len(folds))
	var skipped atomic.Bool
	tcfg := cfg.treeConfig()
	go func() {
		defer close(cv.done)
		runTasks(cfg.Workers, trees+len(folds), func() func(int) {
			b := newTreeBuilder(cols, tcfg)
			var s foldScratch
			return func(task int) {
				if task >= trees {
					if ctx.Err() != nil {
						skipped.Store(true)
						return
					}
					fold := folds[task-trees]
					reps[task-trees] = validateFold(b, &s, fold.Fold, fold.seed, cfg.Trees)
					return
				}
				job.grow(b, task)
				if treesLeft.Add(-1) == 0 {
					ready()
					ready = nil
					job.weights = nil
					close(readyCh)
				}
			}
		})
		if skipped.Load() {
			cv.err = ctx.Err()
			return
		}
		cv.rep = meanReport(reps, classes)
	}()
	if !serve {
		return nil, cv, nil
	}
	<-readyCh
	return job.f, cv, nil
}

// meanReport averages the fold reports and sums their confusions, in
// (run, fold) order, so the float means do not depend on which fold
// finished first.
func meanReport(reps []Report, classes int) Report {
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
	return agg
}

// foldScratch is one pool goroutine's buffers for validateFold: the
// bootstrap counts, indexed by row of the full column set, and the
// fold's test rows rebuilt from the rank columns.
type foldScratch struct {
	w    []int32
	vals []float64
	rows [][]float64
}

// validateFold streams one fold's forest of `trees` trees through b and
// scores it on the fold's test rows. Drawing local index i of the fold
// counts a copy of row TrainIdx[i] in s.w, so the tree's samples stay in
// ascending row order. The test rows are rebuilt from the rank columns,
// row[f] = dict[f][rank[f][r]]: exactly the X values, since each
// dictionary value is the value its rank stands for (NaN is rejected).
// The report rebuilds the forest's votes exactly as FlatForest.Predict
// and PredictProbaInto count them: argmax with ties to the lower class,
// and vote shares of votes/trees.
func validateFold(b *treeBuilder, s *foldScratch, fold Fold, seed int64, trees int) Report {
	cols := b.cols
	classes, d := cols.classes, len(cols.dict)
	if s.w == nil {
		s.w = make([]int32, len(cols.y))
	}
	w := s.w
	test := fold.TestIdx
	if cap(s.vals) < len(test)*d {
		s.vals = make([]float64, len(test)*d)
		s.rows = make([][]float64, len(test))
	}
	rows := s.rows[:len(test)]
	for i, r := range test {
		row := s.vals[i*d : (i+1)*d]
		for f, dict := range cols.dict {
			row[f] = dict[cols.rank[f][r]]
		}
		rows[i] = row
	}

	rng := stats.NewRand(seed)
	m := len(fold.TrainIdx)
	votes := make([]int, len(test)*classes)
	for range trees {
		clear(w)
		for range m {
			w[fold.TrainIdx[rng.Intn(m)]]++
		}
		tree := b.grow(w, rng.Int63())
		for i, row := range rows {
			votes[i*classes+tree.Predict(row)]++
		}
	}

	cm := NewConfusion(classes)
	teY := make([]int, len(test))
	shares := make([]float64, len(votes))
	probs := make([][]float64, len(test))
	for i, r := range test {
		best, bestN := 0, -1
		p := shares[i*classes : (i+1)*classes]
		for c, v := range votes[i*classes : (i+1)*classes] {
			if v > bestN {
				best, bestN = c, v
			}
			p[c] = float64(v) / float64(trees)
		}
		teY[i] = cols.y[r]
		cm.Add(teY[i], best)
		probs[i] = p
	}
	return assembleReport(cm, probs, teY, classes)
}
