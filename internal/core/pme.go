package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/stats"
)

// Model is the portable encrypted-price estimator the PME distributes to
// clients (§3.2): the S feature definition, the price discretization, and
// the classifier. It travels as the compact blob (EncodeCompact), which
// the browser extension decodes and applies locally. Both the full forest
// and its most representative single tree travel with the model; clients
// on constrained devices may apply just the tree ("the model M (in the
// form of a decision tree)").
type Model struct {
	Version   int
	TrainedAt time.Time
	Features  *SFeatures
	Binner    *mlkit.Binner
	// Forest and Tree are the pointer trees training builds. A decoded
	// model has neither: it carries their flat engines only.
	Forest *mlkit.Forest
	Tree   *mlkit.Tree
	// TimeShift is the multiplicative 2015→campaign-time price correction
	// estimated from cleartext campaigns (§6.2): median(A2)/median(D).
	TimeShift float64
	// Metrics records what is known of the model when it is published:
	// its out-of-bag error, class count and training-set size. The §5.4
	// cross-validation lands later, through CV.
	Metrics ModelMetrics
	// CV is the §5.4 cross-validation of the Train call that produced
	// the model, still running when Train returns. Clones share it; it is
	// nil for decoded and retrained models.
	CV *Validation

	// flatForest/flatTree carry the inference engines of a compact-blob
	// decode, which ships no pointer nodes at all. Models that do have a
	// pointer Forest/Tree always compile through it instead (the cache
	// lives on the forest, see FlatForest), so a clone whose forest was
	// replaced — the retrain loop does exactly that — can never serve a
	// stale flat form.
	flatForest *mlkit.FlatForest
	flatTree   *mlkit.FlatForest
}

// ModelMetrics is a model's quality bundle in serializable form: the
// forest's out-of-bag error, known at publish, and the §5.4
// cross-validated metrics with the protocol that produced them, which
// are zero (and not encoded) until Validation.Wait fills them in.
type ModelMetrics struct {
	OOBError  float64 `json:"oob_error"`
	Accuracy  float64 `json:"accuracy,omitempty"`
	FPRate    float64 `json:"fp_rate,omitempty"`
	Precision float64 `json:"precision,omitempty"`
	Recall    float64 `json:"recall,omitempty"`
	AUCROC    float64 `json:"auc_roc,omitempty"`
	CVFolds   int     `json:"cv_folds,omitempty"`
	CVRuns    int     `json:"cv_runs,omitempty"`
	Classes   int     `json:"classes"`
	TrainSize int     `json:"train_size"`
}

// Validation is the §5.4 cross-validation of one Train call. Its folds
// run on Train's workers after Train has returned the model.
type Validation struct {
	metrics     ModelMetrics // the model's, at publish
	folds, runs int
	run         *mlkit.CVRun
	stop        context.CancelFunc
}

// Wait returns the model's metrics with the cross-validated fields
// filled in, once every fold is scored. If ctx ends first, Wait returns
// ctx.Err() and the folds stop at the next fold boundary: a report its
// waiter gave up on is not worth the CPU.
func (v *Validation) Wait(ctx context.Context) (ModelMetrics, error) {
	rep, err := v.run.Wait(ctx)
	if err != nil {
		v.stop()
		return ModelMetrics{}, err
	}
	m := v.metrics
	m.Accuracy, m.FPRate, m.Precision, m.Recall, m.AUCROC =
		rep.Accuracy, rep.FPRate, rep.Precision, rep.Recall, rep.AUCROC
	m.CVFolds, m.CVRuns = v.folds, v.runs
	return m, nil
}

// Stop ends the folds at the next fold boundary, for callers that
// never read the report: its CPU then goes back to them. A Wait after
// Stop returns the cancellation error unless every fold had already
// been scored.
func (v *Validation) Stop() { v.stop() }

// CloneWithVersion returns a copy of m stamped with new version
// metadata. The heavy components — features, binner, forest, tree — are
// shared with the original: they are immutable after training, so the
// clone is safe to publish while the original keeps serving. This is
// the snapshot-cloning primitive the model registry's hot-swap relies
// on: publishing never mutates the caller's model in place.
func (m *Model) CloneWithVersion(version int, trainedAt time.Time) *Model {
	c := *m
	c.Version = version
	c.TrainedAt = trainedAt
	return &c
}

// FlatForest returns the model's compiled SoA inference engine: the
// pointer forest's cached flat form when one exists (compiled once at
// train time), else the engine a compact-blob decode shipped. Nil only
// for models with no forest at all.
func (m *Model) FlatForest() *mlkit.FlatForest {
	if m.Forest != nil {
		return m.Forest.Flat()
	}
	return m.flatForest
}

// FlatTree is FlatForest for the representative single tree.
func (m *Model) FlatTree() *mlkit.FlatForest {
	if m.Tree != nil {
		return m.Tree.Flat()
	}
	return m.flatTree
}

// EstimateCPM estimates an encrypted charge price from its S vector using
// the forest's predicted class representative. Prediction runs on the
// flat-compiled forest (bit-identical to the pointer walk, an order of
// magnitude cheaper).
func (m *Model) EstimateCPM(x []float64) float64 {
	return m.Binner.Representative(m.FlatForest().Predict(x))
}

// EstimateChunk is the row count every batch estimate path encodes
// and classifies at a time: large enough that the tree-major walk
// amortizes the forest across many vectors, small enough that one
// caller's encode matrix stays cache-resident.
const EstimateChunk = 256

// EstimateRowsInto estimates every encoded S vector of rows into
// dst[:len(rows)] through one tree-major FlatForest walk, using
// cls[:len(rows)] as the class scratch. Row for row it equals
// EstimateCPM. dst and cls must have length >= len(rows).
func (m *Model) EstimateRowsInto(dst []float64, cls []int, rows [][]float64) {
	cls = cls[:len(rows)]
	m.FlatForest().PredictInto(cls, rows)
	for i, c := range cls {
		dst[i] = m.Binner.Representative(c)
	}
}

// EstimateCPMTree is the single-tree variant clients can run when the
// forest is too heavy.
func (m *Model) EstimateCPMTree(x []float64) float64 {
	return m.Binner.Representative(m.FlatTree().Predict(x))
}

// PME is the Price Modeling Engine: it bootstraps feature selection from
// weblogs, plans and consumes probing campaigns, and trains the model.
type PME struct {
	// Classes is the price-class count; the paper found 4 optimal (§5.4).
	Classes int
	// ForestSize is the RF ensemble size.
	ForestSize int
	// CVFolds and CVRuns control the §5.4 evaluation protocol (paper:
	// 10-fold, averaged over 10 runs; defaults here are 10 and 2).
	CVFolds int
	CVRuns  int
	// Seed drives training determinism.
	Seed int64
	// Workers is the number of goroutines training runs on (≤1: one
	// thing after another): the served forest's trees and, after them,
	// the cross-validation folds share them. The model and its
	// cross-validated metrics are identical at any worker count.
	Workers int
}

// NewPME returns a PME with the paper's defaults.
func NewPME(seed int64) *PME {
	return &PME{Classes: 4, ForestSize: 40, CVFolds: 10, CVRuns: 2, Seed: seed}
}

// ErrNoTrainingData is returned when no campaign records are available.
var ErrNoTrainingData = errors.New("core: no campaign records to train on")

// TrainConfig bundles optional training inputs.
type TrainConfig struct {
	// WithPublishers appends publisher-identity features (the §5.4
	// overfitting ablation).
	WithPublishers bool
	// CleartextReference2015 supplies dataset-D cleartext prices (same
	// ADX as the cleartext campaign) for time-shift estimation; leave nil
	// to skip the correction (TimeShift = 1).
	CleartextReference2015 []float64
	// CleartextCampaign supplies the A2 round's cleartext records.
	CleartextCampaign []campaign.Record
}

// Train fits the full §5.4 pipeline on A1 (encrypted-exchange) campaign
// records: log-normalize prices, discretize into balanced classes, train
// a random forest on S vectors, and package the portable model. It
// returns as soon as the forest, its out-of-bag error and its
// representative tree exist; the cross-validation keeps running on the
// same workers and lands through the model's CV.
func (p *PME) Train(records []campaign.Record, cfg TrainConfig) (*Model, error) {
	if len(records) < p.Classes*10 {
		return nil, ErrNoTrainingData
	}
	var pubs []string
	if cfg.WithPublishers {
		seen := map[string]bool{}
		for _, r := range records {
			if !seen[r.Publisher] {
				seen[r.Publisher] = true
				pubs = append(pubs, r.Publisher)
			}
		}
	}
	feats := NewSFeatures(pubs)

	prices := make([]float64, len(records))
	X := make([][]float64, len(records))
	for i, r := range records {
		prices[i] = r.ChargeCPM
		X[i] = feats.FromRecord(r)
	}
	binner, err := mlkit.NewBinner(prices, p.Classes)
	if err != nil {
		return nil, fmt.Errorf("core: discretizing prices: %w", err)
	}
	y := binner.Labels(prices)

	// Deep trees with single-sample leaves, matching the Weka defaults the
	// paper's pipeline used; depth is what lets publisher-identity splits
	// express themselves in the §5.4 ablation.
	fcfg := mlkit.ForestConfig{Trees: p.ForestSize, Seed: p.Seed, MaxDepth: 24, MinLeaf: 1, Workers: p.Workers}
	if cfg.WithPublishers {
		// Rare one-hot identity features need a larger per-split candidate
		// set to be discovered.
		fcfg.MaxFeatures = feats.Dim() / 4
	}
	folds, runs := p.CVFolds, p.CVRuns
	if folds < 2 {
		folds = 10
	}
	if runs < 1 {
		runs = 2
	}
	// The served forest's trees take the workers first; the
	// representative tree is picked on the goroutine that finishes the
	// last of them, and the folds follow.
	var tree *mlkit.Tree
	ctx, stop := context.WithCancel(context.Background())
	forest, run, err := mlkit.StartForestCV(ctx, X, y, binner.Classes(), folds, runs, fcfg,
		func(f *mlkit.Forest) { tree = f.RepresentativeTree(X) })
	if err != nil {
		stop()
		return nil, err
	}

	shift := 1.0
	if len(cfg.CleartextReference2015) > 0 && len(cfg.CleartextCampaign) > 0 {
		var a2 []float64
		for _, r := range cfg.CleartextCampaign {
			a2 = append(a2, r.ChargeCPM)
		}
		mNow, _ := stats.Median(a2)
		mThen, _ := stats.Median(cfg.CleartextReference2015)
		if mThen > 0 && mNow > 0 {
			shift = mNow / mThen
		}
	}

	metrics := ModelMetrics{
		OOBError:  forest.OOBError(),
		Classes:   binner.Classes(),
		TrainSize: len(records),
	}
	return &Model{
		Version:   1,
		TrainedAt: time.Date(2016, 6, 15, 0, 0, 0, 0, time.UTC),
		Features:  feats,
		Binner:    binner,
		Forest:    forest,
		Tree:      tree,
		TimeShift: shift,
		Metrics:   metrics,
		CV:        &Validation{metrics: metrics, folds: folds, runs: runs, run: run, stop: stop},
	}, nil
}

// ReductionResult reports the §5.1 dimensionality reduction: model quality
// on the full 288-feature space F versus the reduced space S, plus the
// per-group importance mass that drove the selection.
type ReductionResult struct {
	FullDim          int
	ReducedDim       int
	FullReport       mlkit.Report
	ReducedReport    mlkit.Report
	GroupImportance  map[string]float64
	SelectedFeatures []string
	PrecisionLoss    float64 // full − reduced (positive = reduced worse)
	RecallLoss       float64
}

// ReduceDimensions runs the §5.1 bootstrap on an analyzed weblog: train an
// RF over the full Table 4 feature space with 4-class cleartext-price
// targets, measure per-group importance, then re-train on the S groups and
// quantify the precision/recall loss (the paper reports <2% and <6%).
func (p *PME) ReduceDimensions(res *analyzer.Result, sampleCap int) (*ReductionResult, error) {
	full := analyzer.NewFeatureSet(res, 100)
	X, prices, _ := full.Matrix(res, true)
	if len(X) < p.Classes*10 {
		return nil, ErrNoTrainingData
	}
	if sampleCap > 0 && len(X) > sampleCap {
		// Deterministic subsample to bound bootstrap cost.
		step := len(X) / sampleCap
		var sx [][]float64
		var sp []float64
		for i := 0; i < len(X); i += step {
			sx = append(sx, X[i])
			sp = append(sp, prices[i])
		}
		X, prices = sx, sp
	}
	// §5.1 preprocessing: variance filter over the raw features.
	keep := mlkit.VarianceFilter(X, 0.99)
	Xf := mlkit.SelectColumns(X, keep)

	binner, err := mlkit.NewBinner(prices, p.Classes)
	if err != nil {
		return nil, err
	}
	y := binner.Labels(prices)
	cfg := mlkit.ForestConfig{Trees: p.ForestSize, Seed: p.Seed, Workers: p.Workers}

	forest, fullRep, err := mlkit.TrainForestCV(Xf, y, binner.Classes(), 5, 1, cfg, nil)
	if err != nil {
		return nil, err
	}

	// Aggregate importance per semantic group.
	imp := forest.Importance()
	groups := make(map[string]float64)
	for i, f := range keep {
		groups[analyzer.GroupOf(full.Names[f])] += imp[i]
	}

	// The S groups of §5.1 (time, geo, and the ad-side features) — select
	// the concrete features matching them.
	var sIdx []int
	var sNames []string
	for i, f := range keep {
		name := full.Names[f]
		if isSFeature(name) {
			sIdx = append(sIdx, i)
			sNames = append(sNames, name)
		}
	}
	Xs := mlkit.SelectColumns(Xf, sIdx)
	redRep, err := mlkit.CrossValidateForest(Xs, y, binner.Classes(), 5, 1, cfg)
	if err != nil {
		return nil, err
	}

	return &ReductionResult{
		FullDim:          len(keep),
		ReducedDim:       len(sIdx),
		FullReport:       fullRep,
		ReducedReport:    redRep,
		GroupImportance:  groups,
		SelectedFeatures: sNames,
		PrecisionLoss:    fullRep.Precision - redRep.Precision,
		RecallLoss:       fullRep.Recall - redRep.Recall,
	}, nil
}

// isSFeature reports whether a Table 4 feature name belongs to the
// selected subset S (app/web, device type, location, time of day, day of
// week, ad format, website IAB, ad-exchange).
func isSFeature(name string) bool {
	prefixes := []string{
		"ad:origin=", "user:device=", "user:os=", "geo:city=",
		"time:hourbin=", "time:dow=", "time:weekend",
		"ad:slot=", "ad:width", "ad:height", "ad:area",
		"ad:iab=", "ad:adx=",
	}
	for _, p := range prefixes {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}
