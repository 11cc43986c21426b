package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/stats"
	"yourandvalue/internal/weblog"
)

// fixture runs the full pipeline once and shares it across tests: trace →
// analysis → A1/A2 campaigns → trained model.
type pipelineFixture struct {
	trace  *weblog.Trace
	res    *analyzer.Result
	a1, a2 *campaign.Report
	model  *Model
}

var (
	fixOnce sync.Once
	fix     *pipelineFixture
	fixErr  error
)

func pipeline(t *testing.T) *pipelineFixture {
	t.Helper()
	fixOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 2})
		cfg := weblog.DefaultConfig().Scaled(0.05)
		cfg.Seed = 1
		cfg.Ecosystem = eco
		trace := weblog.Generate(cfg)

		an := analyzer.New(trace.Catalog.Directory())
		res := an.Analyze(trace.Requests)

		eng := campaign.NewEngine(eco)
		a1, err := eng.Run(campaign.A1Config(trace.Catalog, 60, 3))
		if err != nil {
			fixErr = err
			return
		}
		a2, err := eng.Run(campaign.A2Config(trace.Catalog, 60, 4))
		if err != nil {
			fixErr = err
			return
		}
		pme := NewPME(7)
		model, err := pme.Train(a1.Records, TrainConfig{
			CleartextReference2015: res.CleartextPrices(func(i analyzer.Impression) bool {
				return i.Notification.ADX == campaign.CleartextADX
			}),
			CleartextCampaign: a2.Records,
		})
		if err != nil {
			fixErr = err
			return
		}
		fix = &pipelineFixture{trace: trace, res: res, a1: a1, a2: a2, model: model}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// crossValidated waits for m's §5.4 cross-validation and returns its
// metrics.
func crossValidated(t *testing.T, m *Model) ModelMetrics {
	t.Helper()
	metrics, err := m.CV.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return metrics
}

func TestSFeaturesEncoding(t *testing.T) {
	s := NewSFeatures(nil)
	if s.Dim() < 70 {
		t.Errorf("S space dim = %d, want >70 one-hots over 8 features", s.Dim())
	}
	if s.HasPublishers() {
		t.Error("publishers should be off by default")
	}
	withPubs := NewSFeatures([]string{"a.example", "b.example"})
	if withPubs.Dim() != s.Dim()+2 || !withPubs.HasPublishers() {
		t.Error("publisher features not appended")
	}
	// Same impression encodes identically via record and impression paths
	// when the underlying context matches (spot check via a campaign
	// record).
	f := pipeline(t)
	rec := f.a1.Records[0]
	v := s.FromRecord(rec)
	if len(v) != s.Dim() {
		t.Fatal("vector dim")
	}
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	// city, origin, device, os, hourbin, dow, slot(4 incl w/h/area), iab, adx
	if nonzero < 10 {
		t.Errorf("record vector too sparse: %d nonzero", nonzero)
	}
}

// TestSection54ClassifierQuality reproduces the §5.4 headline: a 4-class
// RF over the S features predicts encrypted price classes far above the
// 25% chance line (the paper reports 82.9% accuracy, 0.964 AUC).
func TestSection54ClassifierQuality(t *testing.T) {
	f := pipeline(t)
	m := crossValidated(t, f.model)
	if m.Classes != 4 {
		t.Fatalf("classes = %d", m.Classes)
	}
	// The simulator's feature-to-noise ratio is lower than the authors'
	// live ecosystem, so absolute accuracy lands below the paper's 82.9%;
	// the reproduction criterion is a large multiple of the 25% chance
	// line with strong ranking quality.
	if m.Accuracy < 0.55 {
		t.Errorf("CV accuracy %.3f, want ≫0.25 (paper 0.829)", m.Accuracy)
	}
	if m.AUCROC < 0.78 {
		t.Errorf("CV AUC %.3f (paper 0.964)", m.AUCROC)
	}
	if m.FPRate > 0.20 {
		t.Errorf("FP rate %.3f (paper 0.068)", m.FPRate)
	}
	if m.TrainSize != len(f.a1.Records) {
		t.Error("train size bookkeeping")
	}
}

// TestEncryptedEstimationOnD applies the campaign-trained model to the
// 2015 weblog's encrypted impressions and scores it against the
// generator's hidden ground truth.
func TestEncryptedEstimationOnD(t *testing.T) {
	f := pipeline(t)

	// Index ground truth by nURL.
	truth := make(map[string]weblog.ImpressionTruth, f.trace.RTBCount())
	for _, it := range f.trace.Impressions {
		truth[it.NURL] = it
	}
	// Walk analyzer impressions in order, matching requests to recover
	// the nURL (analyzer.Impression does not retain the raw URL).
	var estSum, truthSum float64
	n := 0
	i := 0
	for _, r := range f.trace.Requests {
		if i >= len(f.res.Impressions) {
			break
		}
		it, ok := truth[r.URL]
		if !ok {
			continue
		}
		imp := f.res.Impressions[i]
		i++
		if !it.Encrypted {
			continue
		}
		est := f.model.EstimateCPM(f.model.Features.FromImpression(imp))
		estSum += est
		truthSum += it.ChargeCPM
		n++
	}
	if n < 100 {
		t.Fatalf("only %d encrypted impressions scored", n)
	}
	// Aggregate estimate within a reasonable factor of aggregate truth.
	// (The model is trained on 2016 campaign prices and applied to 2015
	// traffic, so a time-shift bias toward overestimation is expected.)
	ratio := estSum / truthSum
	if ratio < 0.5 || ratio > 3.0 {
		t.Errorf("aggregate estimated/true = %.3f over %d impressions", ratio, n)
	}
}

func TestTimeShiftEstimated(t *testing.T) {
	f := pipeline(t)
	// 2016 campaign prices ran above 2015 weblog prices (Year2016Factor),
	// so the estimated shift must exceed 1.
	if f.model.TimeShift <= 1.0 || f.model.TimeShift > 3.0 {
		t.Errorf("time shift = %v, want in (1, 3]", f.model.TimeShift)
	}
}

// TestTrainIdenticalAtAnyWorkerCount pins the Workers contract: the
// cross-validation forests and the final one build their trees on
// goroutines, and neither the compact blob nor the flat forest and tree
// behind it, the forest's importance or its out-of-bag error may change
// by a byte or a bit.
func TestTrainIdenticalAtAnyWorkerCount(t *testing.T) {
	f := pipeline(t)
	train := func(workers int) (*Model, []byte) {
		pme := NewPME(17)
		pme.ForestSize, pme.CVFolds, pme.CVRuns = 12, 3, 1
		pme.Workers = workers
		m, err := pme.Train(f.a1.Records, TrainConfig{})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := m.EncodeCompact()
		if err != nil {
			t.Fatal(err)
		}
		return m, blob
	}
	// At least 2, so the parallel path runs even where GOMAXPROCS is 1.
	workers := max(2, runtime.GOMAXPROCS(0))
	one, oneBlob := train(1)
	many, manyBlob := train(workers)
	if !bytes.Equal(oneBlob, manyBlob) {
		t.Fatalf("compact model bytes differ between 1 and %d workers", workers)
	}
	for _, c := range []struct {
		name      string
		one, many *mlkit.FlatForest
	}{
		{"forest", one.FlatForest(), many.FlatForest()},
		{"representative tree", one.FlatTree(), many.FlatTree()},
	} {
		if !bytes.Equal(c.one.AppendBinary(nil), c.many.AppendBinary(nil)) {
			t.Fatalf("%s differs between 1 and %d workers", c.name, workers)
		}
	}
	oneImp, manyImp := one.FlatForest().Importance(), many.FlatForest().Importance()
	if len(oneImp) == 0 || len(oneImp) != len(manyImp) {
		t.Fatalf("importance over %d and %d features", len(oneImp), len(manyImp))
	}
	for i := range oneImp {
		if math.Float64bits(oneImp[i]) != math.Float64bits(manyImp[i]) {
			t.Fatalf("importance[%d] %v at 1 worker, %v at %d", i, oneImp[i], manyImp[i], workers)
		}
	}
	if a, b := one.FlatForest().OOBError(), many.FlatForest().OOBError(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("OOB error %v at 1 worker, %v at %d", a, b, workers)
	}
}

// TestValidationStop: Stop ends a cross-validation nobody will read at
// the next fold boundary, and a Wait after it returns the cancellation
// instead of hanging or reporting a partial protocol.
func TestValidationStop(t *testing.T) {
	f := pipeline(t)
	pme := NewPME(19)
	// Thirty folds on one worker: Stop lands long before the last one.
	pme.ForestSize, pme.CVFolds, pme.CVRuns, pme.Workers = 8, 10, 3, 1
	m, err := pme.Train(f.a1.Records, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m.CV.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := m.CV.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Stop = %v, want context.Canceled", err)
	}
	// Stopping the folds leaves the served model whole.
	if m.FlatForest() == nil || m.FlatTree() == nil || m.Metrics.OOBError <= 0 {
		t.Fatalf("stopped model: forest %v, tree %v, OOB error %v", m.FlatForest() != nil, m.FlatTree() != nil, m.Metrics.OOBError)
	}
}

func TestTrainValidation(t *testing.T) {
	pme := NewPME(1)
	if _, err := pme.Train(nil, TrainConfig{}); err != ErrNoTrainingData {
		t.Error("empty training accepted")
	}
}

func TestClientStreaming(t *testing.T) {
	f := pipeline(t)
	// Pick the user with the most impressions for a meaningful stream.
	bestUser, bestN := -1, 0
	for id, u := range f.res.Users {
		if u.Impressions > bestN {
			bestUser, bestN = id, u.Impressions
		}
	}
	client := NewClient(f.model, f.trace.Catalog.Directory())
	events := 0
	for _, r := range f.trace.Requests {
		if r.UserID != bestUser {
			continue
		}
		if _, ok := client.Process(r); ok {
			events++
		}
	}
	if events != bestN {
		t.Errorf("client saw %d events, analyzer saw %d", events, bestN)
	}
	tot := client.Totals()
	if tot.CleartextCount+tot.EncryptedCount != events {
		t.Error("client event accounting")
	}
	if tot.TotalCPM() <= 0 {
		t.Error("client total empty")
	}
	// Time-corrected total must exceed the raw total (shift > 1 and
	// cleartext present).
	if tot.CleartextCount > 0 && tot.TotalCorrectedCPM() <= tot.TotalCPM() {
		t.Error("time correction should raise the cleartext component")
	}
	if len(client.Events()) != events {
		t.Error("event history length")
	}
	// Client-side totals must agree with the analyzer's per-user
	// cleartext sum (identical detections).
	if diff := math.Abs(tot.CleartextCPM - f.res.Users[bestUser].CleartextSum); diff > 1e-6 {
		t.Errorf("client cleartext %v != analyzer %v", tot.CleartextCPM, f.res.Users[bestUser].CleartextSum)
	}
}

func TestBatchEstimateFigures(t *testing.T) {
	f := pipeline(t)
	costs := BatchEstimate(f.res, f.model)
	if len(costs) == 0 {
		t.Fatal("no user costs")
	}
	var totals []float64
	encUsers := 0
	for _, uc := range costs {
		if uc.CleartextCount > 0 && uc.AvgCleartextCPM() <= 0 {
			t.Fatal("avg cleartext inconsistent")
		}
		if uc.EncryptedCount > 0 {
			encUsers++
			if uc.AvgEncryptedCPM() <= 0 {
				t.Fatal("avg encrypted inconsistent")
			}
		}
		if uc.TotalCPM() > 0 {
			totals = append(totals, uc.TotalCPM())
		}
	}
	if encUsers == 0 {
		t.Fatal("no users with encrypted impressions")
	}
	// Figure 17 shape: heavy-tailed user cost distribution; p95 ≫ median.
	med, _ := stats.Median(totals)
	p95, _ := stats.Quantile(totals, 0.95)
	if med <= 0 || p95 < 3*med {
		t.Errorf("user cost tail too light: median %.2f p95 %.2f", med, p95)
	}
}

func TestEstimateImpressionHelper(t *testing.T) {
	f := pipeline(t)
	sawClr, sawEnc := false, false
	for _, imp := range f.res.Impressions {
		v := EstimateImpression(f.model, imp)
		if imp.Encrypted() {
			sawEnc = true
			if v <= 0 {
				t.Fatal("encrypted estimate must be positive")
			}
		} else {
			sawClr = true
			if v != imp.Notification.PriceCPM {
				t.Fatal("cleartext must pass through")
			}
		}
		if sawClr && sawEnc {
			break
		}
	}
	if EstimateImpression(nil, f.res.Impressions[0]) != 0 &&
		f.res.Impressions[0].Encrypted() {
		t.Error("nil model should estimate 0")
	}
}

// TestBatchEstimateChunkBoundary gives one user more encrypted
// impressions than two EstimateChunk flushes hold, interleaved with
// cleartext ones, beside a second short user: the tally must equal the
// in-order sum of EstimateImpression bit for bit at any worker count.
func TestBatchEstimateChunkBoundary(t *testing.T) {
	f := pipeline(t)
	var (
		imps  []analyzer.Impression
		want  [2]float64
		count [2]int
	)
	for _, imp := range f.res.Impressions {
		u := 0
		if count[0] > 2*EstimateChunk {
			u = 1
			if count[1] == 40 {
				break
			}
		}
		imp.UserID = u
		if imp.Encrypted() {
			want[u] += EstimateImpression(f.model, imp)
			count[u]++
		}
		imps = append(imps, imp)
	}
	if count[1] != 40 {
		t.Fatalf("fixture has too few encrypted impressions: %v", count)
	}
	res := &analyzer.Result{Impressions: imps}
	for _, workers := range []int{1, 2} {
		costs, err := BatchEstimateContext(context.Background(), res, f.model, workers)
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			uc := costs[u]
			if uc.EncryptedCount != count[u] || math.Float64bits(uc.EncryptedCPM) != math.Float64bits(want[u]) {
				t.Errorf("workers=%d user %d: %d impressions summing to %v, want %d summing to %v",
					workers, u, uc.EncryptedCount, uc.EncryptedCPM, count[u], want[u])
			}
		}
	}
}

func TestExtrapolationMatchesPaper(t *testing.T) {
	// §6.3: 8 CPM → ≈$0.54; 102 CPM → ≈$6.85.
	lo := ExtrapolateAnnualUSD(8)
	hi := ExtrapolateAnnualUSD(102)
	if lo < 0.45 || lo > 0.60 {
		t.Errorf("low extrapolation $%.2f, want ≈$0.54", lo)
	}
	if hi < 6.0 || hi > 7.5 {
		t.Errorf("high extrapolation $%.2f, want ≈$6.85", hi)
	}
	v := Validate(8, 102)
	if !v.SameOrderAsARPU {
		t.Error("paper range should validate against ARPU")
	}
	if v.LowUSD != lo || v.HighUSD != hi {
		t.Error("validation bookkeeping")
	}
}

func TestReduceDimensions(t *testing.T) {
	f := pipeline(t)
	pme := NewPME(11)
	pme.ForestSize = 15 // keep the bootstrap fast in tests
	red, err := pme.ReduceDimensions(f.res, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if red.ReducedDim >= red.FullDim {
		t.Errorf("reduction did not shrink: %d → %d", red.FullDim, red.ReducedDim)
	}
	if red.ReducedDim < 20 {
		t.Errorf("reduced space too small: %d", red.ReducedDim)
	}
	// §5.1: the reduced model loses little performance.
	if red.PrecisionLoss > 0.10 {
		t.Errorf("precision loss %.3f, paper <0.02", red.PrecisionLoss)
	}
	if red.RecallLoss > 0.12 {
		t.Errorf("recall loss %.3f, paper <0.06", red.RecallLoss)
	}
	if len(red.GroupImportance) < 3 {
		t.Errorf("group importances: %v", red.GroupImportance)
	}
	for _, name := range red.SelectedFeatures {
		if !isSFeature(name) {
			t.Fatalf("non-S feature selected: %s", name)
		}
	}
}

// TestPublisherOverfitting reproduces the §5.4 caution: adding exact
// publisher identity raises apparent CV accuracy, which the paper
// identifies as overfitting ("the publishers used in the ad-campaigns are
// just a subset of the thousands of possible publishers").
func TestPublisherOverfitting(t *testing.T) {
	f := pipeline(t)
	pme := NewPME(13)
	pme.ForestSize = 16
	pme.CVFolds, pme.CVRuns = 5, 1 // keep the ablation affordable in tests
	withPubs, err := pme.Train(f.a1.Records, TrainConfig{WithPublishers: true})
	if err != nil {
		t.Fatal(err)
	}
	withoutPubs, err := pme.Train(f.a1.Records, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !withPubs.Features.HasPublishers() {
		t.Fatal("publisher variant lacks publisher features")
	}
	with, without := crossValidated(t, withPubs), crossValidated(t, withoutPubs)
	if with.Accuracy < without.Accuracy {
		t.Errorf("publisher identity should raise apparent CV accuracy: %.3f vs %.3f",
			with.Accuracy, without.Accuracy)
	}
}
