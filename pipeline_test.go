package yourandvalue

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/mlkit"
	"yourandvalue/internal/pme"
)

// tinyOptions is the smallest configuration the pipeline tests share.
func tinyOptions() []Option {
	return []Option{
		WithScale(0.02),
		WithSeed(7),
		WithCampaignImpressions(15),
		WithForestSize(8),
		WithCrossValidation(3, 1),
	}
}

func tinyConfig() Config {
	return Config{
		Seed: 7, Scale: 0.02, CampaignImpressionsPerSetup: 15,
		ForestSize: 8, CVFolds: 3, CVRuns: 1,
	}
}

// TestPipelineMatchesRun: the options API and the Run(Config) wrapper
// must describe the same study — equal seeds, equal artifacts.
func TestPipelineMatchesRun(t *testing.T) {
	p, err := NewPipeline(tinyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Config(), tinyConfig(); got != want {
		t.Fatalf("options resolved to %+v, want %+v", got, want)
	}
	a, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Requests) != len(b.Trace.Requests) {
		t.Fatal("traces differ")
	}
	for _, pair := range [][2]string{
		{a.Figure2().String(), b.Figure2().String()},
		{a.Figure17().String(), b.Figure17().String()},
		{a.Section54().String(), b.Section54().String()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("pipeline and Run disagree under equal seeds:\n%s\nvs\n%s",
				pair[0], pair[1])
		}
	}
}

func TestNewPipelineValidates(t *testing.T) {
	if _, err := NewPipeline(WithScale(0)); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPipeline(WithScale(2)); err == nil {
		t.Error("scale > 1 accepted")
	}
	if _, err := NewPipeline(WithCampaignImpressions(0)); err == nil {
		t.Error("zero campaign target accepted")
	}
	p, err := NewPipeline(WithWorkers(-3))
	if err != nil {
		t.Fatal(err)
	}
	if p.workers < 1 {
		t.Errorf("workers = %d, want >= 1", p.workers)
	}
}

// TestPipelineCancellation: a context cancelled while the campaign stage
// runs must abort the study mid-stage with ctx's error.
func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var failed []Stage
	opts := append(tinyOptions(), WithProgress(func(ev StageEvent) {
		mu.Lock()
		defer mu.Unlock()
		// Pull the plug the moment the campaign stage starts.
		if ev.Stage == StageRunCampaigns && ev.State == StageStarted {
			cancel()
		}
		if ev.State == StageFailed {
			failed = append(failed, ev.Stage)
		}
	}))
	p, err := NewPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, st := range failed {
		if st == StageRunCampaigns {
			found = true
		}
	}
	if !found {
		t.Errorf("campaign stage should report failure, failed stages: %v", failed)
	}

	// A context cancelled before the first stage never starts the study.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := p.GenerateTrace(pre); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled GenerateTrace: %v", err)
	}
}

// TestPipelineArtifactReuse: stage artifacts are plain values — a second
// pipeline can retrain on an existing trace/campaign pair without
// regenerating either, and retraining is deterministic.
func TestPipelineArtifactReuse(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(tinyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.GenerateTrace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	camps, err := p.RunCampaigns(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := p.TrainModel(ctx, res, camps)
	if err != nil {
		t.Fatal(err)
	}
	// Same artifacts, same config → identical model metrics.
	m2, err := p.TrainModel(ctx, res, camps)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Metrics != m2.Metrics {
		t.Errorf("retrain on reused artifacts not deterministic:\n%+v\nvs\n%+v",
			m1.Metrics, m2.Metrics)
	}

	// A differently-tuned pipeline retrains on the same artifacts.
	p2, err := NewPipeline(append(tinyOptions(), WithForestSize(4))...)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := p2.TrainModel(ctx, res, camps)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Metrics.TrainSize != len(camps.A1.Records) {
		t.Errorf("retrained on %d records, campaign has %d",
			m3.Metrics.TrainSize, len(camps.A1.Records))
	}

	// And the cost stage runs from reused artifacts too.
	costs, err := p.EstimateCosts(ctx, res, m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) == 0 {
		t.Error("no costs estimated")
	}

	// Stage methods reject missing artifacts instead of panicking.
	if _, err := p.Analyze(ctx, nil); err == nil {
		t.Error("Analyze(nil) accepted")
	}
	if _, err := p.RunCampaigns(ctx, &TraceArtifact{}); err == nil {
		t.Error("RunCampaigns(empty) accepted")
	}
	if _, err := p.TrainModel(ctx, res, nil); err == nil {
		t.Error("TrainModel(nil campaigns) accepted")
	}
	if _, err := p.EstimateCosts(ctx, nil, m1); err == nil {
		t.Error("EstimateCosts(nil analysis) accepted")
	}
}

// TestPipelineProgressEvents: every stage of a full Execute reports a
// start and a completion.
func TestPipelineProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[Stage]map[StageState]int{}
	opts := append(tinyOptions(), WithProgress(func(ev StageEvent) {
		mu.Lock()
		defer mu.Unlock()
		if counts[ev.Stage] == nil {
			counts[ev.Stage] = map[StageState]int{}
		}
		counts[ev.Stage][ev.State]++
		if ev.State == StageCompleted && ev.Elapsed < 0 {
			t.Errorf("stage %s negative elapsed", ev.Stage)
		}
	}))
	p, err := NewPipeline(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, st := range []Stage{StageGenerateTrace, StageAnalyze,
		StageRunCampaigns, StageTrainModel, StageEstimateCosts} {
		if counts[st][StageStarted] != 1 || counts[st][StageCompleted] != 1 {
			t.Errorf("stage %s events = %v", st, counts[st])
		}
	}
}

// TestExecuteStreamingMatchesBatch: the streaming cost path must yield
// per-user costs identical to the batch EstimateCosts path for the same
// seed, at every worker count (the PR's equivalence guarantee; CI also
// runs this under -race).
func TestExecuteStreamingMatchesBatch(t *testing.T) {
	ctx := context.Background()
	p, err := NewPipeline(tinyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		p2, err := NewPipeline(append(tinyOptions(), WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := p2.ExecuteStreaming(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed.Costs, batch.Costs) {
			t.Fatalf("streaming costs (workers=%d) differ from batch", workers)
		}
		if streamed.Stream == nil {
			t.Fatal("streaming study carries no snapshot")
		}
		if streamed.Stream.Users != len(streamed.Costs) {
			t.Errorf("snapshot users = %d, want %d", streamed.Stream.Users, len(streamed.Costs))
		}
		// Derived figures agree because the cost maps agree.
		if got, want := streamed.Figure17().String(), batch.Figure17().String(); got != want {
			t.Fatalf("Figure 17 differs between streaming and batch:\n%s\nvs\n%s", got, want)
		}
	}

	// The streaming stage reports progress under its own stage name.
	var mu sync.Mutex
	seen := false
	p3, err := NewPipeline(append(tinyOptions(), WithProgress(func(ev StageEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Stage == StageStreamCosts && ev.State == StageCompleted {
			seen = true
		}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.ExecuteStreaming(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !seen {
		t.Error("no StageStreamCosts completion event observed")
	}
}

// TestEstimateCostsStreamingValidates: the streaming stage rejects
// missing artifacts like every other stage method.
func TestEstimateCostsStreamingValidates(t *testing.T) {
	p, err := NewPipeline(tinyOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EstimateCostsStreaming(context.Background(), nil, nil); err == nil {
		t.Error("nil source and model accepted")
	}
}

// TestBatchEstimateShardingDeterministic: the sharded cost stage must be
// bit-identical to the sequential path for any worker count.
func TestBatchEstimateShardingDeterministic(t *testing.T) {
	s := quickStudy(t)
	seq, err := core.BatchEstimateContext(context.Background(), s.Analysis, s.Model, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := core.BatchEstimateContext(context.Background(), s.Analysis, s.Model, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("sharded estimate (workers=%d) differs from sequential", workers)
		}
	}
	if !reflect.DeepEqual(seq, s.Costs) {
		t.Fatal("study costs differ from direct BatchEstimate")
	}
}

// The tiny pipeline's served forest and §5.4 table, pinned from the
// pipeline that cross-validated before it published: publishing on the
// served forest must change neither.
const (
	tinyForestSHA256    = "9ddc7f33b543341ccd3c4b969cfcb29c693c4c582f31cbccdf187cc8cc3df583"
	tinySection54SHA256 = "6996d7851e1a1051ec51be1523c8d319173575d8cf1df12f36245a40f16d657e"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTrainModelReadyFirst pins the ready-first TrainModel at worker
// counts {1, 2, 7}: the forest it publishes is TrainForest's with the
// same configuration (flat form byte for byte, importance and OOB error
// bit for bit, and the pinned forest), and the quality record that
// lands in the registry afterwards carries CrossValidateForest's report
// bit for bit.
func TestTrainModelReadyFirst(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 7} {
		reg := pme.NewRegistry()
		p, err := NewPipeline(append(tinyOptions(), WithWorkers(workers), WithModelRegistry(reg))...)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.GenerateTrace(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Analyze(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		camps, err := p.RunCampaigns(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.TrainModel(ctx, res, camps)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(m.FlatForest().AppendBinary(nil)); got != tinyForestSHA256 {
			t.Fatalf("workers=%d: served forest sha256 %s, want %s", workers, got, tinyForestSHA256)
		}

		// The same rows and labels core.Train builds, and its forest
		// configuration.
		records := camps.A1.Records
		X := make([][]float64, len(records))
		prices := make([]float64, len(records))
		for i, r := range records {
			X[i], prices[i] = m.Features.FromRecord(r), r.ChargeCPM
		}
		y := m.Binner.Labels(prices)
		cfg := mlkit.ForestConfig{Trees: 8, Seed: 7 + 4, MaxDepth: 24, MinLeaf: 1, Workers: workers}
		ref, err := mlkit.TrainForest(X, y, m.Binner.Classes(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.FlatForest().AppendBinary(nil), ref.Flat().AppendBinary(nil)) {
			t.Fatalf("workers=%d: served forest differs from TrainForest's", workers)
		}
		sameFloatBits(t, "importance", m.Forest.Importance(), ref.Importance())
		sameFloatBits(t, "OOB error", []float64{m.Metrics.OOBError}, []float64{ref.OOBError()})

		want, err := mlkit.CrossValidateForest(X, y, m.Binner.Classes(), 3, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := awaitQuality(t, reg, m.Version).Metrics
		sameFloatBits(t, "quality record",
			[]float64{q.Accuracy, q.FPRate, q.Precision, q.Recall, q.AUCROC},
			[]float64{want.Accuracy, want.FPRate, want.Precision, want.Recall, want.AUCROC})
		if q.CVFolds != 3 || q.CVRuns != 1 || q.TrainSize != len(records) {
			t.Fatalf("workers=%d: quality record %+v", workers, q)
		}
	}
}

// awaitQuality polls reg until version's quality record is done.
func awaitQuality(t *testing.T, reg *pme.Registry, version int) *pme.QualityRecord {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		q := reg.Quality()
		if q == nil || q.Version != version {
			t.Fatalf("quality record %+v, want version %d", q, version)
		}
		if q.State == pme.QualityDone {
			return q
		}
		if q.State != pme.QualityPending || time.Now().After(deadline) {
			t.Fatalf("quality record %+v", q)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestExecuteSection54Unchanged: Execute waits for the cross-validation,
// so its §5.4 table prints byte for byte what it printed when the
// cross-validation ran before publish, at any worker count.
func TestExecuteSection54Unchanged(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		p, err := NewPipeline(append(tinyOptions(), WithWorkers(workers))...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tab := s.Section54().String()
		if got := sha256Hex([]byte(tab)); got != tinySection54SHA256 {
			t.Fatalf("workers=%d: §5.4 table changed (sha256 %s):\n%s", workers, got, tab)
		}
	}
}
