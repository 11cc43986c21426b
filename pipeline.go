package yourandvalue

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/baseline"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/stream"
	"yourandvalue/internal/weblog"
)

// Stage identifies one step of the study pipeline (§3's system flow:
// weblog → analyzer → probing campaigns → PME training → cost estimation).
type Stage string

// The five pipeline stages, in dependency order. Analyze and RunCampaigns
// both depend only on GenerateTrace and run concurrently inside Execute.
const (
	StageGenerateTrace Stage = "generate-trace"
	StageAnalyze       Stage = "analyze"
	StageRunCampaigns  Stage = "run-campaigns"
	StageTrainModel    Stage = "train-model"
	StageEstimateCosts Stage = "estimate-costs"
	// StageStreamCosts is the online alternative to StageEstimateCosts:
	// events flow through a sharded stream.Aggregator instead of a
	// materialized batch.
	StageStreamCosts Stage = "stream-costs"
)

// StageState is the lifecycle position a StageEvent reports.
type StageState int

// Stage lifecycle states.
const (
	StageStarted StageState = iota
	StageCompleted
	StageFailed
)

// String renders the state for logs.
func (s StageState) String() string {
	switch s {
	case StageStarted:
		return "started"
	case StageCompleted:
		return "completed"
	case StageFailed:
		return "failed"
	}
	return "unknown"
}

// StageEvent is delivered to the WithProgress callback at every stage
// transition. Concurrent stages may interleave events; the callback must
// be safe for concurrent use when the pipeline runs stages in parallel.
type StageEvent struct {
	Stage   Stage
	State   StageState
	Elapsed time.Duration // zero for StageStarted
	Err     error         // non-nil only for StageFailed
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithConfig replaces the whole configuration (the Run compatibility
// path). Later options still apply on top.
func WithConfig(cfg Config) Option {
	return func(p *Pipeline) { p.cfg = cfg }
}

// WithScale sets the dataset scale in (0,1]; 1.0 is the paper's size.
func WithScale(scale float64) Option {
	return func(p *Pipeline) { p.cfg.Scale = scale }
}

// WithSeed sets the master seed; equal seeds give equal studies.
func WithSeed(seed int64) Option {
	return func(p *Pipeline) { p.cfg.Seed = seed }
}

// WithScenario selects the simulated world by name from the
// internal/scenario registry ("baseline", "first-price", "mobile-heavy",
// "encrypted-surge", "bot-noise", …). The scenario parameterizes the
// market (auction mechanism, floor policy, encryption adoption), the
// population (OS/device mix, bot share) and the traffic shape; every
// later stage — analysis, campaigns, training, estimation — runs
// unchanged over the world it describes. Unknown names fail
// NewPipeline's validation.
func WithScenario(name string) Option {
	return func(p *Pipeline) { p.cfg.Scenario = name }
}

// WithCampaignImpressions sets the per-setup delivery target of the
// probing campaigns (§5.2 derives a 185 minimum at full rigor).
func WithCampaignImpressions(n int) Option {
	return func(p *Pipeline) { p.cfg.CampaignImpressionsPerSetup = n }
}

// WithForestSize sets the PME random-forest ensemble size.
func WithForestSize(n int) Option {
	return func(p *Pipeline) { p.cfg.ForestSize = n }
}

// WithCrossValidation sets the §5.4 evaluation protocol.
func WithCrossValidation(folds, runs int) Option {
	return func(p *Pipeline) { p.cfg.CVFolds, p.cfg.CVRuns = folds, runs }
}

// WithProgress registers a stage-event observer.
func WithProgress(fn func(StageEvent)) Option {
	return func(p *Pipeline) { p.progress = fn }
}

// WithObservability records every stage run on an obs registry —
// pipeline_stage_duration_seconds{stage} for wall time and
// pipeline_stage_failures_total{stage} for errors — and instruments the
// streaming cost stage's aggregator (snapshot lag, distributed events)
// on the same registry, so a serving process scraping /metrics sees its
// bootstrap pipeline's progress alongside the request series.
func WithObservability(r *obs.Registry) Option {
	return func(p *Pipeline) { p.obs = r }
}

// WithWorkers caps the goroutines the sharded stages run: trace
// generation (GenerateTrace's parallel per-user driver, whose reorder
// window holds ~2×n user traces), analysis (Analyze folds n user
// shards, each with its own detection engine), model training
// (TrainModel grows the served forest's trees, then the
// cross-validation folds, on n goroutines) and
// per-user cost estimation (batch and streaming). The default is
// GOMAXPROCS. Stage outputs are bit-identical at any worker count.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.workers = n }
}

// WithModelRegistry publishes every model TrainModel produces into reg:
// the trained model becomes the registry's next immutable version and
// TrainModel returns the published (version-stamped) clone, so a PME
// serving from the same registry hot-swaps to it atomically and clients
// observe the refresh as an ETag change.
func WithModelRegistry(reg *pme.Registry) Option {
	return WithModelPublisher(reg)
}

// WithModelPublisher generalizes WithModelRegistry to any model source:
// a fleet deployment passes its pme.Replica so the trained model lands
// in the shared store (and fans out to every replica) instead of one
// process's registry.
func WithModelPublisher(src pme.ModelSource) Option {
	return func(p *Pipeline) {
		if src != nil {
			p.publisher = src
		}
	}
}

// Pipeline is the staged form of the study: each stage is a context-aware
// method returning a typed artifact, so callers can cancel, observe,
// parallelize, and resume from intermediates (e.g. retrain a model on an
// existing trace without regenerating it). A zero Pipeline is invalid;
// use NewPipeline.
type Pipeline struct {
	cfg       Config
	progress  func(StageEvent)
	workers   int
	publisher pme.ModelSource
	obs       *obs.Registry
}

// NewPipeline builds a Pipeline from DefaultConfig plus options,
// validating the resulting configuration.
func NewPipeline(opts ...Option) (*Pipeline, error) {
	p := &Pipeline{cfg: DefaultConfig(), workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(p)
	}
	if err := p.cfg.Validate(); err != nil {
		return nil, err
	}
	if p.workers < 1 {
		p.workers = 1
	}
	return p, nil
}

// Config returns the pipeline's resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

func (p *Pipeline) emit(ev StageEvent) {
	if p.progress != nil {
		p.progress(ev)
	}
}

// runStage wraps one stage body with the context pre-check and progress
// events.
func (p *Pipeline) runStage(ctx context.Context, stage Stage, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.emit(StageEvent{Stage: stage, State: StageStarted})
	start := time.Now()
	if err := fn(); err != nil {
		elapsed := time.Since(start)
		p.observeStage(stage, elapsed, err)
		p.emit(StageEvent{Stage: stage, State: StageFailed, Elapsed: elapsed, Err: err})
		return err
	}
	elapsed := time.Since(start)
	p.observeStage(stage, elapsed, nil)
	p.emit(StageEvent{Stage: stage, State: StageCompleted, Elapsed: elapsed})
	return nil
}

// observeStage records one stage run's wall time (and failure, if any)
// when an obs registry is attached.
func (p *Pipeline) observeStage(stage Stage, elapsed time.Duration, err error) {
	if p.obs == nil {
		return
	}
	labels := obs.Labels{"stage": string(stage)}
	p.obs.Histogram("pipeline_stage_duration_seconds", "Wall time of pipeline stage runs.", labels).Observe(elapsed)
	if err != nil {
		p.obs.Counter("pipeline_stage_failures_total", "Pipeline stage runs that ended in error.", labels).Inc()
	}
}

// TraceArtifact is StageGenerateTrace's output: the simulated RTB
// ecosystem and the year-long weblog D generated through it. Both are
// read-only to every later stage, so one artifact can feed any number of
// Analyze/RunCampaigns calls.
type TraceArtifact struct {
	Ecosystem *rtb.Ecosystem
	Trace     *weblog.Trace
}

// CampaignArtifact is StageRunCampaigns's output: the A1
// (encrypted-exchange) and A2 (MoPub cleartext) probing rounds of §5.2–5.3.
type CampaignArtifact struct {
	A1 *campaign.Report
	A2 *campaign.Report
}

// GenerateTrace runs stage 1: simulate the configured scenario's RTB
// ecosystem and generate the weblog D through it, sharding trace
// generation across the pipeline's workers (the trace is bit-identical
// at any worker count — per-user RNG substreams carry the determinism
// contract).
func (p *Pipeline) GenerateTrace(ctx context.Context) (*TraceArtifact, error) {
	var art *TraceArtifact
	err := p.runStage(ctx, StageGenerateTrace, func() error {
		sc := p.cfg.ResolvedScenario()
		eco := sc.NewEcosystem(p.cfg.Seed + 1)
		wcfg := sc.WeblogConfig(p.cfg.Seed, p.cfg.Scale)
		wcfg.Ecosystem = eco
		wcfg.Workers = p.workers
		art = &TraceArtifact{Ecosystem: eco, Trace: weblog.Generate(wcfg)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return art, nil
}

// Analyze runs stage 2: the Weblog Ads Analyzer (§4) over the trace —
// one internal/detect engine pass folded into the batch summaries,
// sharded by user across the pipeline's workers. The trace's interned
// symbols (weblog.Trace.Symbols) ride along on every request record, so
// the engine's per-host/agent/address caches key by dense id instead of
// string.
func (p *Pipeline) Analyze(ctx context.Context, tr *TraceArtifact) (*analyzer.Result, error) {
	if tr == nil || tr.Trace == nil {
		return nil, fmt.Errorf("yourandvalue: Analyze needs a trace artifact")
	}
	var res *analyzer.Result
	err := p.runStage(ctx, StageAnalyze, func() error {
		an := analyzer.New(tr.Trace.Catalog.Directory())
		an.Workers = p.workers
		res = an.Analyze(tr.Trace.Requests)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunCampaigns runs stage 3: the A1 and A2 probing rounds, concurrently —
// each round draws from its own probe session over the shared read-only
// ecosystem, so the pair is deterministic in the seed regardless of
// scheduling. Cancellation is honored mid-round, per auction attempt.
func (p *Pipeline) RunCampaigns(ctx context.Context, tr *TraceArtifact) (*CampaignArtifact, error) {
	if tr == nil || tr.Trace == nil || tr.Ecosystem == nil {
		return nil, fmt.Errorf("yourandvalue: RunCampaigns needs a trace artifact")
	}
	art := &CampaignArtifact{}
	err := p.runStage(ctx, StageRunCampaigns, func() error {
		eng := campaign.NewEngine(tr.Ecosystem)
		var wg sync.WaitGroup
		var err1, err2 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			art.A1, err1 = eng.RunContext(ctx,
				campaign.A1Config(tr.Trace.Catalog, p.cfg.CampaignImpressionsPerSetup, p.cfg.Seed+2))
		}()
		go func() {
			defer wg.Done()
			art.A2, err2 = eng.RunContext(ctx,
				campaign.A2Config(tr.Trace.Catalog, p.cfg.CampaignImpressionsPerSetup, p.cfg.Seed+3))
		}()
		wg.Wait()
		if err1 != nil {
			return fmt.Errorf("A1 campaign: %w", err1)
		}
		if err2 != nil {
			return fmt.Errorf("A2 campaign: %w", err2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return art, nil
}

// TrainModel runs stage 4: fit the PME's encrypted-price model on the A1
// ground truth (§5.4), with the analysis supplying the 2015 cleartext
// reference for the time-shift coefficient. It publishes and returns as
// soon as the served forest exists; the model's §5.4 cross-validation
// (its CV) keeps running on the pipeline's workers. A publisher that is
// a pme.QualitySink gets the run as the published version's quality
// record.
func (p *Pipeline) TrainModel(ctx context.Context, res *analyzer.Result, camps *CampaignArtifact) (*core.Model, error) {
	if res == nil || camps == nil || camps.A1 == nil || camps.A2 == nil {
		return nil, fmt.Errorf("yourandvalue: TrainModel needs analysis and campaign artifacts")
	}
	var model *core.Model
	err := p.runStage(ctx, StageTrainModel, func() error {
		eng := core.NewPME(p.cfg.Seed + 4)
		eng.Workers = p.workers
		if p.cfg.ForestSize > 0 {
			eng.ForestSize = p.cfg.ForestSize
		}
		if p.cfg.CVFolds > 0 {
			eng.CVFolds = p.cfg.CVFolds
		}
		if p.cfg.CVRuns > 0 {
			eng.CVRuns = p.cfg.CVRuns
		}
		m, err := eng.Train(camps.A1.Records, core.TrainConfig{
			CleartextReference2015: res.CleartextPrices(func(i analyzer.Impression) bool {
				return i.Notification.ADX == campaign.CleartextADX
			}),
			CleartextCampaign: camps.A2.Records,
		})
		if err != nil {
			return fmt.Errorf("training PME: %w", err)
		}
		if p.publisher != nil {
			snap, err := p.publisher.Publish(m)
			if err != nil {
				return fmt.Errorf("publishing model: %w", err)
			}
			if sink, ok := p.publisher.(pme.QualitySink); ok {
				sink.TrackQuality(snap.Version, m.CV)
			}
			m = snap.Model
		}
		model = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return model, nil
}

// EstimateCosts runs stage 5: every user's total advertiser cost (§6),
// sharded across the pipeline's workers. Deterministic for any worker
// count.
func (p *Pipeline) EstimateCosts(ctx context.Context, res *analyzer.Result, model *core.Model) (map[int]*core.UserCost, error) {
	if res == nil || model == nil {
		return nil, fmt.Errorf("yourandvalue: EstimateCosts needs analysis and model artifacts")
	}
	var costs map[int]*core.UserCost
	err := p.runStage(ctx, StageEstimateCosts, func() error {
		var err error
		costs, err = core.BatchEstimateContext(ctx, res, model, p.workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// EstimateCostsStreaming is the online form of EstimateCosts: events
// from src flow through a sharded stream.Aggregator backed by the model,
// with bounded-channel backpressure, periodic immutable snapshots, and
// incremental top-K summaries. Per-user costs are bit-identical to the
// batch EstimateCosts path over the same trace for any worker count (the
// pipeline's WithWorkers sets the shard count): both paths run the same
// internal/detect engine and encoder, so their equivalence is by
// construction rather than by two copies kept in sync.
func (p *Pipeline) EstimateCostsStreaming(ctx context.Context, src stream.Source, model *core.Model) (*stream.Result, error) {
	if src == nil || model == nil {
		return nil, fmt.Errorf("yourandvalue: EstimateCostsStreaming needs a source and a model")
	}
	var res *stream.Result
	err := p.runStage(ctx, StageStreamCosts, func() error {
		agg := stream.NewAggregator(model, src.Directory(), stream.WithShards(p.workers))
		agg.Instrument(p.obs)
		var err error
		res, err = agg.Run(ctx, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// executeModel runs stages 1–4 (trace, then analysis ∥ campaigns, then
// training) — the shared prefix of Execute and ExecuteStreaming. The
// model it returns carries its §5.4 cross-validated metrics: it waits
// for the CV and returns a clone with them filled in.
func (p *Pipeline) executeModel(ctx context.Context) (*TraceArtifact, *analyzer.Result, *CampaignArtifact, *core.Model, error) {
	tr, err := p.GenerateTrace(ctx)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	// Stage 2 and 3 both depend only on the trace; run them in parallel.
	var (
		wg    sync.WaitGroup
		res   *analyzer.Result
		camps *CampaignArtifact
		aErr  error
		cErr  error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		res, aErr = p.Analyze(ctx, tr)
	}()
	go func() {
		defer wg.Done()
		camps, cErr = p.RunCampaigns(ctx, tr)
	}()
	wg.Wait()
	if aErr != nil {
		return nil, nil, nil, nil, fmt.Errorf("yourandvalue: %w", aErr)
	}
	if cErr != nil {
		return nil, nil, nil, nil, fmt.Errorf("yourandvalue: %w", cErr)
	}

	model, err := p.TrainModel(ctx, res, camps)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("yourandvalue: %w", err)
	}
	metrics, err := model.CV.Wait(ctx)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("yourandvalue: cross-validation: %w", err)
	}
	model = model.CloneWithVersion(model.Version, model.TrainedAt)
	model.Metrics = metrics
	return tr, res, camps, model, nil
}

// assembleStudy builds the Study both Execute variants return; only the
// cost map (and, for streaming runs, the snapshot) differs between them.
func (p *Pipeline) assembleStudy(tr *TraceArtifact, res *analyzer.Result, camps *CampaignArtifact, model *core.Model, costs map[int]*core.UserCost) *Study {
	return &Study{
		Config:    p.cfg,
		Ecosystem: tr.Ecosystem,
		Trace:     tr.Trace,
		Analysis:  res,
		A1:        camps.A1,
		A2:        camps.A2,
		Model:     model,
		Costs:     costs,
		Baseline:  baseline.New(res),
	}
}

// Execute runs every stage in dependency order — Analyze and RunCampaigns
// concurrently, both feeding TrainModel — and assembles the Study. It is
// the staged equivalent of Run and returns the first stage error,
// including ctx.Err() after cancellation.
func (p *Pipeline) Execute(ctx context.Context) (*Study, error) {
	tr, res, camps, model, err := p.executeModel(ctx)
	if err != nil {
		return nil, err
	}
	costs, err := p.EstimateCosts(ctx, res, model)
	if err != nil {
		return nil, fmt.Errorf("yourandvalue: %w", err)
	}
	return p.assembleStudy(tr, res, camps, model, costs), nil
}

// ExecuteStreaming is Execute with the cost stage run online: the
// generated trace is replayed as an event stream through
// EstimateCostsStreaming instead of estimated in batch. The resulting
// Study carries costs bit-identical to Execute's for the same seed, plus
// the final stream snapshot (top-K users/advertisers, running totals) in
// Study.Stream.
func (p *Pipeline) ExecuteStreaming(ctx context.Context) (*Study, error) {
	tr, res, camps, model, err := p.executeModel(ctx)
	if err != nil {
		return nil, err
	}
	src, err := stream.NewReplaySource(tr.Trace)
	if err != nil {
		return nil, fmt.Errorf("yourandvalue: %w", err)
	}
	sres, err := p.EstimateCostsStreaming(ctx, src, model)
	if err != nil {
		return nil, fmt.Errorf("yourandvalue: %w", err)
	}
	study := p.assembleStudy(tr, res, camps, model, sres.Costs)
	study.Stream = sres.Final
	return study, nil
}
