package pme

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/hist"
	"yourandvalue/internal/mlkit"
)

// RetrainConfig controls the crowdsourced retrain loop. The trigger is
// twofold, matching how the paper's deployment refreshes its model:
// retrain as soon as MinSamples usable cleartext observations have
// pooled, checked every Interval.
type RetrainConfig struct {
	// MinSamples is the count trigger: a retrain happens only once at
	// least this many trainable (cleartext, priced) contributions have
	// pooled. Default 500; values below Classes*10 are raised to it —
	// the discretizer needs populated classes.
	MinSamples int
	// Interval is how often the loop re-checks the trigger (default 30s).
	Interval time.Duration
	// Classes is the price-class count (default 4, §5.4).
	Classes int
	// ForestSize is the retrained ensemble size (default 40).
	ForestSize int
	// Seed drives training determinism; the published version number is
	// folded in so successive retrains decorrelate.
	Seed int64
}

// withDefaults resolves zero fields.
func (c RetrainConfig) withDefaults() RetrainConfig {
	if c.Classes <= 1 {
		c.Classes = 4
	}
	if c.MinSamples < c.Classes*10 {
		if c.MinSamples <= 0 {
			c.MinSamples = 500
		}
		if c.MinSamples < c.Classes*10 {
			c.MinSamples = c.Classes * 10
		}
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.ForestSize <= 0 {
		c.ForestSize = 40
	}
	return c
}

// ErrNotEnoughSamples reports a retrain attempt with too few trainable
// contributions pooled; the pool is left intact.
var ErrNotEnoughSamples = errors.New("pme: not enough trainable contributions to retrain")

// Retrainer drains accepted contributions into forest retraining and
// publishes the result — the consumption side of the crowdsourcing loop
// that previously only accumulated. Safe for concurrent use with the
// serving paths: training happens off to the side and lands through the
// registry's atomic hot-swap.
type Retrainer struct {
	src  ModelSource
	pool PoolBackend
	cfg  RetrainConfig
	// Log, when set, receives one line per loop decision.
	Log func(format string, args ...any)

	retrains  atomic.Int64 // successful publishes
	attempts  atomic.Int64 // RetrainOnce calls that passed the trigger
	failures  atomic.Int64 // attempts whose training errored
	durations hist.Sync    // wall time of actual training runs
}

// NewRetrainer wires a retrain loop over a local registry and pool —
// the single-binary deployment.
func NewRetrainer(reg *Registry, pool *Pool, cfg RetrainConfig) *Retrainer {
	return NewRetrainerWith(reg, pool, cfg)
}

// NewRetrainerWith wires a retrain loop over any model source and pool
// backend — a fleet replica publishing through the shared store uses
// this with (*Replica, *StorePool).
func NewRetrainerWith(src ModelSource, pool PoolBackend, cfg RetrainConfig) *Retrainer {
	return &Retrainer{src: src, pool: pool, cfg: cfg.withDefaults()}
}

// Retrains returns how many model versions this retrainer has published.
func (r *Retrainer) Retrains() int64 { return r.retrains.Load() }

// Attempts returns how many retrain attempts ran past the count trigger
// (each drained the pool and started a training run).
func (r *Retrainer) Attempts() int64 { return r.attempts.Load() }

// Failures returns how many attempts errored (their trainable samples
// were restored to the pool).
func (r *Retrainer) Failures() int64 { return r.failures.Load() }

// TrainDurations returns a consistent snapshot of the training-run
// wall-time distribution.
func (r *Retrainer) TrainDurations() hist.Histogram { return r.durations.Snapshot() }

// Run is the retrain loop: every Interval it checks the count trigger
// and retrains when met. It returns nil when ctx is cancelled (normal
// shutdown) and only surfaces errors that make further retraining
// pointless; transient under-sample states are waited out.
func (r *Retrainer) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			snap, err := r.RetrainOnce(ctx)
			switch {
			case errors.Is(err, ErrNotEnoughSamples) || errors.Is(err, ErrNoModel):
				// Wait for more contributions / a first publish.
			case errors.Is(err, context.Canceled):
				return nil
			case err != nil:
				r.logf("pme: retrain failed: %v", err)
			default:
				r.logf("pme: retrained → version %d (etag %s, %d samples)",
					snap.Version, snap.ETag, snap.Model.Metrics.TrainSize)
			}
		}
	}
}

// RetrainOnce drains the pool and, if enough cleartext samples pooled,
// retrains the forest on them and publishes the result as the next
// model version. The current snapshot supplies the feature layout and
// the time-shift coefficient, so every retrained version stays
// wire-compatible with deployed clients.
//
// Every retrain attempt consumes the pool's untrainable (encrypted)
// entries: they can never contribute a label, so holding them would let
// a mostly-encrypted fleet fill the pool with dead weight and wedge the
// loop behind a bound that never clears. On failure only the trainable
// samples return to the pool.
func (r *Retrainer) RetrainOnce(ctx context.Context) (*Snapshot, error) {
	base := r.src.Current()
	if base == nil {
		return nil, ErrNoModel
	}
	// Cheap trigger check: no drain, no scan, no encode on an idle tick.
	if r.pool.TrainableLen() < r.cfg.MinSamples {
		return nil, ErrNotEnoughSamples
	}
	batch := r.pool.Drain()
	trainable := batch[:0]
	for i := range batch {
		if batch[i].Trainable() {
			trainable = append(trainable, batch[i])
		}
	}
	if len(trainable) < r.cfg.MinSamples {
		r.pool.Restore(trainable)
		return nil, ErrNotEnoughSamples
	}
	r.attempts.Add(1)
	start := time.Now()
	snap, err := r.train(ctx, base, trainable)
	r.durations.Record(time.Since(start))
	if err != nil {
		r.failures.Add(1)
		r.pool.Restore(trainable)
		return nil, err
	}
	r.retrains.Add(1)
	return snap, nil
}

// train fits a forest on the trainable (cleartext, priced) samples and
// publishes it.
func (r *Retrainer) train(ctx context.Context, base *Snapshot, trainable []Contribution) (*Snapshot, error) {
	feats := base.Model.Features
	X := make([][]float64, len(trainable))
	prices := make([]float64, len(trainable))
	for i := range trainable {
		c := &trainable[i]
		X[i] = feats.FromStrings(core.StringContext{
			ADX: c.ADX, City: c.City, OS: c.OS, Device: c.Device,
			Origin: c.Origin, Slot: c.Slot, IAB: c.IAB,
			Hour: c.Observed.Hour(), Weekday: int(c.Observed.Weekday()),
		})
		prices[i] = c.PriceCPM
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	binner, err := mlkit.NewBinner(prices, r.cfg.Classes)
	if err != nil {
		return nil, fmt.Errorf("pme: discretizing contributed prices: %w", err)
	}
	y := binner.Labels(prices)
	// One worker (Workers left 0): a retrain runs beside live estimate
	// traffic on the same CPUs, and fanning its trees out would take
	// them from serving reads to shave a sub-second background job.
	fcfg := mlkit.ForestConfig{
		Trees:    r.cfg.ForestSize,
		Seed:     r.cfg.Seed + int64(base.Version),
		MaxDepth: 24,
		MinLeaf:  1,
	}
	forest, err := mlkit.TrainForest(X, y, binner.Classes(), fcfg)
	if err != nil {
		return nil, fmt.Errorf("pme: retraining forest: %w", err)
	}

	return r.src.Publish(base.Model.Retrained(binner, forest, X)) // Publish stamps the version
}

// logf writes one loop decision line when a logger is attached.
func (r *Retrainer) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}
