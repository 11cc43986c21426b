package pme

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/core"
)

// Snapshot is one immutable published model version: the model, its
// compact blob (core.Model.EncodeCompact) and the strong ETag over it.
// Snapshots are never mutated after Publish — readers may hold one for
// the whole lifetime of a request (or an unbounded estimate stream) and
// see a single consistent version regardless of concurrent hot-swaps.
type Snapshot struct {
	Model       *core.Model
	Version     int
	ETag        string // strong ETag over Blob, quoted
	Blob        []byte // the exact bytes GET /v2/model distributes; read-only
	PublishedAt time.Time
}

// Quality record states.
const (
	QualityPending = "pending"
	QualityDone    = "done"
	QualityFailed  = "failed"
)

// QualityRecord is the §5.4 cross-validation of one published version.
// The version serves while it is pending; once done it carries the
// version's metrics with the cross-validated fields and folds × runs
// filled in, and the seconds from TrackQuality to the report.
type QualityRecord struct {
	Version int                `json:"version"`
	State   string             `json:"state"`
	Metrics *core.ModelMetrics `json:"metrics,omitempty"` // nil until done
	Seconds float64            `json:"seconds,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// ErrNoHistory reports a rollback with no earlier version to return to.
var ErrNoHistory = errors.New("pme: no earlier model version to roll back to")

// Registry holds the versioned model lineage. Publish assigns
// monotonically increasing versions and hot-swaps the current snapshot
// atomically: Current is a single pointer load, so estimation paths pay
// no lock to resolve the serving model. A bounded history retains
// recent versions for rollback.
type Registry struct {
	mu         sync.Mutex // serializes writers (Publish/Rollback)
	cur        atomic.Pointer[Snapshot]
	history    []*Snapshot
	maxHistory int
	now        func() time.Time
	publishes  atomic.Int64 // lifetime hot-swaps, including rollbacks
	quality    atomic.Pointer[QualityRecord]
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithHistory bounds how many published snapshots the registry retains
// for rollback (default 8, minimum 2 — rollback needs a predecessor).
func WithHistory(n int) RegistryOption {
	return func(r *Registry) {
		if n >= 2 {
			r.maxHistory = n
		}
	}
}

// WithClock overrides the publish timestamp source (tests).
func WithClock(now func() time.Time) RegistryOption {
	return func(r *Registry) {
		if now != nil {
			r.now = now
		}
	}
}

// NewRegistry creates an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{maxHistory: 8, now: time.Now}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Current returns the serving snapshot, or nil before the first
// Publish. Lock-free.
func (r *Registry) Current() *Snapshot {
	return r.cur.Load()
}

// Publish clones m with the next version number, encodes it, and
// hot-swaps it in as the serving snapshot. The caller's model is never
// mutated; the returned snapshot's Model is the stamped clone. The
// first published model keeps its own positive version (so a
// pre-trained model's advertised version survives), later publishes
// always increment.
func (r *Registry) Publish(m *core.Model) (*Snapshot, error) {
	if m == nil {
		return nil, errors.New("pme: cannot publish a nil model")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if cur := r.cur.Load(); cur != nil {
		version = cur.Version + 1
	} else if m.Version > 0 {
		version = m.Version
	}
	snap, err := makeSnapshot(m, version, r.now())
	if err != nil {
		return nil, err
	}
	r.installLocked(snap)
	return snap, nil
}

// makeSnapshot clones m stamped with version/at and builds the full
// immutable snapshot: the compact blob and the strong ETag over it. A
// model that cannot be encoded (one without a forest) is an error, so it
// never serves. Shared by the local publish path and the fleet replica
// (which allocates versions from the store instead of locally).
func makeSnapshot(m *core.Model, version int, at time.Time) (*Snapshot, error) {
	clone := m.CloneWithVersion(version, at)
	blob, err := clone.EncodeCompact()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	return &Snapshot{
		Model:       clone,
		Version:     version,
		ETag:        `"` + hex.EncodeToString(sum[:8]) + `"`,
		Blob:        blob,
		PublishedAt: clone.TrainedAt,
	}, nil
}

// installLocked hot-swaps snap in as the serving snapshot and appends
// it to the bounded history. Callers must hold mu.
func (r *Registry) installLocked(snap *Snapshot) {
	r.history = append(r.history, snap)
	if len(r.history) > r.maxHistory {
		r.history = append(r.history[:0], r.history[len(r.history)-r.maxHistory:]...)
	}
	r.cur.Store(snap)
	r.publishes.Add(1)
}

// Adopt installs an externally published snapshot (one a fleet replica
// fetched from the shared store) as the serving model. Adoption is
// strictly monotonic: a snapshot whose version is not ahead of the
// current one is ignored and false is returned — so a served ETag never
// regresses on this replica no matter how reordered or duplicated the
// notifications that triggered the fetch were.
func (r *Registry) Adopt(snap *Snapshot) bool {
	if snap == nil || snap.Model == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil && snap.Version <= cur.Version {
		return false
	}
	r.installLocked(snap)
	return true
}

// Publishes returns the lifetime count of hot-swaps (every Publish,
// including rollbacks — each is a version change serving clients
// observe).
func (r *Registry) Publishes() int64 {
	return r.publishes.Load()
}

// Rollback re-publishes the serving snapshot's predecessor as a new
// version. Versions only move forward — a rollback is a fresh publish
// of old weights, so polling clients converge on it through the same
// ETag-change signal as any other refresh.
func (r *Registry) Rollback() (*Snapshot, error) {
	prev, err := r.predecessor()
	if err != nil {
		return nil, err
	}
	// Publish re-locks; the gap is benign — a racing Publish simply
	// becomes another version between the predecessor and the rollback.
	return r.Publish(prev)
}

// predecessor returns the model of the snapshot published before the
// serving one — what a rollback re-publishes — or ErrNoHistory.
func (r *Registry) predecessor() (*core.Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return nil, ErrNoHistory
	}
	return r.history[len(r.history)-2].Model, nil
}

// TrackQuality implements QualitySink. The record of the latest tracked
// version is kept: a run that lands after a later version was tracked
// is dropped.
func (r *Registry) TrackQuality(version int, cv CrossValidation) {
	pending := &QualityRecord{Version: version, State: QualityPending}
	r.quality.Store(pending)
	start := r.now()
	go func() {
		m, err := cv.Wait(context.Background())
		rec := &QualityRecord{Version: version, State: QualityDone, Metrics: &m,
			Seconds: r.now().Sub(start).Seconds()}
		if err != nil {
			rec.State, rec.Metrics, rec.Error = QualityFailed, nil, err.Error()
		}
		r.quality.CompareAndSwap(pending, rec)
	}()
}

// Quality returns the latest tracked version's quality record, or nil
// before the first TrackQuality.
func (r *Registry) Quality() *QualityRecord {
	return r.quality.Load()
}
