// Package pmeserver exposes the Price Modeling Engine over HTTP: clients
// periodically fetch fresh models ("the extension periodically issues
// requests to PME to check for new versions of the model", §3.3) and may
// anonymously contribute the charge prices and metadata they observe
// ("contribute anonymously their impression charge prices to a
// centralized platform for further research", §1).
//
// The package is a transport adapter: every handler is a thin decode →
// pme.Service → encode shim, composed through a small middleware chain
// (request logging, per-endpoint metrics, token-bucket rate limiting).
// The business logic — model registry, contribution pool, estimation,
// retraining — lives transport-agnostically in internal/pme.
//
// The server is deliberately privacy-preserving: contributions carry no
// user identifier, and the model endpoint requires none.
package pmeserver

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pme"
)

// Contribution is one anonymous price observation a client donates —
// the wire form of pme.Contribution (same type; the alias keeps the
// historical pmeserver surface stable).
type Contribution = pme.Contribution

// EstimateItem is one thin-client price query, aliased from the service
// core for the same reason.
type EstimateItem = pme.EstimateItem

// Server adapts a pme.Service onto HTTP. All methods are safe for
// concurrent use.
type Server struct {
	svc      pme.Service
	registry *pme.Registry   // nil when a custom Service is injected
	pool     pme.PoolBackend // nil when a custom Service is injected
	ready    func(ctx context.Context) error
	metrics  *Metrics
	obs      *obs.Registry
	tracer   *trace.Tracer // nil = spans off; propagation still works
	logger   *slog.Logger
	limiter  *tokenBucket
	observer func(RequestObservation)
	pprof    bool
	start    time.Time
}

// RequestObservation is one finished request as the instrument
// middleware saw it — the hook load harnesses use to record
// server-side spans next to their client-side ones.
type RequestObservation struct {
	// Route is the endpoint name ("v2.estimate", ...).
	Route    string
	Status   int
	Start    time.Time
	Duration time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithLogger attaches a structured request logger (one slog line per
// request, carrying the trace ID when the request is traced) to the
// middleware chain.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithObsRegistry serves telemetry through an externally owned obs
// registry — the handle a process shares between the server, the model
// lifecycle, and its own collectors so one /metrics scrape covers
// everything. Without it the server creates a private registry.
func WithObsRegistry(r *obs.Registry) Option {
	return func(s *Server) {
		if r != nil {
			s.obs = r
		}
	}
}

// WithTracer records one server-side span per request into tr. Combined
// with clients that inject traceparent (trace.Transport), the exported
// spans parent onto the callers' — one NDJSON file shows the full
// client → middleware → Service tree. The tracer's spans are served on
// GET /debug/trace.
func WithTracer(tr *trace.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — opt-in because
// profiles expose internals no public deployment should serve.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithRateLimit installs a global token-bucket limiter: rps sustained
// requests per second with the given burst. Requests beyond it receive
// 429 with a Retry-After hint. /healthz is exempt.
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) { s.limiter = newTokenBucket(rps, burst) }
}

// WithRequestObserver calls fn once per finished request (after the
// metrics middleware records it). fn runs on the request goroutine and
// must be safe for concurrent use; internal/scaletest wires it to its
// span recorder so SLO violations can be debugged request by request
// from the server's side of the wire.
func WithRequestObserver(fn func(RequestObservation)) Option {
	return func(s *Server) { s.observer = fn }
}

// WithRegistry serves models from an externally owned registry — the
// handle the training pipeline publishes into and the retrain loop
// hot-swaps through.
func WithRegistry(reg *pme.Registry) Option {
	return func(s *Server) { s.registry = reg }
}

// WithPool pools contributions into an externally owned pool — the
// handle a retrain loop drains.
func WithPool(p *pme.Pool) Option {
	return func(s *Server) {
		if p != nil {
			s.pool = p
		}
	}
}

// WithPoolBackend pools contributions into any PoolBackend — the fleet
// deployment passes the replica's store-backed pool so every replica
// contributes into (and the lease holder retrains from) one shared
// pool.
func WithPoolBackend(p pme.PoolBackend) Option {
	return func(s *Server) {
		if p != nil {
			s.pool = p
		}
	}
}

// WithReadiness overrides what GET /readyz checks. The default is
// model-presence only; a fleet replica installs its store-aware check
// (unreachable store or never-seen model version → 503, recovering to
// 200 without a restart when the store returns).
func WithReadiness(fn func(ctx context.Context) error) Option {
	return func(s *Server) {
		if fn != nil {
			s.ready = fn
		}
	}
}

// WithCoreOptions returns an Option that does nothing: pme.Core has no
// options left.
//
// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
func WithCoreOptions(...pme.CoreOption) Option { return func(*Server) {} }

// WithService replaces the whole service core. The compat accessors
// (SetModel, Model, Contributions, SetMaxPool) need registry/pool
// handles and return zero values or errors under a custom service
// unless WithRegistry/WithPool also supply them.
func WithService(svc pme.Service) Option {
	return func(s *Server) { s.svc = svc }
}

// New creates a Server distributing the given model (may be nil until
// SetModel is called or a model is published into the registry).
func New(model *core.Model, opts ...Option) (*Server, error) {
	s := &Server{metrics: newMetrics(), start: time.Now()}
	for _, o := range opts {
		o(s)
	}
	if s.svc == nil {
		if s.registry == nil {
			s.registry = pme.NewRegistry()
		}
		if s.pool == nil {
			s.pool = pme.NewPool(0)
		}
		s.svc = pme.NewCore(s.registry, s.pool)
	}
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	// Registration is idempotent, so sharing a registry with a process
	// that already registered its collectors is harmless.
	obs.RegisterRuntime(s.obs)
	s.metrics.bind(s.obs)
	pme.Instrument(s.obs, s.registry, s.pool)
	if s.tracer != nil {
		tr := s.tracer
		s.obs.CounterFunc("pme_trace_dropped_spans_total",
			"Spans discarded at the tracer's retention bound.", nil,
			func() float64 { return float64(tr.Dropped()) })
	}
	if model != nil {
		if err := s.SetModel(model); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Service returns the underlying service core.
func (s *Server) Service() pme.Service { return s.svc }

// Close returns nil: the server holds nothing beyond the HTTP listener,
// which its caller owns and shuts down.
//
// Deprecated: no-op since the batcher was removed; kept only so pmebench builds.
func (s *Server) Close() error { return nil }

// Registry returns the model registry behind the server (nil when a
// custom Service was injected without one).
func (s *Server) Registry() *pme.Registry { return s.registry }

// Pool returns the contribution pool backend behind the server (nil
// when a custom Service was injected without one).
func (s *Server) Pool() pme.PoolBackend { return s.pool }

// SetModel publishes m as the next distributed model version via the
// registry's atomic hot-swap. The caller's model is never mutated.
func (s *Server) SetModel(m *core.Model) error {
	if s.registry == nil {
		return errors.New("pmeserver: no registry to publish into")
	}
	_, err := s.registry.Publish(m)
	return err
}

// SetMaxPool bounds the contribution pool (default 100,000); n <= 0 is
// ignored. Contributions beyond the bound are counted as dropped.
func (s *Server) SetMaxPool(n int) {
	if s.pool != nil {
		s.pool.SetMax(n)
	}
}

// Model returns the currently published model (may be nil).
func (s *Server) Model() *core.Model {
	if s.registry == nil {
		return nil
	}
	if snap := s.registry.Current(); snap != nil {
		return snap.Model
	}
	return nil
}

// Contributions returns a deep copy of the pooled observations —
// callers may mutate the result freely without racing the pool or the
// retrain loop.
func (s *Server) Contributions() []Contribution {
	if s.pool == nil {
		return nil
	}
	return s.pool.Snapshot()
}

// Metrics returns a consistent snapshot of the per-endpoint middleware
// counters and latency histograms.
func (s *Server) Metrics() map[string]EndpointStats { return s.metrics.snapshot() }

// Obs returns the server's telemetry registry — the one GET /metrics
// scrapes.
func (s *Server) Obs() *obs.Registry { return s.obs }

// Tracer returns the span recorder (nil unless WithTracer was given).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler returns the HTTP mux. Every route runs behind the middleware
// chain request-log → metrics → rate-limit → handler, and every handler
// body is a thin adapter over the pme.Service.
//
// v1 (stable, plain-text errors):
//
//	GET  /v1/model         → current model JSON (404 until one is set)
//	GET  /v1/model/version → {"version": N}
//	POST /v1/contribute    → accept a JSON array of Contributions
//	GET  /healthz          → 200 ok
//
// v2 (context-aware clients, structured JSON errors — see v2.go):
//
//	GET  /v2/model           → model JSON with ETag; If-None-Match → 304
//	GET  /v2/model/flat      → compact flat binary model, same ETag (404 when the model has no forest)
//	GET  /v2/model/version   → {"version": N, "etag": "..."}
//	POST /v2/contribute      → {"accepted":N,"dropped":M,"invalid":K}; 507 when full
//	POST /v2/estimate        → batch price estimation for thin clients
//	POST /v2/estimate/stream → NDJSON streaming estimation (see stream.go)
//	GET  /v2/stats           → ops JSON: uptime, model identity, per-endpoint metrics
//
// Operational surface (outside the metrics/rate-limit chain — scrapes
// and probes must never perturb or be perturbed by the series they
// read):
//
//	GET  /metrics      → Prometheus text exposition of the obs registry
//	GET  /readyz       → 200 once a model snapshot is loaded, 503 before
//	GET  /debug/trace  → NDJSON dump of recorded spans (404 when tracing is off)
//	GET  /debug/pprof/ → net/http/pprof (only with WithPprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/model", s.route("v1.model", s.handleModel))
	mux.Handle("/v1/model/version", s.route("v1.version", s.handleVersion))
	mux.Handle("/v1/contribute", s.route("v1.contribute", s.handleContribute))
	mux.Handle("/v2/model", s.route("v2.model", s.handleModelV2))
	mux.Handle("/v2/model/flat", s.route("v2.model_flat", s.handleModelFlatV2))
	mux.Handle("/v2/model/version", s.route("v2.version", s.handleVersionV2))
	mux.Handle("/v2/contribute", s.route("v2.contribute", s.handleContributeV2))
	mux.Handle("/v2/estimate", s.route("v2.estimate", s.handleEstimateV2))
	mux.Handle("/v2/estimate/stream", s.route("v2.estimate_stream", s.handleEstimateStreamV2))
	mux.Handle("/v2/stats", s.route("v2.stats", s.handleStats))
	// Health and the ops surface stay outside metrics and rate limiting:
	// orchestrators must always see them, and they would only pollute
	// the latency series.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	mux.Handle("/metrics", s.obs.Handler())
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/trace", s.handleTraceDump)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleReadyz is the readiness probe: 200 once a model snapshot is
// published (the server can actually answer /v2/model and /v2/estimate),
// 503 before. Liveness stays /healthz — a booting server is alive but
// not ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready != nil {
		if err := s.ready(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	} else if _, err := s.svc.ModelSnapshot(r.Context()); err != nil {
		http.Error(w, "no model published", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready"))
}

// handleTraceDump exports the recorded spans as NDJSON — the endpoint a
// load harness scrapes after a run to merge server-side spans into its
// own export. 404 when no tracer is attached.
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.tracer.WriteNDJSON(w)
}

// route composes the middleware chain for one named endpoint.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	ep := s.metrics.endpoint(name)
	return chain(h,
		rateLimit(s.limiter, ep, strings.HasPrefix(name, "v1.")),
		instrument(ep, name, s.observer),
		requestLog(s.logger, name),
		traceExtract(s.tracer, name),
	)
}
