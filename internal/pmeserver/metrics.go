package pmeserver

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/hist"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

// endpointMetrics is one route's live counters and latency histogram.
// Counters are atomic; the histogram is the shared internal/hist layout
// behind a mutex (hist.Sync), so server-side latencies aggregate with
// the exact bucket scheme scaletest's client-side reports use.
type endpointMetrics struct {
	requests    atomic.Int64
	errors      atomic.Int64 // responses with status >= 400
	rateLimited atomic.Int64 // sheds by the token bucket (status 429)
	latency     hist.Sync
}

// record accounts one finished request.
func (e *endpointMetrics) record(status int, d time.Duration) {
	e.requests.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	e.latency.Record(d)
}

// Metrics owns the per-endpoint series. Endpoints are registered while
// the mux is built (single-threaded); serving only reads the map.
type Metrics struct {
	mu  sync.Mutex
	eps map[string]*endpointMetrics
	obs *obs.Registry // when bound, each endpoint mirrors onto it
}

func newMetrics() *Metrics {
	return &Metrics{eps: make(map[string]*endpointMetrics)}
}

// bind mirrors every endpoint's series — existing and future — onto an
// obs registry as read-through Prometheus-style families. The endpoint
// counters stay the single source of truth; /v2/stats and /metrics are
// two views over the same atomics.
func (m *Metrics) bind(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	m.obs = reg
	for name, ep := range m.eps {
		m.export(name, ep)
	}
	m.mu.Unlock()
}

// export registers one endpoint's read-through series. Caller holds mu.
func (m *Metrics) export(name string, ep *endpointMetrics) {
	labels := obs.Labels{"route": name}
	m.obs.CounterFunc("pme_http_requests_total", "HTTP requests finished, by route (shed requests included).", labels,
		func() float64 { return float64(ep.requests.Load()) })
	m.obs.CounterFunc("pme_http_errors_total", "HTTP responses with status >= 400, by route.", labels,
		func() float64 { return float64(ep.errors.Load()) })
	m.obs.CounterFunc("pme_http_rate_limited_total", "Requests shed by the token bucket (429), by route.", labels,
		func() float64 { return float64(ep.rateLimited.Load()) })
	m.obs.HistogramFunc("pme_http_request_duration_seconds", "Server-side request latency, by route.", labels,
		ep.latency.Snapshot)
}

// endpoint returns (creating once) the named endpoint's series.
func (m *Metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.eps[name]
	if !ok {
		ep = &endpointMetrics{}
		m.eps[name] = ep
		if m.obs != nil {
			m.export(name, ep)
		}
	}
	return ep
}

// EndpointStats is the exported snapshot of one endpoint's series.
type EndpointStats struct {
	Requests    int64         `json:"requests"`
	Errors      int64         `json:"errors"`
	RateLimited int64         `json:"rate_limited"`
	MeanMicros  int64         `json:"mean_us"`
	P50Micros   int64         `json:"p50_us"`
	P95Micros   int64         `json:"p95_us"`
	P99Micros   int64         `json:"p99_us"`
	MaxMicros   int64         `json:"max_us"`
	Mean        time.Duration `json:"-"`
	P50         time.Duration `json:"-"`
	P95         time.Duration `json:"-"`
	P99         time.Duration `json:"-"`
}

// snapshot exports every endpoint's current stats in one pass under one
// lock hold — the previous version re-acquired the mutex per endpoint
// via endpoint(name), so a scrape racing route registration could
// interleave map growth between reads.
func (m *Metrics) snapshot() map[string]EndpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointStats, len(m.eps))
	for name, ep := range m.eps {
		h := ep.latency.Snapshot()
		st := EndpointStats{
			Requests:    ep.requests.Load(),
			Errors:      ep.errors.Load(),
			RateLimited: ep.rateLimited.Load(),
			Mean:        h.Mean(),
			P50:         h.Quantile(0.50),
			P95:         h.Quantile(0.95),
			P99:         h.Quantile(0.99),
		}
		st.MeanMicros = st.Mean.Microseconds()
		st.P50Micros = st.P50.Microseconds()
		st.P95Micros = st.P95.Microseconds()
		st.P99Micros = st.P99.Microseconds()
		st.MaxMicros = h.Max().Microseconds()
		out[name] = st
	}
	return out
}

// ModelStats is the serving-model summary /v2/stats reports: identity,
// age and out-of-bag error of the serving version, and the latest
// quality record (the §5.4 cross-validation, pending or done).
type ModelStats struct {
	Version        int                `json:"version"`
	ETag           string             `json:"etag"`
	ETagAgeSeconds float64            `json:"etag_age_seconds"`
	OOBError       float64            `json:"oob_error"`
	Quality        *pme.QualityRecord `json:"quality,omitempty"`
}

// StatsResponse is the /v2/stats body: process uptime, the serving
// model's identity and age, tracer drop pressure, and the per-endpoint
// middleware series.
type StatsResponse struct {
	UptimeSeconds      float64                  `json:"uptime_seconds"`
	Model              *ModelStats              `json:"model,omitempty"`
	TracerDroppedSpans int64                    `json:"tracer_dropped_spans"`
	Endpoints          map[string]EndpointStats `json:"endpoints"`
}

// handleStats serves the ops view as JSON: what the middleware chain
// observed per endpoint, plus uptime, model identity, and trace-drop
// pressure. The numbers are the same atomics /metrics exposes —
// different rendering, one source of truth.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	resp := StatsResponse{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		TracerDroppedSpans: s.tracer.Dropped(),
		Endpoints:          s.metrics.snapshot(),
	}
	if s.registry != nil {
		if snap := s.registry.Current(); snap != nil {
			resp.Model = &ModelStats{
				Version:        snap.Version,
				ETag:           snap.ETag,
				ETagAgeSeconds: time.Since(snap.PublishedAt).Seconds(),
				OOBError:       snap.Model.Metrics.OOBError,
				Quality:        s.registry.Quality(),
			}
		}
	}
	writeV2JSON(w, http.StatusOK, resp)
}
