package pmeserver

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"yourandvalue/internal/obs/trace"
)

// middleware wraps a handler with one cross-cutting concern. The chain
// for every route is fixed: trace-extract → request-log → metrics →
// rate-limit → handler (outermost first), so a shed request is still
// traced, logged, and counted, and the latency histogram sees every
// response the client sees.
type middleware func(http.Handler) http.Handler

// chain applies middlewares around h; the last argument becomes the
// outermost layer.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for _, mw := range mws {
		if mw != nil {
			h = mw(h)
		}
	}
	return h
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (the NDJSON endpoint needs them
// through the wrapper).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer (the
// NDJSON endpoint enables full-duplex through it).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// traceExtract is the server half of W3C trace propagation: it parses
// an inbound traceparent header, stores the span context in the request
// context (so the request logger and any downstream code see the trace
// identity even when span recording is off), and — when a tracer is
// attached — records one server-side span per request whose parent is
// the client's span. Requests arriving without a header get a fresh
// trace ID, so server-only tracing still produces linkable trees.
func traceExtract(tr *trace.Tracer, name string) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, ok := trace.Extract(r)
			if !ok && tr != nil {
				parent = trace.SpanContext{Trace: tr.NewTraceID()}
			}
			if parent.Trace.IsZero() {
				// No header and no tracer: nothing to propagate or record.
				next.ServeHTTP(w, r)
				return
			}
			span := tr.Child("server."+name, parent)
			ctx := trace.ContextWith(r.Context(), trace.SpanContext{Trace: parent.Trace, Span: span.ID()})
			if !span.Context().Valid() {
				// Recording off (nil tracer) but a client trace arrived:
				// propagate the client's context for log correlation.
				ctx = trace.ContextWith(r.Context(), parent)
			}
			sw := &statusWriter{ResponseWriter: w}
			next.ServeHTTP(sw, r.WithContext(ctx))
			span.SetAttr("route", name).
				SetAttr("method", r.Method).
				SetAttr("status", strconv.Itoa(sw.status)).
				End()
		})
	}
}

// requestLog emits one structured line per request when a logger is
// attached, carrying the trace ID (when the request is traced) so log
// lines correlate with exported spans.
func requestLog(l *slog.Logger, name string) middleware {
	if l == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", name,
				"status", sw.status,
				"duration", time.Since(start).Round(time.Microsecond).String(),
			}
			if sc, ok := trace.FromContext(r.Context()); ok {
				attrs = append(attrs, "trace_id", sc.Trace.String())
			}
			l.Info("request", attrs...)
		})
	}
}

// instrument records per-endpoint request counts, error counts, and a
// latency histogram, then notifies the optional request observer (the
// load-harness span hook).
func instrument(ep *endpointMetrics, name string, observer func(RequestObservation)) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			d := time.Since(start)
			ep.record(sw.status, d)
			if observer != nil {
				observer(RequestObservation{Route: name, Status: sw.status, Start: start, Duration: d})
			}
		})
	}
}

// rateLimit sheds requests beyond the server's token bucket with a
// structured 429, counting the shed on the endpoint's metrics.
func rateLimit(b *tokenBucket, ep *endpointMetrics) middleware {
	if b == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !b.allow(time.Now()) {
				ep.rateLimited.Add(1)
				w.Header().Set("Retry-After", "1")
				writeV2Error(w, http.StatusTooManyRequests, "rate_limited",
					"request rate exceeds the server's limit")
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// tokenBucket is a minimal global token bucket: rps sustained, burst
// capacity, lazily refilled on each allow call.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps float64, burst int) *tokenBucket {
	if rps <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rps, burst: float64(burst), tokens: float64(burst)}
}

// allow consumes one token if available.
func (b *tokenBucket) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
