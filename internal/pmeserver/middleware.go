package pmeserver

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"yourandvalue/internal/obs/trace"
)

// route wraps the handler of one named endpoint in the server's request
// layer. It takes the start time first, then extracts the trace (the
// server half of W3C propagation), sheds past the token bucket with a
// structured 429, runs the handler, ends the server span, logs one line,
// records the endpoint's metrics and calls the request observer. A shed
// request is still traced, logged and counted, and the latency
// histogram and the observation cover everything the server did for the
// request, trace extraction included, so they hold the server span.
//
// The request context carries the trace identity even when spans are
// not recorded, so the log line correlates with the client's trace. With
// a tracer attached, a request without a traceparent header gets a fresh
// trace ID, so server-only tracing still produces linkable trees.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	ep := s.metrics.endpoint(name)
	tr, limiter, logger, observer := s.tracer, s.limiter, s.logger, s.observer
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		sc, ok := trace.Extract(r)
		if !ok && tr != nil {
			sc = trace.SpanContext{Trace: tr.NewTraceID()}
		}
		var span *trace.ActiveSpan
		if !sc.Trace.IsZero() {
			if span = tr.Child("server."+name, sc); span != nil {
				sc.Span = span.ID()
			}
			r = r.WithContext(trace.ContextWith(r.Context(), sc))
		}

		if limiter != nil && !limiter.allow(start) {
			ep.rateLimited.Add(1)
			sw.Header().Set("Retry-After", "1")
			writeV2Error(sw, http.StatusTooManyRequests, "rate_limited",
				"request rate exceeds the server's limit")
		} else {
			h(sw, r)
		}

		if span != nil { // an untraced request must not pay for the status string
			span.SetAttr("route", name).
				SetAttr("method", r.Method).
				SetAttr("status", strconv.Itoa(sw.status)).
				End()
		}
		d := time.Since(start)
		if logger != nil {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"route", name,
				"status", sw.status,
				"duration", d.Round(time.Microsecond).String(),
			}
			if !sc.Trace.IsZero() {
				attrs = append(attrs, "trace_id", sc.Trace.String())
			}
			logger.Info("request", attrs...)
		}
		ep.record(sw.status, d)
		if observer != nil {
			observer(RequestObservation{Route: name, Status: sw.status, Start: start, Duration: d})
		}
	})
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
