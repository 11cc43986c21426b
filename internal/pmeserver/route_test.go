package pmeserver

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/obs/trace"
)

// TestRouteObservationHoldsServerSpan: with a tracer on, every request —
// one carrying a client traceparent, one without, and one the rate
// limiter sheds — yields one server span, one log line with its trace
// ID, one metrics count and one observation, and the observation starts
// no later than the server span and ends no earlier: the latency the
// server reports covers all the work it traced, trace extraction
// included.
func TestRouteObservationHoldsServerSpan(t *testing.T) {
	tr := trace.NewTracer(0)
	var logs bytes.Buffer
	var mu sync.Mutex
	var seen []RequestObservation
	srv, err := New(testModel(t),
		WithTracer(tr),
		WithLogger(slog.New(slog.NewTextHandler(&logs, nil))),
		WithRateLimit(0.001, 2),
		WithRequestObserver(func(o RequestObservation) {
			mu.Lock()
			seen = append(seen, o)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := trace.SpanContext{Trace: trace.TraceID{1, 2, 3}, Span: 7}
	for i, c := range []struct {
		parent *trace.SpanContext
		status int
	}{
		{&client, http.StatusOK},
		{nil, http.StatusOK},
		{nil, http.StatusTooManyRequests},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/model/version", nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.parent != nil {
			trace.Inject(req.Header, *c.parent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("request %d: status %d, want %d", i, resp.StatusCode, c.status)
		}
		// The observer runs after the span ends, on the request
		// goroutine: wait for it before the next request.
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(seen)
			mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %d: %d observations", i, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	spans := tr.Snapshot()
	if len(spans) != len(seen) {
		t.Fatalf("%d server spans for %d observations", len(spans), len(seen))
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != len(seen) {
		t.Fatalf("%d log lines for %d requests:\n%s", len(lines), len(seen), logs.String())
	}
	for i, o := range seen {
		sp := spans[i]
		if sp.Name != "server.v2.version" || sp.Attrs["status"] != strconv.Itoa(o.Status) {
			t.Fatalf("span %d: %s status %s, observation status %d", i, sp.Name, sp.Attrs["status"], o.Status)
		}
		if start := o.Start.UnixNano(); start > sp.Start {
			t.Errorf("request %d: observation starts %d ns after the server span", i, start-sp.Start)
		}
		if end, spanEnd := o.Start.UnixNano()+int64(o.Duration), sp.Start+sp.DurNS; end < spanEnd {
			t.Errorf("request %d: observation ends %d ns before the server span", i, spanEnd-end)
		}
		if !strings.Contains(lines[i], "trace_id="+sp.Trace.String()) {
			t.Errorf("request %d: log line %q lacks trace %s", i, lines[i], sp.Trace)
		}
	}
	if spans[0].Trace != client.Trace || spans[0].Parent != client.Span {
		t.Errorf("span under a client traceparent: trace %s parent %s", spans[0].Trace, spans[0].Parent)
	}
	if spans[1].Trace.IsZero() || spans[1].Trace == client.Trace || spans[1].Parent != 0 {
		t.Errorf("span without a traceparent: trace %s parent %s, want a fresh root", spans[1].Trace, spans[1].Parent)
	}
	if st := srv.Metrics()["v2.version"]; st.Requests != 3 || st.RateLimited != 1 {
		t.Errorf("metrics: %d requests, %d shed; want 3 and 1", st.Requests, st.RateLimited)
	}
}
