package pmeserver

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yourandvalue/internal/pme"
)

// TestContributionsDeepCopy: the slice Contributions returns must be
// fully detached — callers mutating it while contributors keep writing
// must neither corrupt the pool nor race it (run under -race in CI).
func TestContributionsDeepCopy(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(ts.URL)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = client.ContributeV2(context.Background(), []Contribution{
					{ADX: "MoPub", PriceCPM: 0.7, City: "Madrid"},
				})
			}
		}()
	}
	// Reader goroutines scribble all over their snapshots while the
	// writers pool new entries: only a deep copy survives -race.
	for i := 0; i < 50; i++ {
		snap := srv.Contributions()
		for j := range snap {
			snap[j].ADX = "corrupted"
			snap[j].PriceCPM = -1
		}
	}
	close(stop)
	wg.Wait()

	for _, c := range srv.Contributions() {
		if c.ADX != "MoPub" || c.PriceCPM != 0.7 {
			t.Fatalf("pooled contribution corrupted through a snapshot: %+v", c)
		}
	}
}

// TestRegistryHotSwapUnderLoad: concurrent batch and streaming
// estimates racing a publisher must see zero errors, and every response
// must identify exactly one published version (run under -race in CI).
func TestRegistryHotSwapUnderLoad(t *testing.T) {
	m := testModel(t)
	reg := pme.NewRegistry()
	if _, err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}
	srv, err := New(nil, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// published tracks every version the swapper has made live.
	var pubMu sync.Mutex
	published := map[int]bool{reg.Current().Version: true}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the hot-swapper: a retrain loop in miniature
		defer wg.Done()
		for i := 0; i < 30; i++ {
			snap, err := reg.Publish(m)
			if err != nil {
				t.Errorf("publish: %v", err)
				return
			}
			pubMu.Lock()
			published[snap.Version] = true
			pubMu.Unlock()
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	var calls, failures atomic.Int64
	items := streamItems(64)
	checkVersion := func(v int) {
		pubMu.Lock()
		ok := published[v]
		pubMu.Unlock()
		if !ok {
			t.Errorf("response cites unpublished model version %d", v)
		}
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(streaming bool) {
			defer wg.Done()
			client := NewClient(ts.URL)
			for ctx.Err() == nil {
				if streaming {
					ests, sum, err := client.EstimateStreamSliceV2(context.Background(), items)
					if err != nil {
						failures.Add(1)
						t.Errorf("stream estimate: %v", err)
						continue
					}
					if len(ests) != len(items) {
						t.Errorf("stream returned %d estimates, want %d", len(ests), len(items))
					}
					checkVersion(sum.ModelVersion)
				} else {
					out, err := client.EstimateV2(context.Background(), items)
					if err != nil {
						failures.Add(1)
						t.Errorf("batch estimate: %v", err)
						continue
					}
					checkVersion(out.ModelVersion)
				}
				calls.Add(1)
			}
		}(c%2 == 0)
	}
	wg.Wait()

	if calls.Load() == 0 {
		t.Fatal("no estimate calls completed during the swap storm")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d estimate calls failed during hot-swap", failures.Load())
	}
	// Clients polling conditionally converge on the final version.
	v, err := NewClient(ts.URL).VersionV2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != reg.Current().Version {
		t.Errorf("advertised version %d, registry current %d", v.Version, reg.Current().Version)
	}
}

// TestRateLimitMiddleware: requests beyond the token bucket are shed
// with a structured 429 and counted in the endpoint metrics.
func TestRateLimitMiddleware(t *testing.T) {
	srv, err := New(testModel(t), WithRateLimit(0.001, 2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ok, limited int
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/v2/model/version")
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var body struct {
				Error apiError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Code != "rate_limited" {
				t.Errorf("429 body code = %q (%v)", body.Error.Code, err)
			}
			limited++
		default:
			t.Errorf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok != 2 || limited != 4 {
		t.Errorf("ok=%d limited=%d, want 2 allowed (burst) and 4 shed", ok, limited)
	}
	// Health stays reachable regardless.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d under rate limiting", resp.StatusCode)
	}

	stats := srv.Metrics()["v2.version"]
	if stats.RateLimited != 4 {
		t.Errorf("metrics rate_limited = %d, want 4", stats.RateLimited)
	}
	if stats.Requests != 6 {
		t.Errorf("metrics requests = %d, want 6 (sheds are counted)", stats.Requests)
	}
}

// TestMetricsMiddleware: the chain counts requests, errors, and
// latencies per endpoint and serves them on /v2/stats.
func TestMetricsMiddleware(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := client.VersionV2(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.EstimateV2(ctx, nil); err == nil {
		t.Fatal("empty estimate should fail")
	}

	m := srv.Metrics()
	if got := m["v2.version"]; got.Requests != 3 || got.Errors != 0 {
		t.Errorf("v2.version stats = %+v, want 3 requests / 0 errors", got)
	}
	if got := m["v2.estimate"]; got.Requests != 1 || got.Errors != 1 {
		t.Errorf("v2.estimate stats = %+v, want 1 request / 1 error", got)
	}
	if m["v2.version"].P50 <= 0 {
		t.Error("latency histogram recorded nothing")
	}

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Endpoints["v2.version"].Requests != 3 {
		t.Errorf("/v2/stats v2.version requests = %d, want 3", body.Endpoints["v2.version"].Requests)
	}
	if body.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v, want >= 0", body.UptimeSeconds)
	}
	if body.Model == nil || body.Model.Version < 1 || body.Model.ETag == "" {
		t.Errorf("/v2/stats model = %+v, want published version with ETag", body.Model)
	}
}

// TestV2ContextClients: the v2 client methods round-trip against the
// server and honor cancellation.
func TestV2ContextClients(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	m, etag, err := client.FetchModelV2(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	v, err := client.VersionV2(ctx)
	if err != nil || v.Version != m.Version || v.ETag != etag {
		t.Errorf("VersionV2 = %+v, %v; want version %d, etag %s", v, err, m.Version, etag)
	}
	out, err := client.ContributeV2(ctx, []Contribution{
		{ADX: "MoPub", PriceCPM: 0.4},
	})
	if err != nil || out.Accepted != 1 {
		t.Errorf("ContributeV2 = %+v, %v", out, err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.FetchModelV2(cancelled, ""); !errors.Is(err, context.Canceled) {
		t.Errorf("FetchModelV2 on cancelled ctx: %v", err)
	}
	if _, err := client.VersionV2(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("VersionV2 on cancelled ctx: %v", err)
	}
	if _, err := client.ContributeV2(cancelled, []Contribution{{ADX: "X", PriceCPM: 1}}); !errors.Is(err, context.Canceled) {
		t.Errorf("ContributeV2 on cancelled ctx: %v", err)
	}
}

// TestHTTPServerClosesSlowHeader: a client that sends half a request
// header and stalls has its connection closed once readHeaderTimeout
// passes, not held open.
func TestHTTPServerClosesSlowHeader(t *testing.T) {
	t.Parallel()
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.HTTPServer()
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: pme\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 2 * time.Second
	_ = conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout-slack {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
