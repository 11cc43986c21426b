package pmeserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

// TestMetricsEndpointExposition: after known traffic, /metrics must
// serve a parseable exposition carrying the model/pool/request families
// with per-route labels — the server-level counterpart of the obs
// package's format golden tests.
func TestMetricsEndpointExposition(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	for i := 0; i < 3; i++ {
		if _, _, err := client.FetchModelV2(context.Background(), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.ContributeV2(context.Background(), []Contribution{
		{ADX: "MoPub", PriceCPM: 0.7, City: "Madrid"},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition rejected by parser: %v", err)
	}

	fam, ok := obs.FindFamily(fams, "pme_http_requests_total")
	if !ok {
		t.Fatal("pme_http_requests_total missing")
	}
	if v, ok := fam.Sample(obs.Labels{"route": "v2.model"}); !ok || v != 3 {
		t.Fatalf("pme_http_requests_total{route=v2.model} = %v, %v; want 3", v, ok)
	}
	if fam, ok = obs.FindFamily(fams, "pme_model_version"); !ok {
		t.Fatal("pme_model_version missing")
	}
	if v, ok := fam.Sample(nil); !ok || v < 1 {
		t.Fatalf("pme_model_version = %v, %v; want >= 1", v, ok)
	}
	if fam, ok = obs.FindFamily(fams, "pme_model_nodes"); !ok {
		t.Fatal("pme_model_nodes missing")
	}
	if v, ok := fam.Sample(nil); !ok || v < 1 {
		t.Fatalf("pme_model_nodes = %v, %v; want >= 1", v, ok)
	}
	if fam, ok = obs.FindFamily(fams, "pme_model_blob_bytes"); !ok {
		t.Fatal("pme_model_blob_bytes missing")
	}
	if v, ok := fam.Sample(nil); !ok || v != float64(len(srv.Registry().Current().Blob)) || len(fam.Samples) != 1 {
		t.Fatalf("pme_model_blob_bytes = %v, %v over %d series; want the serving blob's %d bytes as one series",
			v, ok, len(fam.Samples), len(srv.Registry().Current().Blob))
	}
	if fam, ok = obs.FindFamily(fams, "pme_pool_accepted_total"); !ok {
		t.Fatal("pme_pool_accepted_total missing")
	}
	if v, ok := fam.Sample(nil); !ok || v != 1 {
		t.Fatalf("pme_pool_accepted_total = %v, %v; want 1", v, ok)
	}
	if fam, ok = obs.FindFamily(fams, "pme_http_request_duration_seconds"); !ok {
		t.Fatal("pme_http_request_duration_seconds missing")
	}
	if fam.Type != "histogram" {
		t.Fatalf("pme_http_request_duration_seconds type %q, want histogram", fam.Type)
	}
	if _, ok := obs.FindFamily(fams, "go_goroutines"); !ok {
		t.Fatal("runtime collector family go_goroutines missing")
	}
}

// TestMetricsNotTornUnderHotSwap: concurrent /metrics scrapes racing
// model hot-swaps, contributions, and request traffic must always yield
// a well-formed exposition. The strict parser is the tear detector —
// a duplicated series, a missing histogram leg, or a non-cumulative
// bucket sequence all fail the parse (run under -race in CI).
func TestMetricsNotTornUnderHotSwap(t *testing.T) {
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

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // the retrain loop in miniature: hot-swap versions
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := reg.Publish(m); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	for c := 0; c < 2; c++ { // traffic keeping counters and pools moving
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := NewClient(ts.URL)
			for ctx.Err() == nil {
				_, _, _ = client.FetchModelV2(ctx, "")
				_, _ = client.ContributeV2(ctx, []Contribution{
					{ADX: "MoPub", PriceCPM: 0.5, City: "Paris"},
				})
			}
		}(c)
	}

	scrapes := 0
	for ctx.Err() == nil {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			cancel()
			t.Fatalf("scrape %d: torn or malformed exposition: %v", scrapes, err)
		}
		if fam, ok := obs.FindFamily(fams, "pme_model_version"); !ok {
			t.Fatal("pme_model_version missing mid-swap")
		} else if v, ok := fam.Sample(nil); !ok || v < 1 {
			t.Fatalf("pme_model_version = %v, %v mid-swap", v, ok)
		}
		scrapes++
	}
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed during the hot-swap window")
	}
}

// TestReadyzFlip: a server with an empty registry must answer 503 on
// /readyz until the first publish, then 200 — the contract cmd/pme's
// serve-first bootstrap and CI's obscheck probe depend on.
func TestReadyzFlip(t *testing.T) {
	reg := pme.NewRegistry()
	srv, err := New(nil, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish /readyz: status %d, want 503", resp.StatusCode)
	}

	if _, err := reg.Publish(testModel(t)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish /readyz: status %d, want 200", resp.StatusCode)
	}
}

// gatedCV is a cross-validation that lands when the test sends its
// metrics.
type gatedCV chan core.ModelMetrics

func (g gatedCV) Wait(ctx context.Context) (core.ModelMetrics, error) {
	select {
	case m := <-g:
		return m, nil
	case <-ctx.Done():
		return core.ModelMetrics{}, ctx.Err()
	}
}

// TestStatsQualityRecord: a published version serves while its §5.4
// cross-validation is pending; /v2/stats then shows model.quality going
// from pending to done, and the quality gauges follow.
func TestStatsQualityRecord(t *testing.T) {
	reg := pme.NewRegistry()
	snap, err := reg.Publish(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(nil, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Model == nil {
			t.Fatal("/v2/stats without a model")
		}
		return out
	}
	gauge := func(name string) float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		fams, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fam, ok := obs.FindFamily(fams, name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		v, _ := fam.Sample(nil)
		return v
	}

	if st := stats(); st.Model.Quality != nil || st.Model.OOBError != snap.Model.Metrics.OOBError {
		t.Fatalf("before tracking: quality %+v, oob %v", st.Model.Quality, st.Model.OOBError)
	}
	if oob := gauge("pme_model_oob_error"); oob != snap.Model.Metrics.OOBError || oob <= 0 {
		t.Fatalf("pme_model_oob_error = %v, want %v", oob, snap.Model.Metrics.OOBError)
	}

	cv := make(gatedCV)
	reg.TrackQuality(snap.Version, cv)
	if q := stats().Model.Quality; q == nil || q.Version != snap.Version || q.State != pme.QualityPending || q.Metrics != nil {
		t.Fatalf("pending record %+v", q)
	}
	if v := gauge("pme_model_cv_accuracy"); v != 0 {
		t.Fatalf("pme_model_cv_accuracy = %v while pending", v)
	}

	want := snap.Model.Metrics
	want.Accuracy, want.FPRate, want.Precision, want.Recall, want.AUCROC = 0.61, 0.12, 0.6, 0.61, 0.83
	want.CVFolds, want.CVRuns = 10, 1
	cv <- want
	deadline := time.Now().Add(10 * time.Second)
	var q *pme.QualityRecord
	for q = stats().Model.Quality; q.State == pme.QualityPending && time.Now().Before(deadline); q = stats().Model.Quality {
		time.Sleep(5 * time.Millisecond)
	}
	if q.State != pme.QualityDone || q.Version != snap.Version || q.Metrics == nil || *q.Metrics != want || q.Seconds < 0 {
		t.Fatalf("done record %+v, want metrics %+v", q, want)
	}
	if v := gauge("pme_model_cv_accuracy"); v != want.Accuracy {
		t.Fatalf("pme_model_cv_accuracy = %v, want %v", v, want.Accuracy)
	}
	if v := gauge("pme_model_cv_auc"); v != want.AUCROC {
		t.Fatalf("pme_model_cv_auc = %v, want %v", v, want.AUCROC)
	}
}
