package pmeserver

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func streamItems(n int) []EstimateItem {
	adxs := []string{"DoubleClick", "MoPub", "OpenX", "Rubicon"}
	items := make([]EstimateItem, n)
	for i := range items {
		items[i] = EstimateItem{
			ADX:     adxs[i%len(adxs)],
			City:    "Madrid",
			OS:      "Android",
			Origin:  []string{"app", "web"}[i%2],
			Slot:    "300x250",
			Hour:    i % 24,
			Weekday: i % 7,
		}
	}
	return items
}

// TestEstimateStreamMatchesBatch: the NDJSON stream endpoint must
// return exactly the estimates the batch endpoint returns for the same
// items, in order, and report the same model version.
func TestEstimateStreamMatchesBatch(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	items := streamItems(300)
	batch, err := client.EstimateV2(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	got, sum, err := client.EstimateStreamSliceV2(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != len(items) {
		t.Fatalf("stream processed %d items, want %d", sum.Items, len(items))
	}
	if sum.ModelVersion != batch.ModelVersion {
		t.Errorf("stream model version %d, batch %d", sum.ModelVersion, batch.ModelVersion)
	}
	if sum.ETag == "" {
		t.Error("stream summary missing ETag")
	}
	for i := range items {
		if got[i] != batch.EstimatesCPM[i] {
			t.Fatalf("estimate[%d]: stream %v != batch %v", i, got[i], batch.EstimatesCPM[i])
		}
	}
}

// TestEstimateStreamLarge: a 100k-item stream (far beyond the 4096-item
// batch bound) must process completely — the bounded-memory bulk path.
func TestEstimateStreamLarge(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	client.HTTP.Timeout = 2 * time.Minute

	const n = 100_000
	adxs := []string{"DoubleClick", "MoPub", "OpenX", "Rubicon"}
	i := 0
	next := func() (EstimateItem, bool) {
		if i >= n {
			return EstimateItem{}, false
		}
		it := EstimateItem{ADX: adxs[i%len(adxs)], Hour: i % 24, Weekday: i % 7}
		i++
		return it, true
	}
	var received int
	sum, err := client.EstimateStreamV2(context.Background(), next,
		func(idx int, cpm float64) error {
			if cpm <= 0 {
				t.Fatalf("non-positive estimate %v at %d", cpm, idx)
			}
			received++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Items != n || received != n {
		t.Fatalf("processed %d (sink %d), want %d", sum.Items, received, n)
	}
}

// TestEstimateStreamErrors: transport-level and in-band failure modes.
func TestEstimateStreamErrors(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wrong method → structured 405 before any stream starts.
	resp, err := http.Get(ts.URL + "/v2/estimate/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}

	// A malformed line turns into an in-band error after the 200.
	resp, err = http.Post(ts.URL+"/v2/estimate/stream", "application/x-ndjson",
		strings.NewReader(`{"adx":"MoPub"}`+"\n"+"not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with in-band error", resp.StatusCode)
	}
	var sawError bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"bad_line"`) {
			sawError = true
		}
		if strings.Contains(sc.Text(), `"done"`) {
			t.Error("stream reported done after a bad line")
		}
	}
	if !sawError {
		t.Error("malformed line produced no in-band error")
	}

	// The streaming client surfaces the in-band error as a call error.
	client := NewClient(ts.URL)
	_, _, err = client.EstimateStreamSliceV2(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty stream should succeed with zero items, got %v", err)
	}

	// No model → structured 404 before the stream opens.
	empty, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(empty.Handler())
	defer ts2.Close()
	_, _, err = NewClient(ts2.URL).EstimateStreamSliceV2(context.Background(), streamItems(1))
	if err == nil || !strings.Contains(err.Error(), "no_model") {
		t.Errorf("no-model stream error = %v, want no_model", err)
	}
}

// streamRaw POSTs body verbatim to /v2/estimate/stream and returns its
// response lines.
func streamRaw(t *testing.T, base, body string) []string {
	t.Helper()
	resp, err := http.Post(base+"/v2/estimate/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

// TestEstimateStreamWireEdgeCases pins how stream lines that are not
// the plain shape decode: the way json.Unmarshal reads one line.
func TestEstimateStreamWireEdgeCases(t *testing.T) {
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Variant spellings of one item stream the same estimate as the
	// plain line.
	plain := `{"adx":"DoubleClick","city":"Cádiz","slot":"300x250","hour":9}`
	variants := []string{
		plain,
		`{"ADX":"DoubleClick","City":"Cádiz","SLOT":"300x250","Hour":9}`,
		`{"adx":"DoubleClick","city":"Cádiz","slot":"300x250","hour":9,"unknown":[1,{"x":null}]}`,
		`  {"hour":9, "slot":"300x250", "city":"Cádiz", "adx":"DoubleClick"}	`,
	}
	lines := streamRaw(t, ts.URL, strings.Join(variants, "\n")+"\n")
	if len(lines) != len(variants)+1 || !strings.Contains(lines[len(variants)], `"done":true`) {
		t.Fatalf("stream lines = %q", lines)
	}
	for i := 1; i < len(variants); i++ {
		if lines[i] != lines[0] {
			t.Errorf("variant %d: %s, plain line %s", i, lines[i], lines[0])
		}
	}

	// Trailing garbage after the object and non-integer hours are
	// in-band bad_line errors naming the item's index. Items are
	// estimated a chunk at a time, so the good item before it is never
	// answered.
	for _, bad := range []string{
		`{"adx":"MoPub"} trailing`,
		`{"adx":"MoPub"}{"adx":"MoPub"}`,
		`{"adx":"MoPub","hour":1.5}`,
		`{"adx":"MoPub","hour":"9"}`,
	} {
		lines := streamRaw(t, ts.URL, plain+"\n"+bad+"\n"+plain+"\n")
		if len(lines) != 1 || !strings.Contains(lines[0], `"bad_line"`) || !strings.Contains(lines[0], "item 1 ") {
			t.Errorf("%s: stream lines = %q, want one bad_line for item 1", bad, lines)
		}
	}
}
