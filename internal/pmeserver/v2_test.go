package pmeserver

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yourandvalue/internal/core"
)

func TestV2ConditionalFetch(t *testing.T) {
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
	if m == nil || etag == "" {
		t.Fatalf("first fetch: model=%v etag=%q", m, etag)
	}

	// Same ETag → 304, no model shipped.
	m2, etag2, err := client.FetchModelV2(ctx, etag)
	if !errors.Is(err, ErrNotModified) {
		t.Fatalf("want ErrNotModified, got %v", err)
	}
	if m2 != nil || etag2 != etag {
		t.Errorf("304 should keep etag and return no model")
	}

	// A new model invalidates the ETag.
	bumped := *testModel(t)
	bumped.Version = testModel(t).Version + 1
	if err := srv.SetModel(&bumped); err != nil {
		t.Fatal(err)
	}
	m3, etag3, err := client.FetchModelV2(ctx, etag)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == nil || etag3 == etag {
		t.Errorf("changed model should refetch with a new etag (old %q new %q)", etag, etag3)
	}
	if m3.Version != bumped.Version {
		t.Errorf("fetched version %d, want %d", m3.Version, bumped.Version)
	}

	v, err := client.VersionV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != bumped.Version || v.ETag != etag3 {
		t.Errorf("version poll = %+v, want version %d etag %q", v, bumped.Version, etag3)
	}
}

func TestV2NoModelStructuredError(t *testing.T) {
	srv, _ := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content type %q", ct)
	}
	_, _, err = NewClient(ts.URL).FetchModelV2(context.Background(), "")
	if err == nil || !strings.Contains(err.Error(), "no_model") {
		t.Errorf("client error should carry the structured code: %v", err)
	}
}

func TestV2EstimateRoundTrip(t *testing.T) {
	m := testModel(t)
	srv, _ := New(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	items := []EstimateItem{
		{ADX: "DoubleClick", City: "Madrid", OS: "Android", Device: "Smartphone",
			Origin: "app", Slot: "300x250", IAB: "IAB3",
			Observed: time.Date(2016, 5, 3, 9, 30, 0, 0, time.UTC)},
		{ADX: "Rubicon", City: "Barcelona", OS: "iOS", Device: "Tablet",
			Origin: "web", Slot: "728x90", IAB: "IAB15", Hour: 22, Weekday: 6},
	}
	out, err := client.EstimateV2(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if out.ModelVersion != m.Version {
		t.Errorf("model version %d, want %d", out.ModelVersion, m.Version)
	}
	if len(out.EstimatesCPM) != len(items) {
		t.Fatalf("%d estimates for %d items", len(out.EstimatesCPM), len(items))
	}
	// The server must agree with a local application of the same model.
	want0 := m.EstimateCPM(m.Features.FromStrings(core.StringContext{
		ADX: "DoubleClick", City: "Madrid", OS: "Android", Device: "Smartphone",
		Origin: "app", Slot: "300x250", IAB: "IAB3", Hour: 9, Weekday: 2,
	}))
	if out.EstimatesCPM[0] != want0 {
		t.Errorf("server estimate %v, local %v", out.EstimatesCPM[0], want0)
	}
	for i, v := range out.EstimatesCPM {
		if v <= 0 {
			t.Errorf("estimate %d nonpositive: %v", i, v)
		}
	}
}

func TestV2EstimateValidation(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.EstimateV2(ctx, nil); err == nil ||
		!strings.Contains(err.Error(), "empty_batch") {
		t.Errorf("empty batch error = %v", err)
	}
	resp, err := http.Post(ts.URL+"/v2/estimate", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad payload status %d", resp.StatusCode)
	}
}

// TestContributePoolOverflow is the regression test for handleContribute
// silently dropping contributions at the pool bound: both API versions
// must report drops, and a wholly-dropped batch must not read as success.
func TestContributePoolOverflow(t *testing.T) {
	srv, _ := New(testModel(t))
	srv.SetMaxPool(3)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	mk := func(n int) []Contribution {
		out := make([]Contribution, n)
		for i := range out {
			out[i] = Contribution{ADX: "MoPub", PriceCPM: 0.5}
		}
		return out
	}

	// Partial overflow: 3 fit, 1 drops, 1 invalid — still a 200 with
	// exact counts.
	out, err := client.ContributeV2(ctx, append(mk(4), Contribution{ADX: ""}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 3 || out.Dropped != 1 || out.Invalid != 1 {
		t.Fatalf("partial overflow counts = %+v", out)
	}

	// Pool now full: everything drops and the status must say so.
	out, err = client.ContributeV2(ctx, mk(2))
	if !errors.Is(err, ErrPoolFull) {
		t.Fatalf("want ErrPoolFull, got %v (counts %+v)", err, out)
	}
	if out.Accepted != 0 || out.Dropped != 2 {
		t.Errorf("full-pool counts = %+v", out)
	}

	// On the wire the full pool is a 507 that tells clients when to
	// come back, with the same counts in the body.
	resp, err := http.Post(ts.URL+"/v2/contribute", "application/json",
		strings.NewReader(`[{"adx":"MoPub","price_cpm":0.5}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Errorf("full-pool status %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("507 missing Retry-After header")
	}
	var body ContributeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 0 || body.Dropped != 1 {
		t.Errorf("full-pool body = %+v", body)
	}

	if n := len(srv.Contributions()); n != 3 {
		t.Errorf("pool holds %d, want 3", n)
	}
}

// postEstimateRaw POSTs body verbatim to /v2/estimate and returns the
// status, the structured error code (if any) and the estimates.
func postEstimateRaw(t *testing.T, base, body string) (int, string, []float64) {
	t.Helper()
	resp, err := http.Post(base+"/v2/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		EstimateResponse
		Error apiError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable reply: %v", body, err)
	}
	return resp.StatusCode, out.Error.Code, out.EstimatesCPM
}

// TestV2EstimateWireEdgeCases pins how /v2/estimate reads bodies that
// are not the plain shape clients marshal: every case must decode (or
// fail) the way encoding/json's Decoder.Decode does.
func TestV2EstimateWireEdgeCases(t *testing.T) {
	m := testModel(t)
	srv, _ := New(m)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	local := func(c core.StringContext) float64 {
		return m.EstimateCPM(m.Features.FromStrings(c))
	}
	accept := []struct {
		name string
		body string
		want []core.StringContext
	}{
		{"trailing bytes after the object",
			`{"items":[{"adx":"MoPub","hour":3}]} trailing {garbage`,
			[]core.StringContext{{ADX: "MoPub", Hour: 3}}},
		{"unknown fields ignored",
			`{"items":[{"adx":"OpenX","colour":"red","nested":{"a":[1,2,null]},"slot":"728x90"}],"extra":true}`,
			[]core.StringContext{{ADX: "OpenX", Slot: "728x90"}}},
		{"keys match case-insensitively",
			`{"Items":[{"ADX":"Rubicon","Slot":"300x250","HOUR":22,"weekDay":6}]}`,
			[]core.StringContext{{ADX: "Rubicon", Slot: "300x250", Hour: 22, Weekday: 6}}},
		{"escaped and non-ASCII strings",
			`{"items":[{"adx":"DoubleClick","city":"Cádiz","os":"And\"roid"},{"adx":"MoPub","city":"Cádiz","slot":"300x\/250"}]}`,
			[]core.StringContext{{ADX: "DoubleClick", City: "Cádiz", OS: `And"roid`}, {ADX: "MoPub", City: "Cádiz", Slot: "300x/250"}}},
		{"whitespace between tokens",
			"{ \"items\" :\n[ {\t\"adx\" : \"MoPub\" , \"hour\" : -0 } ]\r\n}\n",
			[]core.StringContext{{ADX: "MoPub"}}},
		{"observed timestamp",
			`{"items":[{"adx":"MoPub","observed":"2016-05-03T09:30:00Z","hour":20}]}`,
			[]core.StringContext{{ADX: "MoPub", Hour: 9, Weekday: 2}}},
	}
	for _, tc := range accept {
		status, code, got := postEstimateRaw(t, ts.URL, tc.body)
		if status != http.StatusOK {
			t.Errorf("%s: status %d (%s), want 200", tc.name, status, code)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d estimates, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, c := range tc.want {
			if want := local(c); got[i] != want {
				t.Errorf("%s: estimate[%d] = %v, local %v", tc.name, i, got[i], want)
			}
		}
	}

	reject := []struct {
		name, body string
		status     int
		code       string
	}{
		{"fractional hour", `{"items":[{"adx":"MoPub","hour":1.5}]}`, http.StatusBadRequest, "bad_payload"},
		{"exponent hour", `{"items":[{"adx":"MoPub","hour":1e2}]}`, http.StatusBadRequest, "bad_payload"},
		{"leading-zero hour", `{"items":[{"adx":"MoPub","hour":01}]}`, http.StatusBadRequest, "bad_payload"},
		{"string adx as number", `{"items":[{"adx":7}]}`, http.StatusBadRequest, "bad_payload"},
		{"bad observed", `{"items":[{"adx":"MoPub","observed":"yesterday"}]}`, http.StatusBadRequest, "bad_payload"},
		{"truncated", `{"items":[{"adx":"MoPub"}`, http.StatusBadRequest, "bad_payload"},
		{"null items", `{"items":null}`, http.StatusBadRequest, "empty_batch"},
		{"empty items", `{"items":[]}`, http.StatusBadRequest, "empty_batch"},
		{"no items key", `{}`, http.StatusBadRequest, "empty_batch"},
		{"null body", `null`, http.StatusBadRequest, "empty_batch"},
	}
	for _, tc := range reject {
		status, code, _ := postEstimateRaw(t, ts.URL, tc.body)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, code, tc.status, tc.code)
		}
	}
}
