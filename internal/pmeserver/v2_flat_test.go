package pmeserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"yourandvalue/internal/core"
)

// TestV2FlatModelFetch: GET /v2/model ships the registry's compact blob
// byte for byte under its ETag, and the fetched model estimates
// bit-identically to the trained one.
func TestV2FlatModelFetch(t *testing.T) {
	m := testModel(t)
	srv, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	fm, etag, err := client.FetchModelV2(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Registry().Current()
	if etag != snap.ETag || fm.Version != snap.Version {
		t.Errorf("fetched v%d etag %q, serving v%d etag %q", fm.Version, etag, snap.Version, snap.ETag)
	}
	ctxs := []core.StringContext{
		{ADX: "DoubleClick", City: "Madrid", OS: "Android", Origin: "app", Slot: "300x250", Hour: 14, Weekday: 2},
		{ADX: "MoPub", City: "Berlin", Origin: "web", Hour: 9, Weekday: 5},
		{ADX: "Rubicon", Hour: 0, Weekday: 0},
	}
	for i, sc := range ctxs {
		want := m.EstimateCPM(m.Features.FromStrings(sc))
		if got := fm.EstimateCPM(fm.Features.FromStrings(sc)); got != want {
			t.Errorf("ctx %d: fetched model %v, trained model %v", i, got, want)
		}
	}

	// Conditional refetch: matching ETag answers 304.
	if _, _, err := client.FetchModelV2(ctx, etag); !errors.Is(err, ErrNotModified) {
		t.Errorf("matching etag: %v, want ErrNotModified", err)
	}

	// Raw transport checks: binary content type, the snapshot's bytes.
	resp, err := http.Get(ts.URL + "/v2/model")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	if !bytes.Equal(body, snap.Blob) {
		t.Error("/v2/model body differs from the snapshot blob")
	}

	// There is one model route: no per-format sub-route serves it.
	for _, format := range []string{"flat", "json", "compact"} {
		resp, err := http.Get(ts.URL + "/v2/model/" + format)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/v2/model/%s status %d, want 404", format, resp.StatusCode)
		}
	}
}

// TestV2FlatModelErrors: before any publish the model route answers
// no_model; a model that cannot be encoded (no forest) fails SetModel,
// and the previous version keeps serving.
func TestV2FlatModelErrors(t *testing.T) {
	srv, _ := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()
	_, _, err := client.FetchModelV2(ctx, "")
	if err == nil || !strings.Contains(err.Error(), "no_model") {
		t.Errorf("no published model: %v, want no_model", err)
	}

	if err := srv.SetModel(testModel(t)); err != nil {
		t.Fatal(err)
	}
	before := srv.Registry().Current()
	forestless := &core.Model{
		Version:  1,
		Features: &core.SFeatures{Names: []string{"f0"}},
	}
	if err := srv.SetModel(forestless); err == nil {
		t.Fatal("forest-less model published")
	}
	if cur := srv.Registry().Current(); cur != before {
		t.Fatalf("serving v%d after a failed publish, want v%d", cur.Version, before.Version)
	}
	if _, etag, err := client.FetchModelV2(ctx, ""); err != nil || etag != before.ETag {
		t.Errorf("fetch after failed publish: etag %q, %v; want %q", etag, err, before.ETag)
	}

	// Method discipline.
	resp, err := http.Post(ts.URL+"/v2/model", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d", resp.StatusCode)
	}
}
