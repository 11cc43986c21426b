package pmeserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// trainedModel builds a small but real model once for the whole package.
var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 5})
		cat := weblog.NewCatalog(60, 30)
		eng := campaign.NewEngine(eco)
		cfg := campaign.A1Config(cat, 25, 9)
		cfg.Setups = cfg.Setups[:36]
		rep, err := eng.Run(cfg)
		if err != nil {
			modelErr = err
			return
		}
		pme := core.NewPME(3)
		pme.ForestSize = 10
		pme.CVFolds, pme.CVRuns = 5, 1
		model, modelErr = pme.Train(rep.Records, core.TrainConfig{})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func TestModelDistributionRoundTrip(t *testing.T) {
	m := testModel(t)
	srv, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	got, _, err := client.FetchModelV2(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Fetched model must predict identically to the source model.
	probe := make([]float64, len(m.Features.Names))
	for i := range probe {
		probe[i] = float64(i % 2)
	}
	if got.EstimateCPM(probe) != m.EstimateCPM(probe) {
		t.Error("fetched model predicts differently")
	}
	v, err := client.VersionV2(context.Background())
	if err != nil || v.Version != m.Version {
		t.Errorf("version = %d, %v", v.Version, err)
	}
}

func TestNoModel(t *testing.T) {
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := NewClient(ts.URL)
	if _, _, err := client.FetchModelV2(context.Background(), ""); err == nil {
		t.Error("fetch should fail before a model is set")
	}
	if _, err := client.VersionV2(context.Background()); err == nil {
		t.Error("version should fail before a model is set")
	}
	// And succeed after SetModel.
	if err := srv.SetModel(testModel(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.FetchModelV2(context.Background(), ""); err != nil {
		t.Errorf("fetch after SetModel: %v", err)
	}
	if srv.Model() == nil {
		t.Error("Model() nil after SetModel")
	}
}

func TestContribution(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	batch := []Contribution{
		{Observed: time.Now(), ADX: "MoPub", PriceCPM: 0.8, City: "Madrid"},
		{Observed: time.Now(), ADX: "DoubleClick", Encrypted: true, Slot: "300x250"},
		{ADX: "", PriceCPM: 1},           // invalid: no adx
		{ADX: "MoPub", PriceCPM: 0},      // invalid: cleartext without price
		{ADX: "MoPub", PriceCPM: 999999}, // invalid: implausible
	}
	out, err := client.ContributeV2(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 || out.Invalid != 3 {
		t.Errorf("counts %+v, want 2 accepted and 3 invalid", out)
	}
	pool := srv.Contributions()
	if len(pool) != 2 {
		t.Errorf("pool size %d", len(pool))
	}
	// No user-identifying fields exist on the wire type at all — assert
	// the anonymity property structurally.
	for _, c := range pool {
		if strings.Contains(strings.ToLower(c.ADX+c.City+c.OS+c.Origin+c.Slot+c.IAB), "uid") {
			t.Error("contribution leaked identifier-like content")
		}
	}
}

func TestContributeBadPayload(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/contribute", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestMethodDiscipline(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// POST to model endpoint rejected.
	resp, _ := http.Post(ts.URL+"/v2/model", "application/json", strings.NewReader("{}"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v2/model status %d", resp.StatusCode)
	}
	// GET to contribute rejected.
	resp, _ = http.Get(ts.URL + "/v2/contribute")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/contribute status %d", resp.StatusCode)
	}
	// Health endpoint OK.
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestConcurrentAccess(t *testing.T) {
	srv, _ := New(testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch i % 3 {
				case 0:
					_, _, _ = client.FetchModelV2(context.Background(), "")
				case 1:
					_, _ = client.ContributeV2(context.Background(), []Contribution{
						{ADX: "MoPub", PriceCPM: 0.5},
					})
				default:
					_ = srv.SetModel(testModel(t))
				}
			}
		}(i)
	}
	wg.Wait()
	if len(srv.Contributions()) == 0 {
		t.Error("no contributions landed")
	}
}

// TestConcurrentContributePoolAccounting: many contributors racing into
// a bounded pool must keep the accepted/dropped/invalid accounting
// exact — every submitted contribution lands in exactly one bucket, the
// pool never exceeds its bound, and accepted equals what it retains.
// (Run under -race in CI.)
func TestConcurrentContributePoolAccounting(t *testing.T) {
	const (
		maxPool      = 137
		contributors = 32
		batches      = 8
		batchSize    = 5 // 4 valid + 1 invalid per batch
	)
	srv, err := New(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxPool(maxPool)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var accepted, dropped, invalid atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < contributors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(ts.URL)
			for b := 0; b < batches; b++ {
				batch := []Contribution{
					{ADX: "MoPub", PriceCPM: 0.4},
					{ADX: "DoubleClick", Encrypted: true},
					{ADX: "OpenX", PriceCPM: 1.1},
					{ADX: "Rubicon", PriceCPM: 2.2},
					{ADX: ""}, // invalid
				}
				out, err := client.ContributeV2(context.Background(), batch)
				if err != nil && !errors.Is(err, ErrPoolFull) {
					t.Errorf("contribute: %v", err)
					return
				}
				accepted.Add(int64(out.Accepted))
				dropped.Add(int64(out.Dropped))
				invalid.Add(int64(out.Invalid))
			}
		}()
	}
	wg.Wait()

	total := int64(contributors * batches * batchSize)
	if got := accepted.Load() + dropped.Load() + invalid.Load(); got != total {
		t.Errorf("accounted %d contributions, submitted %d", got, total)
	}
	if got := invalid.Load(); got != int64(contributors*batches) {
		t.Errorf("invalid = %d, want %d", got, contributors*batches)
	}
	if got := accepted.Load(); got != maxPool {
		t.Errorf("accepted = %d, want exactly the pool bound %d", got, maxPool)
	}
	if got := len(srv.Contributions()); int64(got) != accepted.Load() {
		t.Errorf("pool retains %d, accepted %d", got, accepted.Load())
	}
}

func TestContributionValidate(t *testing.T) {
	good := Contribution{ADX: "MoPub", PriceCPM: 0.5}
	if good.Validate() != nil {
		t.Error("valid contribution rejected")
	}
	enc := Contribution{ADX: "OpenX", Encrypted: true}
	if enc.Validate() != nil {
		t.Error("encrypted contribution without price should be valid")
	}
	if (&Contribution{PriceCPM: 1}).Validate() == nil {
		t.Error("missing adx accepted")
	}
	if (&Contribution{ADX: "X", PriceCPM: -1}).Validate() == nil {
		t.Error("negative price accepted")
	}
}
