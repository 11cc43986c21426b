package baseline

import (
	"math"
	"testing"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/stats"
	"yourandvalue/internal/weblog"
)

func analyzed(t *testing.T, seed int64) (*weblog.Trace, *analyzer.Result) {
	t.Helper()
	cfg := weblog.DefaultConfig().Scaled(0.02)
	cfg.Seed = seed
	tr := weblog.Generate(cfg)
	return tr, analyzer.New(tr.Catalog.Directory()).Analyze(tr.Requests)
}

func TestEstimatorFit(t *testing.T) {
	_, res := analyzed(t, 71)
	e := New(res)
	if e.SampleSize() == 0 {
		t.Fatal("no cleartext prices fitted")
	}
	if e.MeanCleartextCPM <= 0 || e.MedianCleartextCPM <= 0 {
		t.Fatal("statistics empty")
	}
	if e.MeanCleartextCPM <= e.MedianCleartextCPM {
		t.Error("heavy-tailed prices should have mean > median")
	}
}

func TestEstimateUserAccounting(t *testing.T) {
	_, res := analyzed(t, 72)
	e := New(res)
	for id, u := range res.Users {
		est := e.EstimateUser(u)
		if est.UserID != id || est.EncryptedSeen != u.EncryptedCount {
			t.Fatal("bookkeeping mismatch")
		}
		wantEnc := float64(u.EncryptedCount) * e.MeanCleartextCPM
		if math.Abs(est.EncryptedEst-wantEnc) > 1e-9 {
			t.Fatal("encrypted estimate formula")
		}
		if math.Abs(est.Total-(u.CleartextSum+wantEnc)) > 1e-9 {
			t.Fatal("total formula")
		}
	}
}

// TestBaselineUnderestimates is the paper's core finding: because
// encrypted prices run ≈1.7× cleartext, the cleartext-equivalence
// assumption systematically underestimates the encrypted component.
func TestBaselineUnderestimates(t *testing.T) {
	tr, res := analyzed(t, 73)
	e := New(res)

	// Ground-truth encrypted totals from the generator.
	truthEnc := 0.0
	encCount := 0
	for _, it := range tr.Impressions {
		if it.Encrypted {
			truthEnc += it.ChargeCPM
			encCount++
		}
	}
	baselineEnc := float64(encCount) * e.MeanCleartextCPM
	if encCount < 100 {
		t.Fatalf("only %d encrypted impressions", encCount)
	}
	ratio := truthEnc / baselineEnc
	if ratio < 1.15 {
		t.Errorf("baseline should underestimate encrypted cost: truth/baseline = %.3f", ratio)
	}
}

func TestEstimateImpression(t *testing.T) {
	_, res := analyzed(t, 74)
	e := New(res)
	for _, imp := range res.Impressions[:200] {
		v := e.EstimateImpression(imp)
		if imp.Notification.Kind == nurl.Cleartext {
			if v != imp.Notification.PriceCPM {
				t.Fatal("cleartext must pass through")
			}
		} else if v != e.MeanCleartextCPM {
			t.Fatal("encrypted must use the dataset mean")
		}
	}
}

func TestEmptyResult(t *testing.T) {
	res := &analyzer.Result{Users: map[int]*analyzer.UserSummary{}}
	e := New(res)
	if e.MeanCleartextCPM != 0 || e.SampleSize() != 0 {
		t.Error("empty fit should be zero")
	}
	est := e.EstimateUser(&analyzer.UserSummary{UserID: 5, EncryptedCount: 3})
	if est.Total != 0 || est.EncryptedEst != 0 {
		t.Error("empty estimator should estimate zero")
	}
}

// TestMedianVariantAvailable sanity-checks the alternative statistic used
// in some re-analyses of [62].
func TestMedianVariantAvailable(t *testing.T) {
	_, res := analyzed(t, 75)
	e := New(res)
	prices := res.CleartextPrices(nil)
	med, _ := stats.Median(prices)
	if math.Abs(e.MedianCleartextCPM-med) > 1e-9 {
		t.Error("median statistic wrong")
	}
}
