// Package baseline implements the prior art the paper compares against:
// Olejnik, Tran and Castelluccia's NDSS'14 approach [62], which tallies
// cleartext RTB prices and assumes encrypted prices follow the same
// distribution as cleartext ones. The paper shows this assumption fails —
// encrypted prices run ≈1.7× higher — making the baseline underestimate
// user cost; this package exists so the benchmark harness can quantify
// that gap head-to-head.
package baseline

import (
	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/stats"
)

// Estimate is a per-user cost estimate under the cleartext-equivalence
// assumption.
type Estimate struct {
	UserID        int
	CleartextSum  float64 // directly tallied cleartext CPM
	EncryptedEst  float64 // encrypted count × mean cleartext price
	Total         float64
	EncryptedSeen int
}

// Estimator carries the global cleartext statistics the method leans on.
type Estimator struct {
	// MeanCleartextCPM is the dataset-wide mean cleartext charge price,
	// used as the per-impression estimate for encrypted notifications
	// ("encrypted prices follow the same distribution as cleartext").
	MeanCleartextCPM float64
	// MedianCleartextCPM supports the median variant.
	MedianCleartextCPM float64
	n                  int
}

// New fits the estimator on an analysis result.
func New(res *analyzer.Result) *Estimator {
	prices := res.CleartextPrices(nil)
	e := &Estimator{n: len(prices)}
	if len(prices) > 0 {
		e.MeanCleartextCPM, _ = stats.Mean(prices)
		e.MedianCleartextCPM, _ = stats.Median(prices)
	}
	return e
}

// SampleSize returns the number of cleartext prices the estimator was
// fitted on.
func (e *Estimator) SampleSize() int { return e.n }

// EstimateUser computes the baseline cost estimate for one user summary.
func (e *Estimator) EstimateUser(u *analyzer.UserSummary) Estimate {
	enc := float64(u.EncryptedCount) * e.MeanCleartextCPM
	return Estimate{
		UserID:        u.UserID,
		CleartextSum:  u.CleartextSum,
		EncryptedEst:  enc,
		Total:         u.CleartextSum + enc,
		EncryptedSeen: u.EncryptedCount,
	}
}

// EstimateImpression returns the baseline per-impression estimate: the
// cleartext price if visible, otherwise the dataset mean.
func (e *Estimator) EstimateImpression(imp analyzer.Impression) float64 {
	if imp.Notification.Kind == nurl.Cleartext {
		return imp.Notification.PriceCPM
	}
	return e.MeanCleartextCPM
}
