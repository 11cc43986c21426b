// Package core is the paper's primary contribution: the Price Modeling
// Engine (PME, §3.2) that turns probing-campaign ground truth into a
// portable encrypted-price model, and the YourAdValue client engine (§3.3)
// that applies it on-device to tally a user's total advertiser cost
// Vu(T) = Cu(T) + Eu(T).
package core

import (
	"sync"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/rtb"
)

// SFeatures is the reduced feature space S ⊆ F selected in §5.1:
//
//	S = {application/web-browsing, device type, user location, time of
//	     day, ad format (size), day of week, type of website, ad-exchange}
//
// one-hot encoded so both campaign records (training) and analyzer
// impressions (inference) map into the same vector. Optionally the exact
// publisher identity can be appended — the §5.4 ablation shows that
// variant overfits and the production model excludes it.
//
// The layout and every encode path are owned by the shared
// detect.Encoder, so training (FromRecord), analysis (FromImpression),
// live clients (FromNotification) and the /v2/estimate path
// (FromStrings) share the exact vector positions by construction.
type SFeatures struct {
	Names   []string `json:"names"`
	enc     *detect.Encoder
	rebuilt sync.Once
}

// NewSFeatures builds the standard S space. Pass publishers to append
// identity features for the overfitting ablation (nil for the production
// model).
func NewSFeatures(publishers []string) *SFeatures {
	enc := detect.NewEncoder(publishers)
	return &SFeatures{Names: enc.Names(), enc: enc}
}

// Dim returns the feature-space dimensionality.
func (s *SFeatures) Dim() int { return len(s.Names) }

// HasPublishers reports whether identity features are included.
func (s *SFeatures) HasPublishers() bool { return s.encoder().HasPublishers() }

// Encoder returns the shared detection encoder behind the layout.
func (s *SFeatures) Encoder() *detect.Encoder { return s.encoder() }

// rebuild restores the encoder after JSON decoding.
func (s *SFeatures) rebuild() { s.enc = detect.EncoderFromNames(s.Names) }

// encoder returns the layout, reconstructing it when the SFeatures was
// populated by a JSON decode rather than NewSFeatures. The once-guard
// makes lazy reconstruction safe for concurrent encoders (batch
// estimation workers, server handlers) sharing one SFeatures.
func (s *SFeatures) encoder() *detect.Encoder {
	s.rebuilt.Do(func() {
		if s.enc == nil {
			s.rebuild()
		}
	})
	return s.enc
}

// FromRecord encodes a campaign training record.
func (s *SFeatures) FromRecord(rec campaign.Record) []float64 {
	v := make([]float64, s.Dim())
	s.encoder().EncodeSampleInto(v, detect.Sample{
		City:      rec.Setup.City,
		Origin:    rec.Setup.Origin,
		Device:    rec.Setup.Device,
		OS:        rec.Setup.OS,
		Hour:      rec.Time.Hour(),
		Weekday:   int(rec.Time.Weekday()),
		Slot:      rec.Setup.Slot,
		Category:  rec.Category,
		ADX:       rec.Setup.ADX,
		Publisher: rec.Publisher,
	})
	return v
}

// FromImpression encodes a detected weblog impression.
func (s *SFeatures) FromImpression(imp analyzer.Impression) []float64 {
	v := make([]float64, s.Dim())
	s.encoder().EncodeInto(v, imp)
	return v
}

// EncodeImpressionInto encodes a detected impression into a caller-owned
// buffer of length Dim — the zero-allocation hot path batch estimation
// reuses per worker.
func (s *SFeatures) EncodeImpressionInto(dst []float64, imp analyzer.Impression) {
	s.encoder().EncodeInto(dst, imp)
}

// FromNotification encodes directly from a parsed nURL plus the ambient
// client context — the path the YourAdValue extension uses in real time,
// where no analyzer result exists.
func (s *SFeatures) FromNotification(n nurl.Notification, ctx ClientContext) []float64 {
	v := make([]float64, s.Dim())
	s.EncodeNotificationInto(v, n, ctx)
	return v
}

// EncodeNotificationInto is FromNotification over a caller-owned buffer.
func (s *SFeatures) EncodeNotificationInto(dst []float64, n nurl.Notification, ctx ClientContext) {
	s.encoder().EncodeSampleInto(dst, detect.Sample{
		City:      ctx.City,
		Origin:    ctx.Device.Origin,
		Device:    ctx.Device.Type,
		OS:        ctx.Device.OS,
		Hour:      ctx.Hour,
		Weekday:   ctx.Weekday,
		Slot:      rtb.Slot{W: n.Width, H: n.Height},
		Category:  ctx.Category,
		ADX:       n.ADX,
		Publisher: ctx.Publisher,
	})
}

// StringContext is the string-typed ambient context a thin client ships
// to the PME's batch estimation endpoint (/v2/estimate), where neither an
// analyzer impression nor a typed ClientContext exists. Unknown values
// simply leave their one-hot positions zero.
type StringContext = detect.StringContext

// FromStrings encodes a thin-client context into the S vector.
func (s *SFeatures) FromStrings(c StringContext) []float64 {
	v := make([]float64, s.Dim())
	s.encoder().EncodeStringsInto(v, c)
	return v
}

// EncodeStringsInto is FromStrings over a caller-owned buffer — the
// /v2/estimate batch path reuses one buffer across its items.
func (s *SFeatures) EncodeStringsInto(dst []float64, c StringContext) {
	s.encoder().EncodeStringsInto(dst, c)
}
