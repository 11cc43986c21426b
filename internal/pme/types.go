package pme

import (
	"errors"
	"time"

	"yourandvalue/internal/core"
)

// Contribution is one anonymous price observation a client donates. It
// mirrors the S feature context plus the price (cleartext) or the price
// class estimate (encrypted) — never a user identity. The JSON shape is
// the v1/v2 wire format and must stay stable.
type Contribution struct {
	Observed  time.Time `json:"observed"`
	ADX       string    `json:"adx"`
	Encrypted bool      `json:"encrypted"`
	PriceCPM  float64   `json:"price_cpm,omitempty"` // cleartext only
	City      string    `json:"city,omitempty"`
	OS        string    `json:"os,omitempty"`
	Device    string    `json:"device,omitempty"` // "Smartphone", "Tablet", "PC"
	Origin    string    `json:"origin,omitempty"`
	Slot      string    `json:"slot,omitempty"`
	IAB       string    `json:"iab,omitempty"`
}

// Trainable reports whether the contribution carries a ground-truth
// label a retrain can learn from: encrypted observations never do.
func (c *Contribution) Trainable() bool {
	return !c.Encrypted && c.PriceCPM > 0
}

// Validate rejects structurally broken contributions.
func (c *Contribution) Validate() error {
	if c.ADX == "" {
		return errors.New("pme: contribution missing adx")
	}
	if !c.Encrypted && c.PriceCPM <= 0 {
		return errors.New("pme: cleartext contribution missing price")
	}
	if c.PriceCPM < 0 || c.PriceCPM > 10000 {
		return errors.New("pme: implausible price")
	}
	return nil
}

// EstimateItem is one thin-client price query: the string-typed ambient
// context of an encrypted notification, mirroring Contribution's fields.
// The JSON shape is the v2 wire format (batch and NDJSON stream alike).
type EstimateItem struct {
	Observed time.Time `json:"observed,omitempty"` // supplies hour/weekday; zero = fields below
	ADX      string    `json:"adx"`
	City     string    `json:"city,omitempty"`
	OS       string    `json:"os,omitempty"`
	Device   string    `json:"device,omitempty"`
	Origin   string    `json:"origin,omitempty"` // "app" or "web"
	Slot     string    `json:"slot,omitempty"`   // "300x250"
	IAB      string    `json:"iab,omitempty"`    // "IAB3"
	Hour     int       `json:"hour,omitempty"`   // used when Observed is zero
	Weekday  int       `json:"weekday,omitempty"`
}

// timeFeatures resolves the hour/weekday pair: the Observed timestamp
// wins when present, otherwise the explicit fields apply.
func (it *EstimateItem) timeFeatures() (hour, weekday int) {
	if !it.Observed.IsZero() {
		return it.Observed.Hour(), int(it.Observed.Weekday())
	}
	return it.Hour, it.Weekday
}

// encodeInto writes the item's S vector under features f into dst —
// the one translation from the wire item to core.StringContext that
// every estimate path shares.
func (it *EstimateItem) encodeInto(dst []float64, f *core.SFeatures) {
	hour, weekday := it.timeFeatures()
	f.EncodeStringsInto(dst, core.StringContext{
		ADX: it.ADX, City: it.City, OS: it.OS, Device: it.Device,
		Origin: it.Origin, Slot: it.Slot, IAB: it.IAB,
		Hour: hour, Weekday: weekday,
	})
}

// EstimateResult carries one CPM estimate per request item, in order,
// plus the identity of the snapshot that produced them.
type EstimateResult struct {
	Version      int
	ETag         string
	EstimatesCPM []float64
}

// ContributeResult is the exact accounting of one Contribute call:
// every submitted contribution lands in exactly one bucket.
type ContributeResult struct {
	Accepted int
	Dropped  int
	Invalid  int
}

// PoolFull reports whether the call stored nothing because the pool is
// at capacity — the signal transports map to a back-off response.
func (r ContributeResult) PoolFull() bool {
	return r.Accepted == 0 && r.Dropped > 0
}
