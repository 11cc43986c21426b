// Package scenario turns the simulation layer into a scenario-driven
// engine: a Scenario is a validated, serializable parameterization of
// the synthetic RTB world — the market (auction mechanism, floor
// policy, encrypted-pair adoption curve), the population (device/OS
// mix, bot-traffic share, whales) and the traffic shape — selectable by
// name from every entry point (Pipeline.WithScenario, cmd/experiments
// -scenario, cmd/scaletest -scenario).
//
// The paper (Papadopoulos et al., IMC 2017) measured exactly one world:
// a 2015 second-price marketplace over Spanish mobile users. The
// ecosystem has since shifted — first-price auctions dominate
// programmatic exchanges (Arrate et al. 2018), ad exposure and pricing
// vary heavily across market segments (Chouaki et al. 2022) — so the
// reproduction-turned-system simulates those worlds too. "baseline"
// reproduces the paper bit-for-bit; every other scenario perturbs one
// axis at a time so per-scenario cost tables stay interpretable.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// Market parameterizes the exchange side of the world: how auctions
// clear and how quickly ADX-DSP pairs adopt price encryption.
type Market struct {
	// Mechanism names the auction clearing rule ("second-price",
	// "first-price", "soft-floor"); empty selects second-price.
	Mechanism string `json:"mechanism"`
	// SoftFloorCPM parameterizes the soft-floor mechanism; ignored by
	// the others.
	SoftFloorCPM float64 `json:"soft_floor_cpm,omitempty"`
	// EncBiasBoost is added to every exchange's encryption bias
	// (clamped into [0,1]).
	EncBiasBoost float64 `json:"enc_bias_boost,omitempty"`
	// AdoptionShiftMonths shifts every pair's encryption adoption month
	// (negative = earlier).
	AdoptionShiftMonths int `json:"adoption_shift_months,omitempty"`
}

// Traffic parameterizes the request shape around the auctions.
type Traffic struct {
	// BackgroundPerSession is the mean non-ad third-party requests per
	// browsing session; zero keeps the default (2.5).
	BackgroundPerSession float64 `json:"background_per_session,omitempty"`
}

// Scenario is one named world. The zero value is invalid; start from a
// registry entry (Get, Default) or fill every section and Validate.
type Scenario struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Market      Market            `json:"market"`
	Population  weblog.Population `json:"population"`
	Traffic     Traffic           `json:"traffic"`
}

// Validate rejects scenarios no generator or ecosystem can run.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if _, err := rtb.MechanismFor(s.Market.Mechanism, s.Market.SoftFloorCPM); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Market.SoftFloorCPM < 0 {
		return fmt.Errorf("scenario %q: negative soft floor", s.Name)
	}
	if s.Market.Mechanism == "soft-floor" && s.Market.SoftFloorCPM == 0 {
		// A zero floor silently degrades to pure second-price; a
		// scenario labeled soft-floor must actually price against one.
		return fmt.Errorf("scenario %q: soft-floor mechanism needs a positive soft_floor_cpm", s.Name)
	}
	if s.Traffic.BackgroundPerSession < 0 {
		return fmt.Errorf("scenario %q: negative background rate", s.Name)
	}
	if err := s.Population.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return nil
}

// Mechanism resolves the market's clearing rule.
func (s Scenario) Mechanism() (rtb.Mechanism, error) {
	return rtb.MechanismFor(s.Market.Mechanism, s.Market.SoftFloorCPM)
}

// EcosystemConfig renders the scenario's rtb configuration for the
// given seed. It panics only on unvalidated scenarios.
func (s Scenario) EcosystemConfig(seed int64) rtb.EcosystemConfig {
	mech, err := s.Mechanism()
	if err != nil {
		panic(err)
	}
	return rtb.EcosystemConfig{
		Seed:                seed,
		Mechanism:           mech,
		EncBiasBoost:        s.Market.EncBiasBoost,
		AdoptionShiftMonths: s.Market.AdoptionShiftMonths,
	}
}

// NewEcosystem builds the scenario's RTB world for the given seed.
func (s Scenario) NewEcosystem(seed int64) *rtb.Ecosystem {
	return rtb.NewEcosystem(s.EcosystemConfig(seed))
}

// WeblogConfig renders the scenario's trace configuration at the given
// master seed and scale, without an attached ecosystem — callers that
// need the ecosystem as a separate artifact (the pipeline does) build
// it via NewEcosystem(seed+1) and attach it themselves.
func (s Scenario) WeblogConfig(seed int64, scale float64) weblog.Config {
	cfg := weblog.DefaultConfig().Scaled(scale)
	cfg.Seed = seed
	pop := s.Population
	cfg.Population = &pop
	if s.Traffic.BackgroundPerSession > 0 {
		cfg.BackgroundPerSession = s.Traffic.BackgroundPerSession
	}
	return cfg
}

// TraceConfig is WeblogConfig with the scenario's ecosystem attached
// (seeded seed+1, the generator's convention) — the one-call form for
// stream sources and load harnesses.
func (s Scenario) TraceConfig(seed int64, scale float64) weblog.Config {
	cfg := s.WeblogConfig(seed, scale)
	cfg.Ecosystem = s.NewEcosystem(seed + 1)
	return cfg
}

// MarshalText/UnmarshalText would hide the structure; scenarios travel
// as plain JSON documents instead.

// JSON renders the scenario as an indented JSON document.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// FromJSON parses and validates a scenario document.
func FromJSON(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// registry is the named-scenario table. Guarded for concurrent Get from
// parallel studies; registration happens at init and in tests.
var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a validated scenario under its name; re-registering a
// name is an error so builtins cannot be silently shadowed.
func Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// MustRegister is Register for init-time builtins.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get resolves a scenario by name; the empty name resolves to baseline.
func Get(name string) (Scenario, error) {
	if name == "" {
		name = Baseline
	}
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, namesLocked())
	}
	return s, nil
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns the baseline scenario — the paper's world.
func Default() Scenario {
	s, err := Get(Baseline)
	if err != nil {
		panic(err) // builtins register at init; unreachable
	}
	return s
}
