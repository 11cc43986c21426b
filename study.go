// Package yourandvalue reproduces "If you are not paying for it, you are
// the product: How much do advertisers pay to reach you?" (Papadopoulos,
// Kourtellis, Rodriguez, Laoutaris — IMC 2017) as a runnable system: a
// full RTB ecosystem simulator, the paper's Weblog Ads Analyzer, the
// probing ad-campaign engine, the Price Modeling Engine with its
// random-forest encrypted-price classifier, and the YourAdValue
// client-side cost estimator.
//
// The package is the public facade: Run executes the end-to-end study
// (trace → analysis → campaigns → model → per-user costs) and the
// Figure*/Table*/Section* methods regenerate every table and figure of
// the paper's evaluation as printable rows. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package yourandvalue

import (
	"context"
	"fmt"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/baseline"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/scenario"
	"yourandvalue/internal/weblog"
)

// Config sizes a study run. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// Seed drives every random component; equal seeds give equal studies.
	Seed int64
	// Scale shrinks the paper-scale dataset (1,594 users / 78,560 RTB
	// impressions) for faster runs; 1.0 is full scale.
	Scale float64
	// CampaignImpressionsPerSetup is the per-setup delivery target for
	// the probing campaigns (§5.2 derives a 185 minimum at full rigor).
	CampaignImpressionsPerSetup int
	// ForestSize is the PME's random-forest ensemble size.
	ForestSize int
	// CVFolds and CVRuns control the §5.4 evaluation protocol.
	CVFolds, CVRuns int
	// Scenario names the simulated world (internal/scenario registry);
	// empty selects "baseline", the paper's world.
	Scenario string
}

// DefaultConfig returns a configuration matching the paper's scale.
func DefaultConfig() Config {
	return Config{
		Seed:                        1,
		Scale:                       1.0,
		CampaignImpressionsPerSetup: 185,
		ForestSize:                  40,
		CVFolds:                     10,
		CVRuns:                      2,
	}
}

// QuickConfig returns a reduced configuration suitable for laptops and
// benchmarks (~5% of paper scale). The campaign target stays closer to
// full rigor than the trace scale: the PME's encrypted-price estimates
// (Figure 19's premium) need ≈100 impressions per setup to stabilize at
// this trace size.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.05
	c.CampaignImpressionsPerSetup = 100
	c.CVRuns = 1
	return c
}

// Validate rejects configurations no stage can run under.
func (c Config) Validate() error {
	// Negated form so NaN (which fails every comparison) is rejected too.
	if !(c.Scale > 0 && c.Scale <= 1) {
		return fmt.Errorf("yourandvalue: scale %v out of (0,1]", c.Scale)
	}
	if c.CampaignImpressionsPerSetup <= 0 {
		return fmt.Errorf("yourandvalue: non-positive campaign target")
	}
	if _, err := scenario.Get(c.Scenario); err != nil {
		return fmt.Errorf("yourandvalue: %w", err)
	}
	return nil
}

// ResolvedScenario returns the scenario the study runs under (baseline
// when Config.Scenario is empty).
func (c Config) ResolvedScenario() scenario.Scenario {
	s, err := scenario.Get(c.Scenario)
	if err != nil {
		// Validate gates every pipeline; direct misuse still gets a
		// runnable world.
		return scenario.Default()
	}
	return s
}

// Study holds every artifact of one end-to-end run.
type Study struct {
	Config    Config
	Ecosystem *rtb.Ecosystem
	Trace     *weblog.Trace
	Analysis  *analyzer.Result
	A1        *campaign.Report // encrypted-exchange probing round
	A2        *campaign.Report // MoPub cleartext round
	Model     *core.Model
	Costs     map[int]*core.UserCost
	Baseline  *baseline.Estimator
}

// Run executes the complete pipeline of the paper:
//
//  1. generate the year-long weblog D through simulated RTB auctions,
//  2. analyze it with the Weblog Ads Analyzer (§4),
//  3. run the A1 (encrypted) and A2 (cleartext) probing campaigns (§5.2–5.3),
//  4. train the PME model on A1 ground truth (§5.4),
//  5. estimate every user's total advertiser cost (§6).
//
// Run is a compatibility wrapper over the staged Pipeline API; callers
// needing cancellation, progress observation, or stage-artifact reuse
// should use NewPipeline directly.
func Run(cfg Config) (*Study, error) {
	p, err := NewPipeline(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return p.Execute(context.Background())
}
