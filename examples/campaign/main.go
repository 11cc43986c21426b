// Campaign example: plan probing ad-campaigns with the §5.2 sample-size
// arithmetic, execute them against the simulated RTB ecosystem, and train
// the encrypted-price model from the performance reports.
//
//	go run ./examples/campaign
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/stats"
	"yourandvalue/internal/weblog"
)

func main() {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 42})
	catalog := weblog.NewCatalog(200, 100)
	eng := campaign.NewEngine(eco)

	// A real buy runs for days; RunContext aborts cleanly if the deadline
	// or an operator's Ctrl-C arrives first.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Plan: how many impressions per setup for a ±0.1 CPM estimate of the
	// mean at 95% confidence, assuming the paper's within-campaign spread?
	perSetup, err := campaign.PlanImpressions(0.694, 0.1, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned impressions per setup: %d (paper: ≥185)\n", perSetup)

	grid := campaign.Grid(campaign.EncryptedADXs)
	fmt.Printf("experimental setups: %d (Table 5)\n", len(grid))
	fmt.Printf("example setup: %s\n\n", grid[0])

	// Execute round A1 on the encrypting exchanges with a hard budget.
	rep, err := eng.RunContext(ctx, campaign.Config{
		Setups:              grid,
		ImpressionsPerSetup: perSetup / 4, // demo budget
		BudgetUSD:           300,          // "a few hundred dollars"
		MaxBidCPM:           25,
		Catalog:             catalog,
		Seed:                7,
	})
	if err != nil {
		log.Fatal(err)
	}
	med, _ := stats.Median(rep.Prices())
	fmt.Printf("A1: delivered %d impressions across %d setups for $%.2f (win rate %.0f%%)\n",
		rep.Won, rep.Setups, rep.SpentUSD, 100*rep.WinRate())
	fmt.Printf("A1 median charge price: %.3f CPM (all encrypted on the wire,\n", med)
	fmt.Println("    known to us through the DSP performance reports)")

	// Train the §5.4 classifier on the ground truth.
	pme := core.NewPME(3)
	pme.CVFolds, pme.CVRuns = 5, 1
	model, err := pme.Train(rep.Records, core.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// Train returns once the forest is built; the cross-validation
	// finishes after it.
	m, err := model.CV.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrained 4-class RF: accuracy %.1f%%, FP %.1f%%, AUC-ROC %.3f\n",
		100*m.Accuracy, 100*m.FPRate, m.AUCROC)
	fmt.Printf("price classes (CPM representatives): %v\n", model.Binner.Reps)

	// The portable model is what a YourAdValue client downloads.
	blob, err := model.EncodeCompact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized model size: %.1f KiB\n", float64(len(blob))/1024)
}
