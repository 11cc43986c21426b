// Command yourandvalue is the CLI counterpart of the paper's browser
// extension (§3.3): it follows one user's traffic stream, tallies their
// cleartext charge prices, estimates the encrypted ones with the PME
// model, and reports the running total advertisers paid for them.
//
// Usage:
//
//	yourandvalue [-user -1] [-scale 0.05] [-seed 1] [-pme http://...]
//
// With -user -1 (default) the busiest user in the trace is followed.
// When -pme is given the model is fetched from a running pme server
// (conditionally, via the v2 API); otherwise a model is trained locally
// from a probing campaign first.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"yourandvalue"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/pmeserver"
)

func main() {
	userID := flag.Int("user", -1, "user id to follow (-1 = busiest)")
	scale := flag.Float64("scale", 0.05, "trace scale")
	seed := flag.Int64("seed", 1, "simulation seed")
	pmeURL := flag.String("pme", "", "PME server base URL (optional)")
	verbose := flag.Bool("v", false, "print every price event")
	flag.Parse()

	// Ctrl-C cancels the pipeline between stages, and mid-stage inside
	// the campaign and estimation stages.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(*scale),
		yourandvalue.WithSeed(*seed),
	)
	exitOn(err)
	tr, err := pipe.GenerateTrace(ctx)
	exitOn(err)

	var model *core.Model
	if *pmeURL != "" {
		fmt.Fprintf(os.Stderr, "fetching model from %s...\n", *pmeURL)
		m, _, err := pmeserver.NewClient(*pmeURL).FetchModelV2(ctx, "")
		exitOn(err)
		model = m
	} else {
		fmt.Fprintln(os.Stderr, "training local model from probing campaigns...")
		eng := campaign.NewEngine(tr.Ecosystem)
		a1, err := eng.RunContext(ctx, campaign.A1Config(tr.Trace.Catalog, 40, *seed+2))
		exitOn(err)
		pme := core.NewPME(*seed + 4)
		pme.CVFolds, pme.CVRuns = 5, 1
		model, err = pme.Train(a1.Records, core.TrainConfig{})
		exitOn(err)
		model.CV.Stop() // the cost report never reads the cross-validation
	}

	// The analyzer pass is only needed to pick a default subject.
	if *userID < 0 {
		res, err := pipe.Analyze(ctx, tr)
		exitOn(err)
		*userID = res.BusiestUser()
	}
	if *userID < 0 {
		fmt.Fprintln(os.Stderr, "error: trace has no users")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "following user %d\n", *userID)

	client := core.NewClient(model, tr.Trace.Catalog.Directory())
	for _, r := range tr.Trace.Requests {
		if r.UserID != *userID {
			continue
		}
		ev, ok := client.Process(r)
		if !ok {
			continue
		}
		if *verbose {
			kind := "cleartext"
			if ev.Encrypted {
				kind = "encrypted(est)"
			}
			fmt.Printf("%s  %-12s %-14s %8.4f CPM  running total %8.2f CPM\n",
				ev.Time.Format("2006-01-02 15:04"), ev.ADX, kind, ev.CPM,
				client.Totals().TotalCPM())
		}
	}

	tot := client.Totals()
	fmt.Printf("\n=== YourAdValue report for user %d ===\n", *userID)
	fmt.Printf("cleartext prices observed:   %4d  → %8.2f CPM\n",
		tot.CleartextCount, tot.CleartextCPM)
	fmt.Printf("encrypted prices estimated:  %4d  → %8.2f CPM\n",
		tot.EncryptedCount, tot.EncryptedCPM)
	fmt.Printf("total advertiser cost Vu(T):       %8.2f CPM\n", tot.TotalCPM())
	fmt.Printf("total (time-corrected):            %8.2f CPM\n", tot.TotalCorrectedCPM())
	fmt.Printf("extrapolated annual value:         $%.2f\n",
		core.ExtrapolateAnnualUSD(tot.TotalCPM()))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
