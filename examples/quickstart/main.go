// Quickstart: run a reduced end-to-end study through the staged Pipeline
// API and answer the paper's question — how much do advertisers pay to
// reach a user?
//
//	go run ./examples/quickstart
//
// To hammer a live PME server with a synthetic client fleet — ETag
// model polls, contribution batches, estimate queries — use the
// scaletest harness (add -addr to target a running server; without it
// scaletest trains a small model and serves it in-process):
//
//	go run ./cmd/scaletest -strategy mixed -clients 200 -duration 15s
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"yourandvalue"
)

func main() {
	// ~5% of the paper's dataset: still the full pipeline — synthetic
	// year-long weblog, Weblog Ads Analyzer, two probing ad-campaigns
	// (run in parallel), PME training, sharded per-user cost estimation.
	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithConfig(yourandvalue.QuickConfig()),
		yourandvalue.WithProgress(func(ev yourandvalue.StageEvent) {
			if ev.State == yourandvalue.StageCompleted {
				fmt.Fprintf(os.Stderr, "%-15s %s\n", ev.Stage, ev.Elapsed.Round(1e6))
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	study, err := pipe.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dataset D: %d users, %d HTTP requests, %d RTB impressions\n",
		len(study.Trace.Users), len(study.Trace.Requests), study.Trace.RTBCount())
	fmt.Printf("campaigns: A1 %d encrypted records, A2 %d cleartext records\n",
		len(study.A1.Records), len(study.A2.Records))
	fmt.Printf("model: accuracy %.1f%%, AUC-ROC %.3f over %d classes\n\n",
		100*study.Model.Metrics.Accuracy, study.Model.Metrics.AUCROC,
		study.Model.Metrics.Classes)

	// The paper's headline figure: cumulative CPM paid per user (Fig 17).
	fmt.Println(study.Figure17().String())

	// And the validation against public ARPU numbers (§6.3).
	fmt.Println(study.Section63().String())
}
