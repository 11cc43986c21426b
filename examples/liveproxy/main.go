// Liveproxy example: the full distributed deployment of the paper's §3 —
// a PME server distributing versioned models over the v2 HTTP API, and a
// YourAdValue client that fetches the model conditionally (ETag), watches
// a user's live traffic, estimates encrypted prices locally, offloads a
// batch over the streaming NDJSON endpoint, and contributes anonymous
// observations back. The example then closes the crowdsourcing loop the
// way the production deployment does: the retrain loop drains the
// contribution pool into forest retraining, publishes the next model
// version through the registry's atomic hot-swap, and the client's next
// conditional poll observes the refresh as an ETag change.
//
//	go run ./examples/liveproxy
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	"yourandvalue"
	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
)

func main() {
	ctx := context.Background()

	// --- Server side: bootstrap the PME through the staged pipeline,
	// publish into a model registry, and expose it over HTTP. ---
	registry := pme.NewRegistry()
	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(0.03),
		yourandvalue.WithSeed(11),
		yourandvalue.WithCampaignImpressions(40),
		yourandvalue.WithCrossValidation(5, 1),
		yourandvalue.WithModelRegistry(registry),
	)
	check(err)
	tr, err := pipe.GenerateTrace(ctx)
	check(err)
	res, err := pipe.Analyze(ctx, tr)
	check(err)
	camps, err := pipe.RunCampaigns(ctx, tr) // A1 ∥ A2
	check(err)
	model, err := pipe.TrainModel(ctx, res, camps) // publishes version 1
	check(err)

	srv, err := pmeserver.New(nil, pmeserver.WithRegistry(registry))
	check(err)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("PME serving at %s (model version %d)\n", ts.URL, model.Version)

	// --- Client side: fetch the model conditionally, stream the user's
	// traffic. ---
	pmeClient := pmeserver.NewClient(ts.URL)
	fetched, etag, err := pmeClient.FetchModelV2(ctx, "")
	check(err)
	fmt.Printf("client fetched model: %d features, %d classes (etag %s)\n",
		fetched.Features.Dim(), fetched.Binner.Classes(), etag)

	// The extension's periodic poll (§3.3): unchanged model → 304, no body.
	if _, _, err := pmeClient.FetchModelV2(ctx, etag); errors.Is(err, pmeserver.ErrNotModified) {
		fmt.Println("version poll: model unchanged, 304 — nothing downloaded")
	}

	// Follow the busiest user.
	user := res.BusiestUser()
	client := core.NewClient(fetched, tr.Trace.Catalog.Directory())
	var contributions []pmeserver.Contribution
	var offload []pmeserver.EstimateItem
	shown := 0
	for _, r := range tr.Trace.Requests {
		if r.UserID != user {
			continue
		}
		ev, ok := client.Process(r)
		if !ok {
			continue
		}
		if shown < 8 {
			kind := "cleartext"
			if ev.Encrypted {
				kind = "encrypted→est"
			}
			fmt.Printf("  %s  %-12s %-13s %.4f CPM\n",
				ev.Time.Format("Jan 02 15:04"), ev.ADX, kind, ev.CPM)
			shown++
		}
		// Anonymous contribution: context and price, never identity.
		c := pmeserver.Contribution{
			Observed: ev.Time, ADX: ev.ADX, Encrypted: ev.Encrypted,
		}
		if !ev.Encrypted {
			c.PriceCPM = ev.CPM
		} else if len(offload) < 64 {
			// A thin client would let the server run the forest instead.
			offload = append(offload, pmeserver.EstimateItem{
				Observed: ev.Time, ADX: ev.ADX,
			})
		}
		contributions = append(contributions, c)
	}

	tot := client.Totals()
	fmt.Printf("\nuser %d over the year: %d cleartext + %d encrypted notifications\n",
		user, tot.CleartextCount, tot.EncryptedCount)
	fmt.Printf("advertisers paid ≈ %.2f CPM (%.2f time-corrected)\n",
		tot.TotalCPM(), tot.TotalCorrectedCPM())

	// Thin-client path: stream the batch over NDJSON — no giant JSON
	// array on either side, one pinned model version for the whole
	// stream.
	if len(offload) > 0 {
		ests, sum, err := pmeClient.EstimateStreamSliceV2(ctx, offload)
		check(err)
		total := 0.0
		for _, v := range ests {
			total += v
		}
		fmt.Printf("streaming estimate: %d encrypted impressions → %.2f CPM total (model v%d)\n",
			sum.Items, total, sum.ModelVersion)
	}

	out, err := pmeClient.ContributeV2(ctx, contributions)
	check(err)
	fmt.Printf("contributed %d anonymous observations (%d dropped, %d invalid; pool now %d)\n",
		out.Accepted, out.Dropped, out.Invalid, len(srv.Contributions()))

	// --- Close the loop: retrain on the pooled contributions and watch
	// the client observe the hot-swap. ---
	retrainer := pme.NewRetrainerWith(registry, srv.Pool(), pme.RetrainConfig{
		MinSamples: 50, // one user's year of cleartext traffic suffices here
		ForestSize: 10,
		Seed:       42,
	})
	snap, err := retrainer.RetrainOnce(ctx)
	if errors.Is(err, pme.ErrNotEnoughSamples) {
		fmt.Println("retrain: not enough cleartext contributions pooled yet — loop keeps waiting")
		return
	}
	check(err)
	fmt.Printf("retrain: published model version %d from %d contributed samples (pool drained to %d)\n",
		snap.Version, snap.Model.Metrics.TrainSize, srv.Pool().Len())

	// The client's next conditional poll sees the new version: the old
	// ETag no longer matches, so the refreshed model downloads.
	refreshed, newTag, err := pmeClient.FetchModelV2(ctx, etag)
	check(err)
	fmt.Printf("client poll after retrain: etag %s → %s, now on model version %d\n",
		etag, newTag, refreshed.Version)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
