// Command pme bootstraps the Price Modeling Engine — runs the probing
// ad-campaigns, trains the encrypted-price model, publishes it into a
// versioned model registry, and serves it over HTTP for YourAdValue
// clients (paper §3.2). While serving, a retrain loop drains the
// crowdsourced contribution pool into forest retraining and hot-swaps
// each new version in atomically; clients observe refreshes as ETag
// changes on their next conditional poll.
//
// The process serves first and trains second: the listener binds
// immediately so /healthz, /readyz, and /metrics are reachable during
// the bootstrap, and /readyz flips from 503 to 200 the moment the
// pipeline publishes the first model. Telemetry — bootstrap stage
// timings, model lifecycle, retrain loop, per-route request series —
// flows through one obs registry scraped at GET /metrics.
//
// With -store the process becomes one replica of a fleet: model
// lineage, the contribution pool, and the retrainer-singleton lease
// live in the shared store (redis://host:port, or mem:// for one-process
// testing). Exactly one replica wins the bootstrap lease and trains;
// the others adopt the published model through the store's hot-swap
// notifications and /readyz additionally reflects store health.
//
// Usage:
//
//	pme [-listen :8700] [-scale 0.05] [-per-setup 60] [-seed 1] [-once]
//	    [-retrain-count 500] [-retrain-interval 30s] [-rate 0] [-burst 256]
//	    [-store redis://127.0.0.1:6379] [-replica-id pme-1] [-lease-ttl 10s]
//	    [-pprof] [-trace-spans 0] [-log-requests]
//
// The model publishes as soon as its forest is trained; its §5.4
// cross-validation finishes afterwards and is logged (and kept as the
// version's quality record in /v2/stats) when it lands. With -once the
// process waits for it, prints the metrics and exits without serving
// (useful in scripts; with -store it seeds the shared store). -rate enables the token-bucket limiter (requests/
// second; 0 = unlimited). -pprof mounts net/http/pprof under
// /debug/pprof/. -trace-spans > 0 records that many server-side request
// spans, served at GET /debug/trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"yourandvalue"
	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/store"

	// Store backends register their URL schemes on import.
	_ "yourandvalue/internal/store/memstore"
	_ "yourandvalue/internal/store/redisstore"
)

func main() {
	listen := flag.String("listen", ":8700", "HTTP listen address")
	scale := flag.Float64("scale", 0.05, "bootstrap weblog scale")
	perSetup := flag.Int("per-setup", 60, "campaign impressions per setup")
	seed := flag.Int64("seed", 1, "simulation seed")
	once := flag.Bool("once", false, "train, print metrics, and exit")
	retrainCount := flag.Int("retrain-count", 500, "contributions that trigger a retrain")
	retrainEvery := flag.Duration("retrain-interval", 30*time.Second, "how often the retrain trigger is checked")
	rate := flag.Float64("rate", 0, "token-bucket request rate limit in req/s (0 = unlimited)")
	burst := flag.Int("burst", 256, "token-bucket burst capacity")
	storeURL := flag.String("store", "", "shared persistence store URL (redis://host:port or mem://); empty = single-process in-memory")
	replicaID := flag.String("replica-id", "", "stable replica identity for fleet leases and logs (default: random)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet retrain-lease TTL (renewed at a third of it)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	traceSpans := flag.Int("trace-spans", 0, "record up to this many server-side request spans (0 = off); GET /debug/trace exports them")
	logRequests := flag.Bool("log-requests", false, "log one structured line per request (with trace IDs)")
	flag.Parse()
	start := time.Now()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// The registry is the hand-off point between training and serving:
	// the pipeline publishes into it, the server serves from it, and the
	// retrain loop hot-swaps new versions through it. In fleet mode the
	// registry becomes a read-through cache of the shared store, fed by
	// the replica's watch loop. The obs registry is the telemetry
	// counterpart — pipeline, server, store, and retrainer all report
	// through it onto one /metrics scrape.
	registry := pme.NewRegistry()
	telemetry := obs.NewRegistry()

	fleet := *storeURL != ""
	var replica *pme.Replica
	publishOpt := yourandvalue.WithModelRegistry(registry)
	if fleet {
		raw, err := store.Open(*storeURL)
		exitOn(err)
		st := store.Instrumented(raw, telemetry)
		defer st.Close()
		ropts := []pme.ReplicaOption{
			pme.WithLeaseTTL(*leaseTTL),
			pme.WithReplicaLog(func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			}),
		}
		if *replicaID != "" {
			ropts = append(ropts, pme.WithReplicaID(*replicaID))
		}
		replica = pme.NewReplica(st, registry, ropts...)
		pme.InstrumentReplica(telemetry, replica)
		publishOpt = yourandvalue.WithModelPublisher(replica)
		logger.Info("fleet mode", "store", st.Name(), "replica", replica.ID(), "lease_ttl", leaseTTL.String())
	}

	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(*scale),
		yourandvalue.WithSeed(*seed),
		yourandvalue.WithCampaignImpressions(*perSetup),
		yourandvalue.WithCrossValidation(10, 1),
		publishOpt,
		yourandvalue.WithObservability(telemetry),
		yourandvalue.WithProgress(func(ev yourandvalue.StageEvent) {
			if ev.State == yourandvalue.StageCompleted {
				logger.Info("stage done", "stage", string(ev.Stage), "elapsed", ev.Elapsed.Round(1e6).String())
			}
		}),
	)
	exitOn(err)

	var hs *http.Server
	var srv *pmeserver.Server
	if !*once {
		// Serve before training: bind the listener now so orchestrators
		// can watch /readyz flip once the bootstrap pipeline publishes.
		opts := []pmeserver.Option{
			pmeserver.WithRegistry(registry),
			pmeserver.WithObsRegistry(telemetry),
		}
		if fleet {
			// Contributions pool in the shared store, and readiness
			// additionally tracks store health: an unreachable store (or
			// no version seen yet) reads 503 and recovers without a
			// restart.
			opts = append(opts,
				pmeserver.WithPoolBackend(replica.Pool()),
				pmeserver.WithReadiness(replica.Ready),
			)
		}
		if *rate > 0 {
			opts = append(opts, pmeserver.WithRateLimit(*rate, *burst))
		}
		if *pprofOn {
			opts = append(opts, pmeserver.WithPprof())
		}
		if *traceSpans > 0 {
			opts = append(opts, pmeserver.WithTracer(trace.NewTracer(*traceSpans)))
		}
		if *logRequests {
			opts = append(opts, pmeserver.WithLogger(logger))
		}
		srv, err = pmeserver.New(nil, opts...)
		exitOn(err)

		ln, err := net.Listen("tcp", *listen)
		exitOn(err)
		hs = srv.HTTPServer()
		go func() { _ = hs.Serve(ln) }()
		logger.Info("listening (not ready until a model is published)",
			"addr", ln.Addr().String(), "metrics", "/metrics", "ready", "/readyz")
	}

	// The model needs campaigns plus the analyzed weblog (its cleartext
	// 2015 reference drives the §6.2 time-shift coefficient); the cost
	// stage is not needed to serve, so run the stages individually.
	runPipeline := func(pctx context.Context) (*core.Model, error) {
		tr, err := pipe.GenerateTrace(pctx)
		if err != nil {
			return nil, err
		}
		res, err := pipe.Analyze(pctx, tr)
		if err != nil {
			return nil, err
		}
		logger.Info("running probing ad-campaigns (A1 encrypted, A2 cleartext, in parallel)")
		camps, err := pipe.RunCampaigns(pctx, tr)
		if err != nil {
			return nil, err
		}
		logger.Info("campaigns done",
			"a1_records", len(camps.A1.Records), "a1_spent_usd", fmt.Sprintf("%.2f", camps.A1.SpentUSD),
			"a2_records", len(camps.A2.Records), "a2_spent_usd", fmt.Sprintf("%.2f", camps.A2.SpentUSD))
		return pipe.TrainModel(pctx, res, camps) // publishes → /readyz flips
	}

	var model *core.Model
	if fleet {
		replica.Start(ctx) // watch the store: adopt published versions
		exitOn(bootstrapFleet(ctx, replica, logger, runPipeline))
		if snap := replica.Current(); snap != nil {
			model = snap.Model
		}
	} else {
		model, err = runPipeline(ctx)
		exitOn(err)
	}
	if model != nil {
		printModel(model, time.Since(start))
	}
	// A model this process trained carries its running cross-validation;
	// an adopted one was graded by the replica that trained it.
	if model != nil && model.CV != nil {
		if *once {
			m, err := model.CV.Wait(ctx)
			exitOn(err)
			printCV(m)
		} else {
			go func() {
				m, err := model.CV.Wait(ctx)
				if err != nil {
					logger.Info("§5.4 cross-validation stopped", "version", model.Version, "err", err)
					return
				}
				logger.Info("§5.4 cross-validation done", "version", model.Version,
					"accuracy", pct(m.Accuracy), "fp_rate", pct(m.FPRate),
					"precision", pct(m.Precision), "recall", pct(m.Recall),
					"auc_roc", fmt.Sprintf("%.3f", m.AUCROC),
					"folds_x_runs", fmt.Sprintf("%dx%d", m.CVFolds, m.CVRuns),
					"since_start", time.Since(start).Round(time.Millisecond).String())
			}()
		}
	}
	if *once {
		return
	}

	// Close the crowdsourcing loop: drain contributions into retraining.
	// In fleet mode the retrainer runs only while this replica holds the
	// store's lease, so exactly one replica trains at a time and a
	// deposed holder's late publish is fenced out by the store.
	cfg := pme.RetrainConfig{
		MinSamples: *retrainCount,
		Interval:   *retrainEvery,
		Seed:       *seed + 100,
	}
	if fleet {
		retrainer := pme.NewRetrainerWith(replica, replica.Pool(), cfg)
		retrainer.Log = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
		pme.InstrumentRetrainer(telemetry, retrainer)
		go func() { _ = replica.RunWithLease(ctx, retrainer.Run) }()
	} else {
		retrainer := pme.NewRetrainerWith(registry, srv.Pool(), cfg)
		retrainer.Log = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
		pme.InstrumentRetrainer(telemetry, retrainer)
		go func() { _ = retrainer.Run(ctx) }()
	}

	logger.Info("serving model",
		"addr", *listen,
		"routes", "GET /v2/model [ETag], GET /v2/model/version, POST /v2/contribute, POST /v2/estimate[/stream], GET /v2/stats, GET /metrics")
	<-ctx.Done()
	shCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		exitOn(err)
	}
}

// errBootstrapDone ends the lease loop once a model is available.
var errBootstrapDone = errors.New("bootstrap complete")

// bootstrapFleet makes sure a model exists in the store: adopt one if a
// peer already published it, otherwise race for the lease — the winner
// runs the training pipeline (publishing through the replica, fenced),
// the losers keep cycling until the watch loop adopts the result. The
// expensive bootstrap runs at most once per fleet, not once per
// replica.
func bootstrapFleet(ctx context.Context, replica *pme.Replica, logger *slog.Logger, train func(context.Context) (*core.Model, error)) error {
	if err := replica.SyncOnce(ctx); err == nil && replica.Current() != nil {
		logger.Info("adopted existing fleet model, skipping bootstrap training",
			"version", replica.Current().Version, "etag", replica.Current().ETag)
		return nil
	}
	err := replica.RunWithLease(ctx, func(lctx context.Context) error {
		// Double-check under the lease: a peer may have finished while
		// this replica waited to acquire.
		_ = replica.SyncOnce(lctx)
		if replica.Current() != nil {
			return errBootstrapDone
		}
		logger.Info("won the bootstrap lease, training the initial model", "replica", replica.ID())
		if _, err := train(lctx); err != nil {
			return err
		}
		return errBootstrapDone
	})
	if err != nil && !errors.Is(err, errBootstrapDone) {
		return err
	}
	if ctx.Err() != nil {
		return nil
	}
	// Not the trainer: wait for the watch loop to adopt the winner's
	// publish (RunWithLease returned because fn saw a model, so this is
	// immediate in practice).
	for replica.Current() == nil && ctx.Err() == nil {
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pme:", err)
		os.Exit(1)
	}
}

// printModel reports the model at publish: what is known before its
// cross-validation lands.
func printModel(model *core.Model, ready time.Duration) {
	m := model.Metrics
	fmt.Printf("model published as version %d after %s: %d classes, %d records\n",
		model.Version, ready.Round(time.Millisecond), m.Classes, m.TrainSize)
	fmt.Printf("  OOB error %s\n", pct(m.OOBError))
	fmt.Printf("  time-shift coefficient %.3f\n", model.TimeShift)
}

// printCV reports the §5.4 cross-validated metrics.
func printCV(m core.ModelMetrics) {
	fmt.Printf("§5.4 cross-validation (%d folds x %d runs):\n", m.CVFolds, m.CVRuns)
	fmt.Printf("  accuracy  %s   (paper 82.9%%)\n", pct(m.Accuracy))
	fmt.Printf("  FP rate   %s   (paper 6.8%%)\n", pct(m.FPRate))
	fmt.Printf("  precision %s   (paper 83.5%%)\n", pct(m.Precision))
	fmt.Printf("  AUC-ROC   %.3f   (paper 0.964)\n", m.AUCROC)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
