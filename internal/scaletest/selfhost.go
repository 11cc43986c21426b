package scaletest

import (
	"context"
	"net"
	"time"

	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// SelfHost is an in-process pmeserver on a loopback listener, so the
// harness runs with zero external dependencies — and so CPU/heap
// measurements cover both sides of the load in one process.
type SelfHost struct {
	Server  *pmeserver.Server
	BaseURL string
	close   func()
}

// Close shuts the HTTP server down gracefully.
func (s *SelfHost) Close() { s.close() }

// StartSelfHost trains a small campaign-fit model and serves it on
// 127.0.0.1. The extra pmeserver options let callers attach observers
// (span hooks) or rate limits.
func StartSelfHost(seed int64, maxPool int, opts ...pmeserver.Option) (*SelfHost, error) {
	model, err := trainSeedModel(seed)
	if err != nil {
		return nil, err
	}
	srv, err := pmeserver.New(model, opts...)
	if err != nil {
		return nil, err
	}
	if maxPool > 0 {
		srv.SetMaxPool(maxPool)
	}
	// A live retrain loop makes the self-host an honest miniature of the
	// real deployment: contribute traffic drains into forest retrains and
	// hot-swaps mid-run, and the pme_retrain_* series land in the
	// post-run /metrics scrape. A full pool is the trigger, so short
	// estimate-only smokes never pay for a retrain they don't exercise.
	rtCtx, rtCancel := context.WithCancel(context.Background())
	retrainer := pme.NewRetrainerWith(srv.Registry(), srv.Pool(), pme.RetrainConfig{
		MinSamples: srv.Pool().Max(),
		Interval:   500 * time.Millisecond,
		Seed:       seed + 4,
	})
	pme.InstrumentRetrainer(srv.Obs(), retrainer)
	go func() { _ = retrainer.Run(rtCtx) }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rtCancel()
		return nil, err
	}
	hs := srv.HTTPServer()
	go func() { _ = hs.Serve(ln) }()
	return &SelfHost{
		Server:  srv,
		BaseURL: "http://" + ln.Addr().String(),
		close: func() {
			rtCancel()
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = hs.Shutdown(shCtx)
		},
	}, nil
}

// trainSeedModel trains the small campaign-fit model every self-hosted
// harness serves: a real forest over real probing-campaign records, but
// sized for sub-second training.
func trainSeedModel(seed int64) (*core.Model, error) {
	eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: seed + 1})
	cat := weblog.NewCatalog(60, 30)
	cfg := campaign.A1Config(cat, 25, seed+2)
	cfg.Setups = cfg.Setups[:36]
	rep, err := campaign.NewEngine(eco).Run(cfg)
	if err != nil {
		return nil, err
	}
	eng := core.NewPME(seed + 3)
	eng.ForestSize = 10
	eng.CVFolds, eng.CVRuns = 5, 1
	model, err := eng.Train(rep.Records, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	// Nothing reads the seed model's cross-validation, and its folds
	// would compete with the load being measured.
	model.CV.Stop()
	return model, nil
}

// StartModelChurn republishes the server's current model every interval
// until ctx is cancelled, flipping the registry version and ETag each
// time — the hot-swap churn the model-poll strategy exists to measure.
// It returns a wait function that blocks until the churner has stopped.
func StartModelChurn(ctx context.Context, srv *pmeserver.Server, every time.Duration) func() {
	reg := srv.Registry()
	model := srv.Model()
	if reg == nil || model == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := reg.Publish(model); err != nil {
					return
				}
			}
		}
	}()
	return func() { <-done }
}
