package scaletest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"yourandvalue/internal/hist"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
	"yourandvalue/internal/store"
	"yourandvalue/internal/store/memstore"

	// StartFleet accepts any registered store URL; make sure the RESP2
	// backend's scheme is importable without extra caller ceremony.
	_ "yourandvalue/internal/store/redisstore"
)

// FleetConfig drives a multi-replica run: one client fleet round-robined
// across N pmeserver replicas that share a persistence store, an
// optional publisher churning model versions through that store, and a
// per-replica version watcher asserting that every replica's advertised
// version only ever moves forward and measuring how long a publish takes
// to reach each replica's serving path.
type FleetConfig struct {
	// Addrs are the replica base URLs (at least one).
	Addrs []string
	// Clients is the total fleet size, assigned round-robin across Addrs
	// (default 2 per replica).
	Clients int
	// Strategy is the per-client workload profile (default "mixed").
	Strategy string
	// Scenario/Scale/Seed/BatchSize feed the workload as in Config.
	Scenario  string
	Scale     float64
	Seed      int64
	BatchSize int
	// Duration caps the wall-clock run when positive.
	Duration time.Duration
	// MaxOps caps total operation cycles across the whole fleet.
	MaxOps int64
	// HTTPClient overrides the transport for clients and watchers.
	HTTPClient *http.Client
	// SLO gates the merged workload result (nil = strategy default).
	SLO *SLO
	// Publisher, when set, republishes its current model through the
	// shared store every SwapEvery — the ETag churn whose fleet-wide
	// propagation the watchers measure.
	Publisher *pme.Replica
	// SwapEvery is the churn cadence (default 500ms when Publisher set).
	SwapEvery time.Duration
	// WatchEvery is the per-replica version poll cadence (default 50ms).
	WatchEvery time.Duration
	// PropagationBound is how long after the last publish every replica
	// must have caught up, and the ceiling asserted on the measured
	// publish→flip lag (default 5s).
	PropagationBound time.Duration
}

// FleetReplicaResult is what one replica's version watcher observed.
type FleetReplicaResult struct {
	Addr string `json:"addr"`
	// StartVersion/EndVersion bracket the advertised model version.
	StartVersion int `json:"start_version"`
	EndVersion   int `json:"end_version"`
	// Flips counts distinct forward version changes observed.
	Flips int64 `json:"flips"`
	// Violations counts observations where the version moved backwards —
	// the consistency property the fleet exists to preserve. Must be 0.
	Violations int64 `json:"violations"`
	// WatchErrors counts failed version polls (transport or non-200).
	WatchErrors int64 `json:"watch_errors"`
}

// FleetResult is one fleet run's outcome: the merged workload result
// plus the cross-replica consistency and propagation record.
type FleetResult struct {
	// Result is the client workload merged across all replicas.
	*Result
	Addrs    []string
	Replicas []FleetReplicaResult
	// Swaps counts publisher-initiated publishes during the run.
	Swaps int64
	// ConsistencyViolations sums Violations across replicas.
	ConsistencyViolations int64
	// Propagation distributes publish→replica-flip lag, one sample per
	// (publish, replica) pair whose flip the watcher observed.
	Propagation hist.Histogram
	// MaxPropagation is the worst observed lag.
	MaxPropagation time.Duration
	// PropagationBound echoes the asserted ceiling.
	PropagationBound time.Duration
	// LaggardReplicas lists replicas that never reached the final
	// published version within PropagationBound after the last swap.
	LaggardReplicas []string
}

// OK reports whether the fleet invariants held: zero consistency
// violations, no laggard replicas, measured propagation within bound,
// and the merged workload SLO passing.
func (r *FleetResult) OK() bool {
	if r.ConsistencyViolations > 0 || len(r.LaggardReplicas) > 0 {
		return false
	}
	if r.PropagationBound > 0 && r.MaxPropagation > r.PropagationBound {
		return false
	}
	return r.Result == nil || r.Result.SLO.OK()
}

// String renders the human-readable fleet report.
func (r *FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scaletest fleet: %d replicas, %d swaps, %d consistency violations\n",
		len(r.Addrs), r.Swaps, r.ConsistencyViolations)
	for _, rep := range r.Replicas {
		fmt.Fprintf(&b, "  %-28s version %d -> %d, %d flips, %d violations, %d watch errors\n",
			rep.Addr, rep.StartVersion, rep.EndVersion, rep.Flips, rep.Violations, rep.WatchErrors)
	}
	if r.Propagation.Count() > 0 {
		fmt.Fprintf(&b, "  propagation %s (max %s, bound %s)\n",
			&r.Propagation, r.MaxPropagation.Round(time.Millisecond), r.PropagationBound)
	}
	if len(r.LaggardReplicas) > 0 {
		fmt.Fprintf(&b, "  LAGGARDS (missed final version within bound): %s\n", strings.Join(r.LaggardReplicas, ", "))
	}
	if r.Result != nil {
		b.WriteString(r.Result.String())
	}
	return b.String()
}

// fleetWatcher polls one replica's /v2/model/version, enforcing forward-
// only versions and timestamping each flip for the propagation metric.
type fleetWatcher struct {
	addr   string
	client *pmeserver.Client

	mu      sync.Mutex
	started bool
	last    int
	res     FleetReplicaResult
	flipAt  map[int]time.Time // version -> first time this watcher saw it
}

func newFleetWatcher(addr string, httpc *http.Client) *fleetWatcher {
	pc := pmeserver.NewClient(addr)
	if httpc != nil {
		pc.HTTP = httpc
	}
	return &fleetWatcher{addr: addr, client: pc, res: FleetReplicaResult{Addr: addr}, flipAt: map[int]time.Time{}}
}

// observe takes one version sample.
func (w *fleetWatcher) observe(ctx context.Context) {
	v, err := w.client.VersionV2(ctx)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if ctx.Err() == nil {
			w.res.WatchErrors++
		}
		return
	}
	if !w.started {
		w.started = true
		w.last = v.Version
		w.res.StartVersion = v.Version
		w.flipAt[v.Version] = time.Now()
		return
	}
	switch {
	case v.Version < w.last:
		w.res.Violations++
	case v.Version > w.last:
		w.res.Flips++
		w.flipAt[v.Version] = time.Now()
	}
	w.last = v.Version
}

func (w *fleetWatcher) lastVersion() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

func (w *fleetWatcher) result() FleetReplicaResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.res.EndVersion = w.last
	return w.res
}

// RunFleet executes one multi-replica run (see FleetConfig) and reports
// the merged workload result plus the consistency/propagation record.
// Invariant failures are reported in the FleetResult, not as an error —
// the error path is for runs that could not execute.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("scaletest: fleet run needs at least one addr")
	}
	if cfg.Clients < 1 {
		cfg.Clients = 2 * len(cfg.Addrs)
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "mixed"
	}
	if cfg.WatchEvery <= 0 {
		cfg.WatchEvery = 50 * time.Millisecond
	}
	if cfg.SwapEvery <= 0 {
		cfg.SwapEvery = 500 * time.Millisecond
	}
	if cfg.PropagationBound <= 0 {
		cfg.PropagationBound = 5 * time.Second
	}

	// Version watchers: one per replica, running from before the first
	// swap until after the grace period so no flip goes unobserved.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watchers := make([]*fleetWatcher, len(cfg.Addrs))
	var watchWG sync.WaitGroup
	for i, addr := range cfg.Addrs {
		watchers[i] = newFleetWatcher(addr, cfg.HTTPClient)
		watchWG.Add(1)
		go func(w *fleetWatcher) {
			defer watchWG.Done()
			t := time.NewTicker(cfg.WatchEvery)
			defer t.Stop()
			for {
				w.observe(watchCtx)
				select {
				case <-watchCtx.Done():
					return
				case <-t.C:
				}
			}
		}(watchers[i])
	}

	// Swap churn through the shared store: each publish is timestamped
	// so watcher flips can be turned into propagation lag.
	var (
		pubMu        sync.Mutex
		publishAt    = map[int]time.Time{}
		swaps        int64
		lastPublish  int
		churnWG      sync.WaitGroup
		churnCtx     context.Context
		stopChurn    context.CancelFunc = func() {}
		churnEnabled                    = cfg.Publisher != nil && cfg.Publisher.Current() != nil
	)
	if churnEnabled {
		churnCtx, stopChurn = context.WithCancel(ctx)
		model := cfg.Publisher.Current().Model
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			t := time.NewTicker(cfg.SwapEvery)
			defer t.Stop()
			for {
				select {
				case <-churnCtx.Done():
					return
				case <-t.C:
					snap, err := cfg.Publisher.Publish(model)
					if err != nil {
						continue // transient store trouble; the next tick retries
					}
					pubMu.Lock()
					publishAt[snap.Version] = time.Now()
					swaps++
					lastPublish = snap.Version
					pubMu.Unlock()
				}
			}
		}()
	}
	defer stopChurn()

	// The client fleet: split round-robin across replicas and run the
	// per-replica groups concurrently, then merge. Per-group SLOs are
	// disabled — the gate evaluates the merged result.
	groups := make([][]int, len(cfg.Addrs)) // addr index -> client slots
	for i := 0; i < cfg.Clients; i++ {
		groups[i%len(cfg.Addrs)] = append(groups[i%len(cfg.Addrs)], i)
	}
	results := make([]*Result, len(cfg.Addrs))
	errs := make([]error, len(cfg.Addrs))
	var runWG sync.WaitGroup
	for i, addr := range cfg.Addrs {
		n := len(groups[i])
		if n == 0 {
			continue
		}
		sub := Config{
			BaseURL:    addr,
			Strategy:   cfg.Strategy,
			Clients:    n,
			Scenario:   cfg.Scenario,
			Scale:      cfg.Scale,
			Seed:       cfg.Seed + int64(i)*7919, // distinct traffic per replica group
			BatchSize:  cfg.BatchSize,
			Duration:   cfg.Duration,
			HTTPClient: cfg.HTTPClient,
			SLO:        &SLO{MaxErrorRate: -1},
		}
		if cfg.MaxOps > 0 {
			sub.MaxOps = cfg.MaxOps * int64(n) / int64(cfg.Clients)
		}
		runWG.Add(1)
		go func(i int, sub Config) {
			defer runWG.Done()
			results[i], errs[i] = Run(ctx, sub)
		}(i, sub)
	}
	runWG.Wait()
	stopChurn()
	churnWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Grace period: every replica gets PropagationBound after the final
	// publish to converge on it; replicas that don't are laggards.
	var laggards []string
	pubMu.Lock()
	target := lastPublish
	pubMu.Unlock()
	if target > 0 {
		deadline := time.Now().Add(cfg.PropagationBound)
		for {
			behind := false
			for _, w := range watchers {
				if w.lastVersion() < target {
					behind = true
				}
			}
			if !behind || time.Now().After(deadline) || ctx.Err() != nil {
				break
			}
			time.Sleep(cfg.WatchEvery)
		}
		for _, w := range watchers {
			if w.lastVersion() < target {
				laggards = append(laggards, w.addr)
			}
		}
	}
	stopWatch()
	watchWG.Wait()

	out := &FleetResult{
		Addrs:            cfg.Addrs,
		Swaps:            swaps,
		PropagationBound: cfg.PropagationBound,
		LaggardReplicas:  laggards,
	}
	for _, w := range watchers {
		rep := w.result()
		out.Replicas = append(out.Replicas, rep)
		out.ConsistencyViolations += rep.Violations
		// Propagation: only versions our publisher stamped, and only
		// non-baseline flips (a watcher's first observation is a cold
		// read, not a swap).
		w.mu.Lock()
		for v, flipped := range w.flipAt {
			if v == rep.StartVersion {
				continue
			}
			pub, ok := publishAt[v]
			if !ok {
				continue
			}
			lag := flipped.Sub(pub)
			if lag < 0 {
				lag = 0
			}
			out.Propagation.Record(lag)
			if lag > out.MaxPropagation {
				out.MaxPropagation = lag
			}
		}
		w.mu.Unlock()
	}
	out.Result = mergeResults(cfg, results)
	if out.Result != nil {
		slo := out.Result.SLO
		if cfg.SLO != nil {
			*slo = *cfg.SLO.Check(out.Result)
		} else if prof, err := ProfileFor(cfg.Strategy); err == nil {
			*slo = *prof.DefaultSLO.Check(out.Result)
		}
	}
	return out, nil
}

// mergeResults folds the per-replica workload results into one.
func mergeResults(cfg FleetConfig, results []*Result) *Result {
	out := &Result{
		Strategy: cfg.Strategy,
		Scenario: cfg.Scenario,
		Clients:  cfg.Clients,
		Endpoints: map[string]*hist.Histogram{
			"model": {}, "contribute": {}, "estimate": {}, "stream": {},
		},
		SLO: &SLOReport{},
	}
	if out.Scenario == "" {
		out.Scenario = "baseline"
	}
	any := false
	for _, r := range results {
		if r == nil {
			continue
		}
		any = true
		if r.Elapsed > out.Elapsed {
			out.Elapsed = r.Elapsed
		}
		out.Ops += r.Ops
		out.Requests += r.Requests
		out.Contributed += r.Contributed
		out.Estimated += r.Estimated
		out.ModelPolls += r.ModelPolls
		out.NotModified += r.NotModified
		out.PoolFull += r.PoolFull
		out.Errors += r.Errors
		out.Churns += r.Churns
		out.ZeroLife += r.ZeroLife
		if r.MaxHeapBytes > out.MaxHeapBytes {
			out.MaxHeapBytes = r.MaxHeapBytes
		}
		for k, h := range r.Endpoints {
			out.Endpoints[k].Merge(h)
		}
	}
	if !any {
		return nil
	}
	return out
}

// FleetHost is an in-process fleet: N pmeserver replicas on loopback
// listeners, each a pme.Replica over one shared store, plus a publisher
// replica (which seeds the store with a trained model if empty, and runs
// the lease-gated retrainer). Zero external dependencies with the
// default in-memory store; pass a redis:// URL to run the same topology
// over a real or redistest-simulated server.
type FleetHost struct {
	Addrs     []string
	Publisher *pme.Replica
	Replicas  []*pme.Replica
	Servers   []*pmeserver.Server
	close     func()
}

// Close shuts the servers down and closes the stores.
func (f *FleetHost) Close() { f.close() }

// StartFleet brings up an n-replica in-process fleet sharing the store
// at storeURL ("" or "mem://" = one shared in-memory store).
func StartFleet(storeURL string, n int, seed int64, opts ...pmeserver.Option) (*FleetHost, error) {
	if n < 1 {
		n = 2
	}
	// mem:// opens a fresh empty store per Open call, which would defeat
	// the point of a fleet — share one instance across all replicas.
	var opener func() (store.Store, error)
	if storeURL == "" || storeURL == "mem://" || storeURL == "mem:" {
		shared := memstore.New()
		opener = func() (store.Store, error) { return shared, nil }
	} else {
		opener = func() (store.Store, error) { return store.Open(storeURL) }
	}

	ctx, cancel := context.WithCancel(context.Background())
	var stores []store.Store
	var shutdowns []func()
	closeAll := func() {
		cancel()
		for _, fn := range shutdowns {
			fn()
		}
		seen := map[store.Store]bool{}
		for _, st := range stores {
			if !seen[st] {
				seen[st] = true
				_ = st.Close()
			}
		}
	}
	fail := func(err error) (*FleetHost, error) {
		closeAll()
		return nil, err
	}

	// Publisher: seeds the store when empty and retrains under the lease.
	pubStore, err := opener()
	if err != nil {
		return fail(err)
	}
	stores = append(stores, pubStore)
	publisher := pme.NewReplica(pubStore, nil,
		pme.WithReplicaID("publisher"),
		pme.WithPollInterval(100*time.Millisecond))
	if err := publisher.SyncOnce(ctx); err != nil || publisher.Current() == nil {
		model, terr := trainSeedModel(seed)
		if terr != nil {
			return fail(terr)
		}
		if _, perr := publisher.Publish(model); perr != nil {
			return fail(perr)
		}
	}
	retrainer := pme.NewRetrainerWith(publisher, publisher.Pool(), pme.RetrainConfig{
		MinSamples: publisher.Pool().Max(),
		Interval:   500 * time.Millisecond,
		Seed:       seed + 4,
	})
	go func() { _ = publisher.RunWithLease(ctx, retrainer.Run) }()

	host := &FleetHost{Publisher: publisher, close: closeAll}
	for i := 0; i < n; i++ {
		st, err := opener()
		if err != nil {
			return fail(err)
		}
		stores = append(stores, st)
		rep := pme.NewReplica(st, nil,
			pme.WithReplicaID(fmt.Sprintf("replica-%d", i)),
			pme.WithPollInterval(100*time.Millisecond))
		rep.Start(ctx)
		srvOpts := append([]pmeserver.Option{
			pmeserver.WithRegistry(rep.Registry()),
			pmeserver.WithPoolBackend(rep.Pool()),
			pmeserver.WithReadiness(rep.Ready),
		}, opts...)
		srv, err := pmeserver.New(nil, srvOpts...)
		if err != nil {
			return fail(err)
		}
		pme.InstrumentReplica(srv.Obs(), rep)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		hs := srv.HTTPServer()
		go func() { _ = hs.Serve(ln) }()
		shutdowns = append(shutdowns, func() {
			shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer shCancel()
			_ = hs.Shutdown(shCtx)
		})
		host.Addrs = append(host.Addrs, "http://"+ln.Addr().String())
		host.Replicas = append(host.Replicas, rep)
		host.Servers = append(host.Servers, srv)
	}

	// Every replica must adopt the seed model before load starts.
	deadline := time.Now().Add(10 * time.Second)
	for _, rep := range host.Replicas {
		for rep.Current() == nil {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("scaletest: replica %s never adopted the seed model", rep.ID()))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return host, nil
}
