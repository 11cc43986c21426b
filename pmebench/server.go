package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue"
	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/obs/trace"
	"yourandvalue/internal/pme"
	"yourandvalue/internal/pmeserver"
)

// cmd/pme's flag defaults: the deployment every workload measures.
const (
	pmeScale        = 0.05
	pmeSeed         = 1
	pmePerSetup     = 60
	pmeRetrainCount = 500
	pmeRetrainEvery = 30 * time.Second
)

// setupProbes is how many machine probes a run makes before it boots.
const setupProbes = 3

// stages are the wall times of one bootstrap, stage by stage.
type stages struct {
	generate, analyze, campaigns, train time.Duration
	publish                             time.Duration // inside train; traced runs only
	total                               time.Duration // start to the first publish: time to ready
}

// deployment is one booted PME: the registry the bootstrap pipeline
// published into and the server cmd/pme would run over it.
type deployment struct {
	reg   *pme.Registry
	timed *timedSource // the registry behind a Publish timer; nil when untraced
	snap  *pme.Snapshot
	plain *server
	times stages
}

// source is the ModelSource publishes go through.
func (d *deployment) source() pme.ModelSource {
	if d.timed != nil {
		return d.timed
	}
	return d.reg
}

// deploy boots the PME as cmd/pme does with its default flags: the
// server binds first, then the pipeline runs GenerateTrace → Analyze →
// RunCampaigns → TrainModel, whose publish makes the server ready.
func deploy(ctx context.Context, traced bool) (*deployment, error) {
	for i := 0; i < setupProbes; i++ {
		probes.sample()
	}
	start := time.Now()
	d := &deployment{reg: pme.NewRegistry()}
	if traced {
		d.timed = &timedSource{Registry: d.reg}
	}
	tel := obs.NewRegistry()
	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(pmeScale),
		yourandvalue.WithSeed(pmeSeed),
		yourandvalue.WithCampaignImpressions(pmePerSetup),
		yourandvalue.WithCrossValidation(10, 1),
		yourandvalue.WithModelPublisher(d.source()),
		yourandvalue.WithObservability(tel),
	)
	if err != nil {
		return nil, err
	}
	if d.plain, err = startServer(d.reg, tel, nil); err != nil {
		return nil, err
	}
	fail := func(err error) (*deployment, error) {
		d.plain.close()
		return nil, err
	}
	t := time.Now()
	tr, err := pipe.GenerateTrace(ctx)
	if err != nil {
		return fail(err)
	}
	d.times.generate = time.Since(t)
	t = time.Now()
	res, err := pipe.Analyze(ctx, tr)
	if err != nil {
		return fail(err)
	}
	d.times.analyze = time.Since(t)
	t = time.Now()
	camps, err := pipe.RunCampaigns(ctx, tr)
	if err != nil {
		return fail(err)
	}
	d.times.campaigns = time.Since(t)
	t = time.Now()
	if _, err := pipe.TrainModel(ctx, res, camps); err != nil {
		return fail(err)
	}
	d.times.train = time.Since(t)
	d.times.total = time.Since(start)
	if d.timed != nil {
		if pubs := d.timed.take(); len(pubs) > 0 {
			d.times.publish = pubs[0]
		}
	}
	d.snap = d.reg.Current()
	return d, nil
}

func (d *deployment) close() { d.plain.close() }

// timedSource is the registry behind a timer on Publish, so a traced run
// can split a retrain into training and publishing.
type timedSource struct {
	*pme.Registry
	mu   sync.Mutex
	pubs []time.Duration
}

// Publish implements pme.ModelSource.
func (s *timedSource) Publish(m *core.Model) (*pme.Snapshot, error) {
	start := time.Now()
	snap, err := s.Registry.Publish(m)
	d := time.Since(start)
	s.mu.Lock()
	s.pubs = append(s.pubs, d)
	s.mu.Unlock()
	return snap, err
}

// take returns the publish times recorded since the last call.
func (s *timedSource) take() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pubs
	s.pubs = nil
	return out
}

// server is one pmeserver on a loopback listener.
type server struct {
	srv  *pmeserver.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer builds a server the way cmd/pme does (registry, telemetry
// registry, the default inference batcher) and serves it on a loopback
// port. With tr non-nil the service and handler are wrapped in timers,
// every request is observed, and route spans are recorded.
func startServer(reg *pme.Registry, tel *obs.Registry, tr *tracing) (*server, error) {
	batcher := pme.WithBatcher(pme.BatcherConfig{MaxBatch: pme.DefaultBatchMaxRows, MaxWait: pme.DefaultBatchWindow})
	opts := []pmeserver.Option{pmeserver.WithRegistry(reg), pmeserver.WithObsRegistry(tel)}
	if tr == nil {
		opts = append(opts, pmeserver.WithCoreOptions(batcher))
	} else {
		pool := pme.NewPool(0)
		c := pme.NewCore(reg, pool, batcher)
		// pmeserver instruments the batcher only of a core it built itself.
		pme.InstrumentBatcher(tel, c.Batcher())
		opts = append(opts,
			pmeserver.WithPool(pool),
			pmeserver.WithService(&timedService{Core: c, t: tr}),
			pmeserver.WithRequestObserver(tr.observe),
			pmeserver.WithTracer(tr.spans),
		)
	}
	srv, err := pmeserver.New(nil, opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// pool is the contribution pool behind the server.
func (s *server) pool() pme.PoolBackend { return s.srv.Pool() }

// close stops the listener, waits for the serve loop to return, then
// drains the batcher.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.srv.Close()
}

// timedService is the pme.Core behind timers on the calls the HTTP
// handlers make.
type timedService struct {
	*pme.Core
	t *tracing
}

// EstimateBatch implements pme.Service.
func (s *timedService) EstimateBatch(ctx context.Context, items []pme.EstimateItem) (*pme.EstimateResult, error) {
	start := time.Now()
	res, err := s.Core.EstimateBatch(ctx, items)
	s.t.service(ctx, time.Since(start), &s.t.estimate)
	return res, err
}

// OpenEstimateSession implements pme.Service.
func (s *timedService) OpenEstimateSession(ctx context.Context) (*pme.EstimateSession, error) {
	start := time.Now()
	sess, err := s.Core.OpenEstimateSession(ctx)
	s.t.service(ctx, time.Since(start), nil)
	return sess, err
}

// Contribute implements pme.Service.
func (s *timedService) Contribute(ctx context.Context, batch []pme.Contribution) (pme.ContributeResult, error) {
	start := time.Now()
	res, err := s.Core.Contribute(ctx, batch)
	s.t.service(ctx, time.Since(start), &s.t.contribute)
	return res, err
}

// maxSpans bounds the traced run's span export.
const maxSpans = 1 << 16

// slotKey keys a request's reqSlot in its context.
type slotKey struct{}

// reqSlot accumulates the time one request spent inside pme.Service.
type reqSlot struct{ svc time.Duration }

// tracing is what a traced run records from outside the layers: route
// times from pmeserver's request observer, time inside pme.Service from
// the timing wrapper, handler time outside the service from a wrapper
// around the server's handler, and route spans. Recording is on only
// during the timed phase.
type tracing struct {
	spans *trace.Tracer
	on    atomic.Bool

	mu         sync.Mutex
	routes     map[string][]time.Duration // route → request durations
	polls      map[int][]time.Duration    // GET /v2/model durations by status
	self       []time.Duration            // estimate routes: handler time outside pme.Service
	estimate   []time.Duration            // pme.Service.EstimateBatch
	contribute []time.Duration            // pme.Service.Contribute
}

func newTracing() *tracing {
	return &tracing{
		spans:  trace.NewTracer(maxSpans),
		routes: make(map[string][]time.Duration),
		polls:  make(map[int][]time.Duration),
	}
}

// observe is the pmeserver request observer.
func (t *tracing) observe(o pmeserver.RequestObservation) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if o.Route == "v2.model" {
		t.polls[o.Status] = append(t.polls[o.Status], o.Duration)
		return
	}
	t.routes[o.Route] = append(t.routes[o.Route], o.Duration)
}

// service records d spent inside one pme.Service call, on the request's
// slot and, when into is non-nil, in that series.
func (t *tracing) service(ctx context.Context, d time.Duration, into *[]time.Duration) {
	if s, ok := ctx.Value(slotKey{}).(*reqSlot); ok {
		s.svc += d
	}
	if into == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	*into = append(*into, d)
	t.mu.Unlock()
}

// wrap times the server's handler and records, for the estimate routes,
// the part of it spent outside pme.Service.
func (t *tracing) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot := &reqSlot{}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), slotKey{}, slot)))
		if !t.on.Load() {
			return
		}
		switch r.URL.Path {
		case "/v2/estimate", "/v2/estimate/stream":
			d := time.Since(start) - slot.svc
			t.mu.Lock()
			t.self = append(t.self, d)
			t.mu.Unlock()
		}
	})
}
