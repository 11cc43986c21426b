package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"yourandvalue"
	"yourandvalue/internal/core"
	"yourandvalue/internal/weblog"
)

const (
	// tallyScale is the paper's dataset size: 1,594 users over a year.
	tallyScale = 1.0
	// tallyPassesPerSec is the study-tally work per nominal second: one
	// pass (Analyze + EstimateCosts over the whole trace) takes about
	// 1.4 s on a 2-vCPU x86-64 VM.
	tallyPassesPerSec = 0.7
)

// runTally is the study-tally workload: the paper's measurement method
// (nURL detection, traffic classification, per-user attribution, and
// the per-user cost tally) run offline over the paper-scale trace.
func runTally(ctx context.Context, rc runConfig) (*result, error) {
	// The serving inputs give the retrains their contributions and the
	// traced run's replays their items.
	in, err := buildInputs(rc.seed, pmeScale)
	if err != nil {
		return nil, err
	}
	d, err := deploy(ctx, rc.traced)
	if err != nil {
		return nil, err
	}
	defer d.close()
	logf("setup: ready in %.2fs (train-model %.2fs)", secs(d.times.total), secs(d.times.train))
	model := d.snap.Model

	pipe, err := yourandvalue.NewPipeline(
		yourandvalue.WithScale(tallyScale),
		yourandvalue.WithSeed(rc.seed),
		yourandvalue.WithWorkers(conns),
	)
	if err != nil {
		return nil, err
	}
	tr, err := pipe.GenerateTrace(ctx)
	if err != nil {
		return nil, err
	}
	reqs := tr.Trace.Requests
	logf("inputs: seed %d digest %s: %d users, %d requests, %d impressions",
		rc.seed, traceDigest(reqs), len(tr.Trace.Users), len(reqs), len(tr.Trace.Impressions))

	// The oracle: a single-worker tally of the same analysis. Computing it
	// runs Analyze and the tally once before timing, which is the warm-up.
	ref, err := pipe.Analyze(ctx, tr)
	if err != nil {
		return nil, err
	}
	want, err := core.BatchEstimateContext(ctx, ref, model, 1)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true}
	var analyze, tally, passes []time.Duration
	pass := func() error {
		res.Attempted++
		t0 := time.Now()
		a, err := pipe.Analyze(ctx, tr)
		if err != nil {
			return err
		}
		t1 := time.Now()
		costs, err := pipe.EstimateCosts(ctx, a, model)
		if err != nil {
			return err
		}
		t2 := time.Now()
		analyze, tally, passes = append(analyze, t1.Sub(t0)), append(tally, t2.Sub(t1)), append(passes, t2.Sub(t0))
		if len(a.Impressions) != len(ref.Impressions) {
			err = fmt.Errorf("pass found %d impressions, reference %d", len(a.Impressions), len(ref.Impressions))
		} else {
			err = sameCosts(costs, want)
		}
		if err != nil {
			res.Failed++
			logf("tally pass failed: %v", err)
		}
		return nil
	}

	runtime.GC()
	n := max(1, int(float64(rc.seconds)*tallyPassesPerSec+0.5))
	var rt rtSample
	idle, idleOps := newIdleTrainer(in, d.snap), phaseStats{}
	for i := 0; i < n; i++ {
		probes.sample()
		rt0 := readRuntime()
		if err := pass(); err != nil {
			return nil, err
		}
		rt.addDelta(rt0, readRuntime())
		probes.sample()
		idle.between(ctx, n, &idleOps)
	}
	var elapsed time.Duration
	for _, p := range passes {
		elapsed += p
	}
	rss := peakRSSMB()
	itemsPerSec := float64(n*len(reqs)) / elapsed.Seconds()

	res.count(idleOps)
	retrains := idleOps.retrains
	logf("timed: %d passes over %d requests in %.2fs (%.0f requests/s), pass p50 %.3fs, retrain median %.3fs, %d failed",
		n, len(reqs), secs(elapsed), itemsPerSec, secs(percentile(passes, 50)), secs(medianDur(retrains)), res.Failed)

	res.Metrics = metrics{}
	if !rc.traced {
		res.Metrics = endToEndMetrics(d.times.total, itemsPerSec, percentile(passes, 50), percentile(passes, 99), medianDur(retrains), rss)
		return res.done(), nil
	}

	m := res.Metrics
	m.set("analyzer.analyze_s", secs(medianDur(analyze)))
	m.set("core.estimate_costs_ms", ms(medianDur(tally)))
	m.set("analyzer.impressions_per_request", float64(len(ref.Impressions))/float64(len(reqs)))
	m.addReplay(model, replayItems(in, kindSmall))
	m.addRuntime(rt, int64(n*len(reqs)))
	if pubs := idle.src.take(); len(pubs) == len(retrains) {
		train := make([]time.Duration, len(retrains))
		for i := range retrains {
			train[i] = retrains[i] - pubs[i]
		}
		m.set("pme.retrain.train_ms", ms(medianDur(train)))
		m.set("pme.registry.publish_ms", ms(medianDur(pubs)))
	}
	// The tally's only instrumentation is the per-call timing the
	// untraced run does as well, so tracing costs it nothing. It serves
	// no route, so only the setup check applies.
	m.set("trace.overhead_frac", 0)
	m.set("machine.slowdown", probes.slowdown())
	res.reconcile(m, gap{"trace.setup_gap_frac", "setup.* stages vs setup_s", m.addSetup(d.times)})
	return res.done(), nil
}

// traceDigest is a short hash over the trace's requests, in order.
func traceDigest(reqs []weblog.Request) string {
	h := sha256.New()
	var b [16]byte
	for i := range reqs {
		binary.BigEndian.PutUint64(b[:8], uint64(reqs[i].Time.UnixNano()))
		binary.BigEndian.PutUint64(b[8:], uint64(reqs[i].UserID))
		h.Write(b[:])
		h.Write([]byte(reqs[i].URL))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
