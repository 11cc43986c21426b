package main

import (
	"math"
	"slices"
	"strconv"
	"time"

	"yourandvalue/internal/core"
	"yourandvalue/internal/obs"
	"yourandvalue/internal/pme"
)

// reconcileLimit is how far the per-layer parts may sum away from the
// whole they split before the traced run reports a mismatch.
const reconcileLimit = 0.10

// addRoute records the pmeserver layer of the workload's estimate route
// and returns how far self time plus service time land from the route
// time, as a share of the route time.
func (m metrics) addRoute(tr *tracing, route string, clientLat []time.Duration, stream bool) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	routes := tr.routes[route]
	p50 := percentile(routes, 50)
	m.set("pmeserver.route_us.p50", us(p50))
	m.set("pmeserver.route_us.p99", us(percentile(routes, 99)))
	self, est := medianDur(tr.self), medianDur(tr.estimate)
	m.set("pmeserver.self_us", us(self))
	m.set("pme.estimate_us", us(est))
	if stream {
		m.set("pmeserver.stream_us_per_item", us(p50)/streamItems)
	}
	m.set("client.wire_us", us(medianDur(clientLat)-p50))
	if p50 == 0 {
		return 0
	}
	return math.Abs(float64(self+est-p50)) / float64(p50)
}

// addWrites records the write path: contribute calls, the pool, the
// retrains split into training and publishing, and model polls.
func (m metrics) addWrites(tr *tracing, retrains, pubs []time.Duration, pool pme.PoolBackend) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m.set("pme.contribute_us", us(medianDur(tr.contribute)))
	m.set("pme.pool.accepted", float64(pool.Accepted()))
	m.set("pme.pool.dropped", float64(pool.Dropped()))
	if len(retrains) > 0 && len(pubs) == len(retrains) {
		train := make([]time.Duration, len(retrains))
		for i := range retrains {
			train[i] = retrains[i] - pubs[i]
		}
		m.set("pme.retrain.train_ms", ms(medianDur(train)))
		m.set("pme.registry.publish_ms", ms(medianDur(pubs)))
	}
	m.set("pmeserver.model_poll_us.304", us(medianDur(tr.polls[304])))
	m.set("pmeserver.model_poll_us.200", us(medianDur(tr.polls[200])))
}

// addBatcher records the inference batcher from the pme_batcher_*
// families of two /metrics scrapes around the timed phase. Without a
// batcher the families are absent and so are these metrics.
func (m metrics) addBatcher(before, after []obs.Family) {
	if _, ok := obs.FindFamily(after, "pme_batcher_requests_total"); !ok {
		return
	}
	m.set("pme.batcher.queue_wait_us.p50", 1e6*histQuantile(before, after, "pme_batcher_queue_wait_seconds", 0.50))
	m.set("pme.batcher.queue_wait_us.p99", 1e6*histQuantile(before, after, "pme_batcher_queue_wait_seconds", 0.99))
	var flushes float64
	for _, reason := range pme.FlushReasons {
		n := counterDelta(before, after, "pme_batcher_flushes_total", obs.Labels{"reason": reason})
		flushes += n
		if reason != "drain" {
			m.set("pme.batcher.flushes."+reason, n)
		}
	}
	if flushes > 0 {
		m.set("pme.batcher.requests_per_flush", counterDelta(before, after, "pme_batcher_requests_total", nil)/flushes)
	}
}

// counterDelta is the growth of one counter series between two scrapes.
func counterDelta(before, after []obs.Family, name string, labels obs.Labels) float64 {
	read := func(fams []obs.Family) float64 {
		if f, ok := obs.FindFamily(fams, name); ok {
			v, _ := f.Sample(labels)
			return v
		}
		return 0
	}
	return read(after) - read(before)
}

// histQuantile is the q-quantile, in the histogram's unit, of the
// observations a histogram gained between two scrapes: the upper bound
// of the first bucket whose cumulative gain reaches q of the total.
func histQuantile(before, after []obs.Family, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	read := func(fams []obs.Family) []bucket {
		f, ok := obs.FindFamily(fams, name)
		if !ok {
			return nil
		}
		var bs []bucket
		for _, s := range f.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err == nil {
				bs = append(bs, bucket{le, s.Value})
			}
		}
		slices.SortFunc(bs, func(a, b bucket) int { return cmpFloat(a.le, b.le) })
		return bs
	}
	b0, b1 := read(before), read(after)
	// cumAt is the cumulative count at le of a scrape, whose populated
	// buckets may be a subset of the other scrape's.
	cumAt := func(bs []bucket, le float64) float64 {
		c := 0.0
		for _, b := range bs {
			if b.le <= le {
				c = b.cum
			}
		}
		return c
	}
	if len(b1) == 0 {
		return 0
	}
	total := b1[len(b1)-1].cum - cumAt(b0, math.Inf(1))
	if total <= 0 {
		return 0
	}
	for _, b := range b1 {
		if b.cum-cumAt(b0, b.le) >= q*total && !math.IsInf(b.le, 1) {
			return b.le
		}
	}
	// The quantile sits in the overflow bucket: report the largest bound.
	return b1[max(len(b1)-2, 0)].le
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// replayBudget is how long each replay repeats its pass over the items.
const replayBudget = 150 * time.Millisecond

// addReplay times, from outside the layers, the two stages an estimate
// is made of on the served model: the S-vector encode
// (Features.EncodeStringsInto, core/detect) and the forest walk
// (FlatForest().PredictInto in 256-row chunks, mlkit).
func (m metrics) addReplay(model *core.Model, items []pme.EstimateItem) {
	if len(items) == 0 {
		return
	}
	dim := model.Features.Dim()
	ctxs := make([]core.StringContext, len(items))
	for i, it := range items {
		hour, weekday := it.Hour, it.Weekday
		if !it.Observed.IsZero() {
			hour, weekday = it.Observed.Hour(), int(it.Observed.Weekday())
		}
		ctxs[i] = core.StringContext{
			ADX: it.ADX, City: it.City, OS: it.OS, Device: it.Device,
			Origin: it.Origin, Slot: it.Slot, IAB: it.IAB, Hour: hour, Weekday: weekday,
		}
	}
	backing := make([]float64, len(items)*dim)
	rows := make([][]float64, len(items))
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim]
	}

	n, start := 0, time.Now()
	for time.Since(start) < replayBudget {
		for i := range ctxs {
			model.Features.EncodeStringsInto(rows[i], ctxs[i])
		}
		n += len(ctxs)
	}
	m.set("core.encode_us_per_item", us(time.Since(start))/float64(n))

	const chunk = 256
	ff := model.FlatForest()
	cls := make([]int, chunk)
	n, start = 0, time.Now()
	for time.Since(start) < replayBudget {
		for base := 0; base < len(rows); base += chunk {
			k := min(chunk, len(rows)-base)
			ff.PredictInto(cls[:k], rows[base:base+k])
		}
		n += len(rows)
	}
	m.set("mlkit.walk_us_per_item", us(time.Since(start))/float64(n))
	m.set("mlkit.model_nodes", float64(ff.NodeCount()))
}

// addSetup records the bootstrap stages and returns how far their sum
// lands from setup_s, as a share of setup_s.
func (m metrics) addSetup(s stages) float64 {
	m.set("setup.generate_trace_s", secs(s.generate))
	m.set("setup.analyze_s", secs(s.analyze))
	m.set("setup.run_campaigns_s", secs(s.campaigns))
	m.set("setup.train_model_s", secs(s.train))
	m.set("setup.publish_ms", ms(s.publish))
	sum := s.generate + s.analyze + s.campaigns + s.train
	return math.Abs(float64(s.total-sum)) / float64(s.total)
}

// addRuntime records Go runtime costs per item of work from d, the
// growth of the runtime counters over the phases that did the items.
func (m metrics) addRuntime(d rtSample, items int64) {
	if items <= 0 {
		return
	}
	m.set("runtime.alloc_bytes_per_item", d.allocBytes/float64(items))
	m.set("runtime.gc_per_kitem", d.gcCycles/(float64(items)/1000))
	if d.totalCPU > 0 {
		m.set("runtime.gc_cpu_frac", d.gcCPU/d.totalCPU)
	}
}

// gap is one reconciliation check of a traced run: how far, as a share
// of the whole, the per-layer parts sum away from the whole they split.
type gap struct {
	metric, what string
	frac         float64
}

// reconcile records each check under its metric and counts it as an
// operation, a failed one when its gap exceeds reconcileLimit.
func (r *result) reconcile(m metrics, gaps ...gap) {
	for _, g := range gaps {
		m.set(g.metric, g.frac)
		r.Attempted++
		verdict := "ok"
		if !(g.frac <= reconcileLimit) {
			r.Failed++
			verdict = "MISMATCH"
		}
		logf("reconcile: %s off by %.1f%%, limit %.0f%%: %s", g.what, 100*g.frac, 100*reconcileLimit, verdict)
	}
}
