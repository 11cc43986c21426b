package pme

import (
	"yourandvalue/internal/obs"
)

// Instrument registers the model-lifecycle series for a registry/pool
// pair on an obs registry. Everything is read-through: the owners keep
// their counters, the scrape reads them, and no write path changes.
// Safe to call more than once — registration is idempotent.
//
// Series registered:
//
//	pme_model_version             gauge    serving model version (0 before first publish)
//	pme_model_etag_age_seconds    gauge    seconds since the serving snapshot was published
//	pme_model_publishes_total     counter  lifetime hot-swaps (publishes + rollbacks)
//	pme_model_nodes               gauge    flat-forest node count of the serving model
//	pme_model_blob_bytes{format}  gauge    serving blob size per representation (json|flat)
//	pme_pool_depth                gauge    current pool occupancy
//	pme_pool_trainable            gauge    pooled entries with a usable cleartext label
//	pme_pool_accepted_total       counter  lifetime accepted contributions
//	pme_pool_dropped_total        counter  lifetime at-capacity rejections
//	pme_pool_drained_total        counter  lifetime entries consumed by Drain
func Instrument(r *obs.Registry, reg *Registry, pool PoolBackend) {
	if r == nil {
		return
	}
	if reg != nil {
		r.GaugeFunc("pme_model_version", "Version of the model currently being served (0 before the first publish).", nil,
			func() float64 {
				if snap := reg.Current(); snap != nil {
					return float64(snap.Version)
				}
				return 0
			})
		r.GaugeFunc("pme_model_etag_age_seconds", "Seconds since the serving model snapshot was published.", nil,
			func() float64 {
				if snap := reg.Current(); snap != nil {
					return reg.now().Sub(snap.PublishedAt).Seconds()
				}
				return 0
			})
		r.CounterFunc("pme_model_publishes_total", "Model hot-swaps performed (publishes and rollbacks).", nil,
			func() float64 { return float64(reg.Publishes()) })
		r.GaugeFunc("pme_model_nodes", "Total flat-forest nodes in the serving model (0 before the first publish or when the model has no forest).", nil,
			func() float64 {
				if snap := reg.Current(); snap != nil && snap.Model != nil {
					if ff := snap.Model.FlatForest(); ff != nil {
						return float64(ff.NodeCount())
					}
				}
				return 0
			})
		r.GaugeFunc("pme_model_blob_bytes", "Size of the serving model blob, per distribution format.", obs.Labels{"format": "json"},
			func() float64 {
				if snap := reg.Current(); snap != nil {
					return float64(len(snap.Blob))
				}
				return 0
			})
		r.GaugeFunc("pme_model_blob_bytes", "Size of the serving model blob, per distribution format.", obs.Labels{"format": "flat"},
			func() float64 {
				if snap := reg.Current(); snap != nil {
					return float64(len(snap.FlatBlob))
				}
				return 0
			})
	}
	if pool != nil {
		r.GaugeFunc("pme_pool_depth", "Contributions currently pooled awaiting retrain.", nil,
			func() float64 { return float64(pool.Len()) })
		r.GaugeFunc("pme_pool_trainable", "Pooled contributions with a usable cleartext label.", nil,
			func() float64 { return float64(pool.TrainableLen()) })
		r.CounterFunc("pme_pool_accepted_total", "Contributions accepted into the pool.", nil,
			func() float64 { return float64(pool.Accepted()) })
		r.CounterFunc("pme_pool_dropped_total", "Contributions rejected at the pool capacity bound.", nil,
			func() float64 { return float64(pool.Dropped()) })
		r.CounterFunc("pme_pool_drained_total", "Pooled entries consumed by retrain drains.", nil,
			func() float64 { return float64(pool.Drained()) })
	}
}

// InstrumentRetrainer registers the retrain-loop series on an obs
// registry:
//
//	pme_retrain_attempts_total    counter    attempts that passed the count trigger
//	pme_retrain_success_total     counter    attempts that published a new version
//	pme_retrain_failures_total    counter    attempts whose training errored
//	pme_retrain_duration_seconds  histogram  wall time of training runs
func InstrumentRetrainer(r *obs.Registry, rt *Retrainer) {
	if r == nil || rt == nil {
		return
	}
	r.CounterFunc("pme_retrain_attempts_total", "Retrain attempts that passed the count trigger and drained the pool.", nil,
		func() float64 { return float64(rt.Attempts()) })
	r.CounterFunc("pme_retrain_success_total", "Retrain attempts that published a new model version.", nil,
		func() float64 { return float64(rt.Retrains()) })
	r.CounterFunc("pme_retrain_failures_total", "Retrain attempts whose training run errored.", nil,
		func() float64 { return float64(rt.Failures()) })
	r.HistogramFunc("pme_retrain_duration_seconds", "Wall time of retrain training runs.", nil,
		rt.TrainDurations)
}

// InstrumentReplica registers the fleet-replica series on an obs
// registry:
//
//	pme_store_retries_total       counter    transient store-op retries (model fetch, pool ops, publish)
//	pme_fleet_lease_held          gauge      1 while this replica holds the retrain lease
//	pme_fleet_adoptions_total     counter    remotely published versions adopted locally
//	pme_swap_propagation_seconds  histogram  publish → local registry flip lag for remote publishes
func InstrumentReplica(r *obs.Registry, rep *Replica) {
	if r == nil || rep == nil {
		return
	}
	r.CounterFunc("pme_store_retries_total", "Transient persistence-store operation retries.", nil,
		func() float64 { return float64(rep.Retries()) })
	r.GaugeFunc("pme_fleet_lease_held", "Whether this replica currently holds the fleet retrain lease.", nil,
		func() float64 {
			if rep.LeaseHeld() {
				return 1
			}
			return 0
		})
	r.CounterFunc("pme_fleet_adoptions_total", "Remotely published model versions adopted by this replica.", nil,
		func() float64 { return float64(rep.Adoptions()) })
	r.HistogramFunc("pme_swap_propagation_seconds", "Lag between a fleet publish and this replica's local hot-swap.", nil,
		rep.PropagationDurations)
}
