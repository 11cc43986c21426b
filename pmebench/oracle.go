package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"

	"yourandvalue/internal/core"
	"yourandvalue/internal/pme"
)

// oracle knows every model version the run published and checks replies
// bit for bit against the direct in-process EstimateSession.EstimateInto
// estimate of the same items at the version the reply names.
type oracle struct {
	mu    sync.Mutex
	snaps map[int]*pme.Snapshot
	sess  map[int]*pme.EstimateSession
	want  map[oracleKey][]float64
}

type oracleKey struct {
	version int
	req     *request
}

func newOracle() *oracle {
	return &oracle{
		snaps: make(map[int]*pme.Snapshot),
		sess:  make(map[int]*pme.EstimateSession),
		want:  make(map[oracleKey][]float64),
	}
}

// add records a published snapshot.
func (o *oracle) add(snap *pme.Snapshot) {
	o.mu.Lock()
	o.snaps[snap.Version] = snap
	o.mu.Unlock()
}

// expected returns the oracle's estimates of req's items at version,
// computing and caching them on first use.
func (o *oracle) expected(version int, req *request) ([]float64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := oracleKey{version, req}
	if w, ok := o.want[key]; ok {
		return w, nil
	}
	sess, ok := o.sess[version]
	if !ok {
		snap, known := o.snaps[version]
		if !known {
			return nil, fmt.Errorf("reply names model version %d, which the run never published", version)
		}
		// A registry holding only this snapshot pins a session to it.
		reg := pme.NewRegistry()
		reg.Adopt(snap)
		var err error
		if sess, err = pme.NewCore(reg, nil).OpenEstimateSession(context.Background()); err != nil {
			return nil, err
		}
		o.sess[version] = sess
	}
	w := make([]float64, len(req.items))
	sess.EstimateInto(w, req.items)
	o.want[key] = w
	return w, nil
}

// retire forgets every version older than the newest one published.
// A phase calls it once all its replies are checked: versions only move
// forward, so every later reply names the newest version or a later one,
// and the snapshots a run publishes need not stay alive in the oracle
// and count toward the run's peak RSS.
func (o *oracle) retire() {
	o.mu.Lock()
	defer o.mu.Unlock()
	newest := 0
	for v := range o.snaps {
		newest = max(newest, v)
	}
	for v := range o.snaps {
		if v < newest {
			delete(o.snaps, v)
			delete(o.sess, v)
		}
	}
	for k := range o.want {
		if k.version < newest {
			delete(o.want, k)
		}
	}
}

// prepare computes the expectations of every request at version ahead of
// timing.
func (o *oracle) prepare(version int, reqs []*request) error {
	for _, r := range reqs {
		if _, err := o.expected(version, r); err != nil {
			return err
		}
	}
	return nil
}

// known returns the expectation of req at version if it is already
// computed; the serving loops use it so no estimate is computed on the
// clock.
func (o *oracle) known(version int, req *request) ([]float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	w, ok := o.want[oracleKey{version, req}]
	return w, ok
}

// check compares got with the expectation of req at version.
func (o *oracle) check(version int, req *request, got []float64) error {
	want, err := o.expected(version, req)
	if err != nil {
		return err
	}
	return sameBits(got, want)
}

// checkModel verifies a 200 reply of GET /v2/model: the body must be the
// exact blob of the published snapshot with that ETag.
func (o *oracle) checkModel(etag string, body []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.snaps {
		if s.ETag == etag {
			if !bytes.Equal(body, s.Blob) {
				return fmt.Errorf("/v2/model body for ETag %s differs from the published blob of version %d", etag, s.Version)
			}
			return nil
		}
	}
	return fmt.Errorf("/v2/model answered ETag %s, which the run never published", etag)
}

// sameBits reports the first estimate of got that differs from want in
// any bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("estimate %d is %v, oracle says %v", i, got[i], want[i])
		}
	}
	return nil
}

// sameCosts compares a multi-worker tally with the single-worker one,
// field by field and bit for bit.
func sameCosts(got, want map[int]*core.UserCost) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d users tallied, single-worker tally has %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return fmt.Errorf("user %d missing from the tally", id)
		}
		if g.CleartextCount != w.CleartextCount || g.EncryptedCount != w.EncryptedCount ||
			math.Float64bits(g.CleartextCPM) != math.Float64bits(w.CleartextCPM) ||
			math.Float64bits(g.EncryptedCPM) != math.Float64bits(w.EncryptedCPM) {
			return fmt.Errorf("user %d: tally %+v, single-worker tally %+v", id, *g, *w)
		}
	}
	return nil
}
