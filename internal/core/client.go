package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/detect"
	"yourandvalue/internal/iab"
	"yourandvalue/internal/nurl"
	"yourandvalue/internal/weblog"
)

// PriceEvent is one detected charge price, observed or estimated — what
// the extension surfaces in its toolbar notifications (§3.3).
type PriceEvent struct {
	Time      time.Time
	ADX       string
	DSP       string
	CPM       float64
	Encrypted bool // true means CPM is a model estimate
}

// Totals is the running Vu(T) = Cu(T) + Eu(T) decomposition of §3.1.
type Totals struct {
	CleartextCPM float64 // Cu(T)
	EncryptedCPM float64 // Eu(T), model-estimated
	// CleartextCorrectedCPM applies the model's time-shift coefficient to
	// Cu so 2015 observations compare against campaign-era estimates
	// (§6.2's "time corr." series in Figure 17).
	CleartextCorrectedCPM float64
	CleartextCount        int
	EncryptedCount        int
}

// TotalCPM returns Vu(T) without time correction.
func (t Totals) TotalCPM() float64 { return t.CleartextCPM + t.EncryptedCPM }

// TotalCorrectedCPM returns Vu(T) with the cleartext time correction.
func (t Totals) TotalCorrectedCPM() float64 {
	return t.CleartextCorrectedCPM + t.EncryptedCPM
}

// Client is the YourAdValue user-side engine: it watches its user's
// request stream through the same detection step the analyzer folds
// (detect.Engine), tallies cleartext prices directly, and estimates
// encrypted ones locally with the PME model — no browsing data leaves
// the device (§3.3). Build one with NewClient.
type Client struct {
	model  *Model
	eng    *detect.Engine
	totals Totals
	events []PriceEvent
	vec    []float64 // reused encode scratch for estimates
}

// NewClient builds a client around a trained model. dir may be nil.
func NewClient(model *Model, dir *iab.Directory) *Client {
	c := &Client{model: model, eng: detect.NewEngine(detect.Config{Directory: dir})}
	if model != nil {
		c.vec = make([]float64, model.Features.Dim())
	}
	return c
}

// Process inspects one request from the user's own traffic. It returns
// the resulting price event when the request was a price notification.
func (c *Client) Process(r weblog.Request) (PriceEvent, bool) {
	em := c.eng.Step(r.Detect())
	if !em.Detected {
		return PriceEvent{}, false
	}
	imp := em.Impression
	n := imp.Notification
	// The event history outlives the request: clone the DSP so the
	// retained event does not pin the whole notification URL the parsed
	// fields alias (ADX is a registry literal, never a URL substring).
	ev := PriceEvent{Time: r.Time, ADX: n.ADX, DSP: strings.Clone(n.DSP)}
	switch n.Kind {
	case nurl.Cleartext:
		ev.CPM = n.PriceCPM
		c.totals.CleartextCPM += n.PriceCPM
		c.totals.CleartextCorrectedCPM += n.PriceCPM * c.timeShift()
		c.totals.CleartextCount++
	case nurl.Encrypted:
		ev.Encrypted = true
		if c.model != nil {
			c.model.Features.EncodeImpressionInto(c.vec, imp)
			ev.CPM = c.model.EstimateCPM(c.vec)
		}
		c.totals.EncryptedCPM += ev.CPM
		c.totals.EncryptedCount++
	default:
		return PriceEvent{}, false
	}
	c.events = append(c.events, ev)
	return ev, true
}

func (c *Client) timeShift() float64 {
	if c.model == nil || c.model.TimeShift <= 0 {
		return 1
	}
	return c.model.TimeShift
}

// Totals returns the running cost decomposition.
func (c *Client) Totals() Totals { return c.totals }

// Events returns the individual charge-price history the extension shows
// "upon request" (§3.3).
func (c *Client) Events() []PriceEvent { return c.events }

// UserCost is the batch per-user decomposition used to regenerate the
// §6.2 figures over a whole analyzed dataset.
type UserCost struct {
	UserID         int
	CleartextCPM   float64
	EncryptedCPM   float64
	CleartextCount int
	EncryptedCount int
}

// TotalCPM returns the user's Vu.
func (u UserCost) TotalCPM() float64 { return u.CleartextCPM + u.EncryptedCPM }

// AvgCleartextCPM returns the user's mean cleartext price per impression.
func (u UserCost) AvgCleartextCPM() float64 {
	if u.CleartextCount == 0 {
		return 0
	}
	return u.CleartextCPM / float64(u.CleartextCount)
}

// AvgEncryptedCPM returns the user's mean estimated encrypted price.
func (u UserCost) AvgEncryptedCPM() float64 {
	if u.EncryptedCount == 0 {
		return 0
	}
	return u.EncryptedCPM / float64(u.EncryptedCount)
}

// BatchEstimate applies the model across an analyzed weblog, producing
// every user's cost decomposition (the input to Figures 17, 18 and 19).
func BatchEstimate(res *analyzer.Result, model *Model) map[int]*UserCost {
	out, _ := BatchEstimateContext(context.Background(), res, model, 1)
	return out
}

// batchEstimator is one worker's reusable estimate scratch: encrypted
// impressions are encoded into a fixed row matrix and estimated
// EstimateChunk at a time through Model.EstimateRowsInto. Accumulation
// happens in stream order at each flush, so totals are bit-identical to
// the impression-at-a-time path. Not safe for concurrent use — each
// worker owns one.
type batchEstimator struct {
	model *Model
	rows  [][]float64
	cls   []int
	cpms  []float64
	n     int // pending rows
}

// newBatchEstimator builds one worker's scratch (nil for a nil model,
// which never estimates).
func newBatchEstimator(model *Model) *batchEstimator {
	if model == nil {
		return nil
	}
	dim := model.Features.Dim()
	backing := make([]float64, EstimateChunk*dim)
	be := &batchEstimator{
		model: model,
		rows:  make([][]float64, EstimateChunk),
		cls:   make([]int, EstimateChunk),
		cpms:  make([]float64, EstimateChunk),
	}
	for i := range be.rows {
		be.rows[i] = backing[i*dim : (i+1)*dim]
	}
	return be
}

// add encodes one encrypted impression into the next pending row,
// flushing into uc when the chunk fills.
func (be *batchEstimator) add(imp analyzer.Impression, uc *UserCost) {
	be.model.Features.EncodeImpressionInto(be.rows[be.n], imp)
	be.n++
	if be.n == len(be.rows) {
		be.flush(uc)
	}
}

// flush classifies the pending rows in one batch and accumulates their
// representative CPMs into uc, preserving stream order.
func (be *batchEstimator) flush(uc *UserCost) {
	if be.n == 0 {
		return
	}
	be.model.EstimateRowsInto(be.cpms, be.cls, be.rows[:be.n])
	for _, cpm := range be.cpms[:be.n] {
		uc.EncryptedCPM += cpm
	}
	be.n = 0
}

// estimateUser accumulates one user's impressions (given by index into
// res.Impressions, in stream order) into uc. be is the worker's reused
// batch scratch, so the per-impression loop allocates nothing and the
// forest walks chunk-at-a-time.
func estimateUser(res *analyzer.Result, model *Model, uc *UserCost, idxs []int, be *batchEstimator) {
	for _, i := range idxs {
		imp := res.Impressions[i]
		switch imp.Notification.Kind {
		case nurl.Cleartext:
			uc.CleartextCPM += imp.Notification.PriceCPM
			uc.CleartextCount++
		case nurl.Encrypted:
			if be != nil {
				be.add(imp, uc)
			}
			uc.EncryptedCount++
		}
	}
	if be != nil {
		be.flush(uc)
	}
}

// BatchEstimateContext is BatchEstimate with cancellation and sharding:
// per-user estimation fans out across min(workers, GOMAXPROCS) goroutines.
// Impressions are pre-grouped per user in stream order and each user is
// owned by exactly one worker, so the result is bit-identical to the
// sequential path for any worker count. Returns ctx.Err() when cancelled.
func BatchEstimateContext(ctx context.Context, res *analyzer.Result, model *Model, workers int) (map[int]*UserCost, error) {
	if limit := runtime.GOMAXPROCS(0); workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}

	out := make(map[int]*UserCost, len(res.Users))
	for id := range res.Users {
		out[id] = &UserCost{UserID: id}
	}
	byUser := make(map[int][]int, len(res.Users))
	for i, imp := range res.Impressions {
		if out[imp.UserID] == nil {
			out[imp.UserID] = &UserCost{UserID: imp.UserID}
		}
		byUser[imp.UserID] = append(byUser[imp.UserID], i)
	}
	ids := make([]int, 0, len(byUser))
	for id := range byUser {
		ids = append(ids, id)
	}

	if workers == 1 || len(ids) < 2 {
		be := newBatchEstimator(model)
		for n, id := range ids {
			if n%64 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			estimateUser(res, model, out[id], byUser[id], be)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}

	// The map itself is read-only from here on; workers mutate disjoint
	// *UserCost values, claiming users off a shared cursor.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			be := newBatchEstimator(model)
			for {
				n := int(cursor.Add(1)) - 1
				if n >= len(ids) {
					return
				}
				if n%64 == 0 && ctx.Err() != nil {
					return
				}
				id := ids[n]
				estimateUser(res, model, out[id], byUser[id], be)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateImpression returns the model's estimate for a single analyzed
// impression (cleartext pass through unchanged).
func EstimateImpression(model *Model, imp analyzer.Impression) float64 {
	if imp.Notification.Kind == nurl.Cleartext {
		return imp.Notification.PriceCPM
	}
	if model == nil {
		return 0
	}
	return model.EstimateCPM(model.Features.FromImpression(imp))
}
