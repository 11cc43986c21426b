package stream

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/analyzer"
	"yourandvalue/internal/campaign"
	"yourandvalue/internal/core"
	"yourandvalue/internal/rtb"
	"yourandvalue/internal/weblog"
)

// Shared fixtures: a small campaign-trained model and a reduced trace,
// built once per package run.
var (
	fixOnce  sync.Once
	fixModel *core.Model
	fixTrace *weblog.Trace
	fixRes   *analyzer.Result
	fixErr   error
)

// traceConfig is the trace both the batch and streaming paths consume.
func traceConfig() weblog.Config {
	cfg := weblog.DefaultConfig().Scaled(0.02)
	cfg.Seed = 11
	return cfg
}

func fixtures(tb testing.TB) (*core.Model, *weblog.Trace, *analyzer.Result) {
	tb.Helper()
	fixOnce.Do(func() {
		eco := rtb.NewEcosystem(rtb.EcosystemConfig{Seed: 5})
		cat := weblog.NewCatalog(60, 30)
		cfg := campaign.A1Config(cat, 25, 9)
		cfg.Setups = cfg.Setups[:36]
		rep, err := campaign.NewEngine(eco).Run(cfg)
		if err != nil {
			fixErr = err
			return
		}
		pme := core.NewPME(3)
		pme.ForestSize = 10
		pme.CVFolds, pme.CVRuns = 5, 1
		fixModel, fixErr = pme.Train(rep.Records, core.TrainConfig{})
		if fixErr != nil {
			return
		}
		fixTrace = weblog.Generate(traceConfig())
		fixRes = analyzer.New(fixTrace.Catalog.Directory()).Analyze(fixTrace.Requests)
	})
	if fixErr != nil {
		tb.Fatal(fixErr)
	}
	return fixModel, fixTrace, fixRes
}

// TestAggregatorMatchesBatchEstimate: streamed per-user costs must be
// bit-identical to core.BatchEstimateContext for the same trace and
// model, for both source kinds and at every shard count.
func TestAggregatorMatchesBatchEstimate(t *testing.T) {
	model, trace, res := fixtures(t)
	ctx := context.Background()
	batch, err := core.BatchEstimateContext(ctx, res, model, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 8} {
		// Replay of the materialized trace.
		replay, err := NewReplaySource(trace)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregator(model, trace.Catalog.Directory(),
			WithShards(shards), WithEventBuffer(64), WithSnapshotEvery(5000))
		got, err := agg.Run(ctx, replay)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Costs, batch) {
			t.Fatalf("replay-streamed costs (shards=%d) differ from batch", shards)
		}

		// On-the-fly generation: no materialized trace at all.
		gen := NewGeneratorSource(traceConfig())
		agg = NewAggregator(model, gen.Directory(), WithShards(shards))
		got, err = agg.Run(ctx, gen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Costs, batch) {
			t.Fatalf("generator-streamed costs (shards=%d) differ from batch", shards)
		}
	}
}

// TestAggregatorNegativeUserIDs: a hand-built trace may carry negative
// user IDs. Routing must keep them on a shard in range, and the streamed
// costs must still match the batch tally at every shard count.
func TestAggregatorNegativeUserIDs(t *testing.T) {
	model, trace, _ := fixtures(t)
	ctx := context.Background()
	neg := *trace
	neg.Requests = append([]weblog.Request(nil), trace.Requests...)
	neg.Users = append([]weblog.User(nil), trace.Users...)
	for i := range neg.Requests {
		neg.Requests[i].UserID = -1 - neg.Requests[i].UserID
	}
	for i := range neg.Users {
		neg.Users[i].ID = -1 - neg.Users[i].ID
	}
	batch, err := core.BatchEstimateContext(ctx, analyzer.New(neg.Catalog.Directory()).Analyze(neg.Requests), model, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		replay, err := NewReplaySource(&neg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewAggregator(model, neg.Catalog.Directory(), WithShards(shards)).Run(ctx, replay)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Costs, batch) {
			t.Fatalf("negative-ID costs (shards=%d) differ from batch", shards)
		}
	}
}

// TestAggregatorFinalSnapshot: the end-of-stream snapshot must agree
// with the accumulators and carry ranked top-K summaries.
func TestAggregatorFinalSnapshot(t *testing.T) {
	model, trace, _ := fixtures(t)
	replay, err := NewReplaySource(trace)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(model, trace.Catalog.Directory(), WithShards(4), WithTopK(5))
	got, err := agg.Run(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	snap := got.Final
	if snap == nil {
		t.Fatal("no final snapshot")
	}
	if snap != agg.Latest() {
		t.Error("Latest should return the final snapshot after Run")
	}
	wantEvents := int64(len(trace.Requests) + len(trace.Users))
	if snap.Events != wantEvents {
		t.Errorf("snapshot events = %d, want %d", snap.Events, wantEvents)
	}
	if snap.Users != len(got.Costs) {
		t.Errorf("snapshot users = %d, costs map has %d", snap.Users, len(got.Costs))
	}
	if len(snap.TopUsers) == 0 || len(snap.TopAdvertisers) == 0 {
		t.Fatal("snapshot missing top-K summaries")
	}
	if len(snap.TopUsers) > 5 || len(snap.TopAdvertisers) > 5 {
		t.Fatal("top-K longer than K")
	}
	for i := 1; i < len(snap.TopUsers); i++ {
		if snap.TopUsers[i].TotalCPM > snap.TopUsers[i-1].TotalCPM {
			t.Fatal("top users not sorted by total cost")
		}
	}
	// The ranked #1 user must actually be the argmax of the cost map.
	best, bestCPM := -1, -1.0
	for id, uc := range got.Costs {
		if cpm := uc.TotalCPM(); cpm > bestCPM || (cpm == bestCPM && id < best) {
			best, bestCPM = id, cpm
		}
	}
	if snap.TopUsers[0].UserID != best {
		t.Errorf("top user = %d, want %d", snap.TopUsers[0].UserID, best)
	}
	// Snapshot costs are by-value copies of the live accumulators.
	if got.Costs[best].TotalCPM() != snap.Costs[best].TotalCPM() {
		t.Error("snapshot cost copy disagrees with accumulator")
	}
	if snap.String() == "" {
		t.Error("empty snapshot rendering")
	}
}

// TestAggregatorPeriodicSnapshots: barrier snapshots must appear while
// the stream flows, be cut at exact event counts, and stay immutable.
func TestAggregatorPeriodicSnapshots(t *testing.T) {
	model, trace, _ := fixtures(t)
	replay, err := NewReplaySource(trace)
	if err != nil {
		t.Fatal(err)
	}
	const every = 2000
	agg := NewAggregator(model, trace.Catalog.Directory(),
		WithShards(3), WithSnapshotEvery(every))
	got, err := agg.Run(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	wantBarriers := int(got.Events / every)
	if got.Snapshots != wantBarriers+1 {
		t.Errorf("snapshots = %d, want %d barriers + 1 final", got.Snapshots, wantBarriers)
	}

	// Snapshot determinism: runs at different shard counts must cut
	// bit-identical per-user costs and top-K rankings at the same event
	// boundary (here the end of stream).
	finalAt := func(shards int) *Snapshot {
		replay, err := NewReplaySource(trace)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAggregator(model, trace.Catalog.Directory(),
			WithShards(shards), WithSnapshotEvery(every))
		res, err := a.Run(context.Background(), replay)
		if err != nil {
			t.Fatal(err)
		}
		return res.Final
	}
	a, b := finalAt(1), finalAt(7)
	if !reflect.DeepEqual(a.Costs, b.Costs) {
		t.Fatal("snapshot per-user costs differ across shard counts")
	}
	if !reflect.DeepEqual(a.TopUsers, b.TopUsers) {
		t.Fatal("top-K users differ across shard counts")
	}
}

// TestAggregatorCancellation: cancelling mid-stream must abort promptly
// with ctx's error even when the consumer applies backpressure.
func TestAggregatorCancellation(t *testing.T) {
	model, trace, _ := fixtures(t)
	replay, err := NewReplaySource(trace)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	agg := NewAggregator(model, trace.Catalog.Directory(), WithShards(2), WithEventBuffer(4))
	if _, err := agg.Run(ctx, replay); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// And with a deadline that lands mid-stream.
	replay, err = NewReplaySource(trace)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer dcancel()
	agg = NewAggregator(model, trace.Catalog.Directory(), WithShards(2), WithEventBuffer(4), WithSnapshotEvery(100))
	if _, err := agg.Run(dctx, replay); err == nil {
		// The tiny trace can legitimately finish within the deadline on
		// a fast machine; only a wrong error kind is a failure.
		t.Skip("stream finished before the deadline")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestGeneratorSourceBounded: the generator source must deliver the
// whole population through an arbitrarily small channel (backpressure,
// not buffering) and mark each user's boundary.
func TestGeneratorSourceBounded(t *testing.T) {
	src := NewGeneratorSource(traceConfig())
	out := make(chan Event, 1) // minimal buffer: forces backpressure
	done := make(chan error, 1)
	go func() {
		err := src.Run(context.Background(), out)
		close(out)
		done <- err
	}()
	var requests, users int
	seen := make(map[int]bool)
	for ev := range out {
		switch ev.Kind {
		case EventRequest:
			requests++
			if seen[ev.Request.UserID] {
				t.Fatal("request after the user's EventUserDone")
			}
		case EventUserDone:
			users++
			seen[ev.User.ID] = true
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_, trace, _ := fixtures(t)
	if requests != len(trace.Requests) {
		t.Errorf("streamed %d requests, batch trace has %d", requests, len(trace.Requests))
	}
	if users != len(trace.Users) {
		t.Errorf("streamed %d user boundaries, want %d", users, len(trace.Users))
	}
}

// TestReplaySourceValidation: replay refuses traces without a catalog.
func TestReplaySourceValidation(t *testing.T) {
	if _, err := NewReplaySource(nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewReplaySource(&weblog.Trace{}); err == nil {
		t.Error("catalog-less trace accepted")
	}
}
