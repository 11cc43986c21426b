package store_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yourandvalue/internal/store"
	"yourandvalue/internal/store/memstore"
	"yourandvalue/internal/store/redistest"
)

// backends enumerates every store implementation; each conformance test
// runs against all of them so the two backends cannot drift apart.
func backends(t *testing.T) map[string]func(t *testing.T) store.Store {
	t.Helper()
	return map[string]func(t *testing.T) store.Store{
		"mem": func(t *testing.T) store.Store { return memstore.New() },
		"redis": func(t *testing.T) store.Store {
			srv, err := redistest.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatalf("redistest.Serve: %v", err)
			}
			t.Cleanup(srv.Close)
			st, err := store.Open(srv.URL())
			if err != nil {
				t.Fatalf("store.Open(%q): %v", srv.URL(), err)
			}
			return st
		},
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, st store.Store)) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			t.Cleanup(func() { _ = st.Close() })
			fn(t, st)
		})
	}
}

func rec(v int) store.ModelRecord {
	return store.ModelRecord{
		Version:     v,
		ETag:        fmt.Sprintf("\"etag-%d\"", v),
		Blob:        []byte{'Y', 'A', 'V', 'M', 0x00, 0xff, byte(v)},
		PublishedAt: time.Unix(1700000000, 0).UTC().Add(time.Duration(v) * time.Second),
		TrainSize:   v * 10,
	}
}

func TestConformanceModelLineage(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()

		if _, err := st.LoadModel(ctx); !errors.Is(err, store.ErrNoModel) {
			t.Fatalf("LoadModel on empty store: err = %v, want ErrNoModel", err)
		}
		if _, _, err := st.LatestVersion(ctx); !errors.Is(err, store.ErrNoModel) {
			t.Fatalf("LatestVersion on empty store: err = %v, want ErrNoModel", err)
		}

		v1, err := st.NextVersion(ctx)
		if err != nil || v1 != 1 {
			t.Fatalf("NextVersion = %d, %v; want 1, nil", v1, err)
		}
		if err := st.PublishModel(ctx, rec(v1), nil); err != nil {
			t.Fatalf("PublishModel(v1): %v", err)
		}

		got, err := st.LoadModel(ctx)
		if err != nil {
			t.Fatalf("LoadModel: %v", err)
		}
		want := rec(v1)
		if got.Version != want.Version || got.ETag != want.ETag ||
			string(got.Blob) != string(want.Blob) ||
			!got.PublishedAt.Equal(want.PublishedAt) || got.TrainSize != want.TrainSize {
			t.Fatalf("LoadModel round trip mismatch: got %+v want %+v", got, want)
		}

		v, etag, err := st.LatestVersion(ctx)
		if err != nil || v != v1 || etag != want.ETag {
			t.Fatalf("LatestVersion = %d, %q, %v; want %d, %q, nil", v, etag, err, v1, want.ETag)
		}

		// Stale publishes must not move the pointer.
		if err := st.PublishModel(ctx, rec(v1), nil); !errors.Is(err, store.ErrStalePublish) {
			t.Fatalf("same-version publish: err = %v, want ErrStalePublish", err)
		}
		v2, err := st.NextVersion(ctx)
		if err != nil || v2 != v1+1 {
			t.Fatalf("NextVersion = %d, %v; want %d, nil", v2, err, v1+1)
		}
		if err := st.PublishModel(ctx, rec(v2), nil); err != nil {
			t.Fatalf("PublishModel(v2): %v", err)
		}
		if err := st.PublishModel(ctx, rec(v1), nil); !errors.Is(err, store.ErrStalePublish) {
			t.Fatalf("older publish: err = %v, want ErrStalePublish", err)
		}
		if v, _, _ := st.LatestVersion(ctx); v != v2 {
			t.Fatalf("latest after stale attempts = %d, want %d", v, v2)
		}
	})
}

func TestConformanceVersionSeeding(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		// Publishing an explicitly versioned record (a bootstrap model
		// carrying its own version) must advance the allocator past it.
		if err := st.PublishModel(ctx, rec(41), nil); err != nil {
			t.Fatalf("PublishModel(41): %v", err)
		}
		v, err := st.NextVersion(ctx)
		if err != nil || v != 42 {
			t.Fatalf("NextVersion after seeded publish = %d, %v; want 42, nil", v, err)
		}
	})
}

func TestConformancePool(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		entries := []store.PoolEntry{
			{Payload: []byte(`{"p":1}`), Trainable: true},
			{Payload: []byte(`{"p":2}`), Trainable: false},
			{Payload: []byte(`{"p":3}`), Trainable: true},
		}
		acc, drop, err := st.AppendPool(ctx, entries, 0)
		if err != nil || acc != 3 || drop != 0 {
			t.Fatalf("AppendPool = %d, %d, %v; want 3, 0, nil", acc, drop, err)
		}
		n, trainable, err := st.PoolLen(ctx)
		if err != nil || n != 3 || trainable != 2 {
			t.Fatalf("PoolLen = %d, %d, %v; want 3, 2, nil", n, trainable, err)
		}

		// Bound enforcement: room for one more.
		acc, drop, err = st.AppendPool(ctx, entries[:2], 4)
		if err != nil || acc != 1 || drop != 1 {
			t.Fatalf("bounded AppendPool = %d, %d, %v; want 1, 1, nil", acc, drop, err)
		}

		peeked, err := st.PeekPool(ctx)
		if err != nil || len(peeked) != 4 {
			t.Fatalf("PeekPool = %d entries, %v; want 4, nil", len(peeked), err)
		}
		if n, _, _ := st.PoolLen(ctx); n != 4 {
			t.Fatalf("PoolLen after peek = %d, want 4 (peek must not consume)", n)
		}

		drained, err := st.DrainPool(ctx)
		if err != nil || len(drained) != 4 {
			t.Fatalf("DrainPool = %d entries, %v; want 4, nil", len(drained), err)
		}
		if string(drained[0].Payload) != `{"p":1}` || !drained[0].Trainable {
			t.Fatalf("drain order/flags wrong: first = %q trainable=%v", drained[0].Payload, drained[0].Trainable)
		}
		if n, trainable, _ := st.PoolLen(ctx); n != 0 || trainable != 0 {
			t.Fatalf("PoolLen after drain = %d, %d; want 0, 0", n, trainable)
		}

		// Restore puts entries back at the front in original order.
		if err := st.RestorePool(ctx, drained[:2]); err != nil {
			t.Fatalf("RestorePool: %v", err)
		}
		back, err := st.PeekPool(ctx)
		if err != nil || len(back) != 2 {
			t.Fatalf("PeekPool after restore = %d, %v; want 2, nil", len(back), err)
		}
		if string(back[0].Payload) != `{"p":1}` || string(back[1].Payload) != `{"p":2}` {
			t.Fatalf("restore order wrong: %q, %q", back[0].Payload, back[1].Payload)
		}
		if _, trainable, _ := st.PoolLen(ctx); trainable != 1 {
			t.Fatalf("trainable after restore = %d, want 1", trainable)
		}
	})
}

func TestConformanceLease(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		ttl := 200 * time.Millisecond

		ok, err := st.AcquireLease(ctx, "retrain", "a", ttl)
		if err != nil || !ok {
			t.Fatalf("first acquire = %v, %v; want true, nil", ok, err)
		}
		// Re-acquire by the same owner succeeds (refresh).
		ok, err = st.AcquireLease(ctx, "retrain", "a", ttl)
		if err != nil || !ok {
			t.Fatalf("same-owner re-acquire = %v, %v; want true, nil", ok, err)
		}
		// A competitor is refused while the lease is live.
		ok, err = st.AcquireLease(ctx, "retrain", "b", ttl)
		if err != nil || ok {
			t.Fatalf("competitor acquire = %v, %v; want false, nil", ok, err)
		}
		if h, _ := st.LeaseHolder(ctx, "retrain"); h != "a" {
			t.Fatalf("LeaseHolder = %q, want \"a\"", h)
		}
		// Renewal by the holder extends; renewal by a non-holder fails.
		if ok, err := st.RenewLease(ctx, "retrain", "a", ttl); err != nil || !ok {
			t.Fatalf("holder renew = %v, %v; want true, nil", ok, err)
		}
		if ok, err := st.RenewLease(ctx, "retrain", "b", ttl); err != nil || ok {
			t.Fatalf("non-holder renew = %v, %v; want false, nil", ok, err)
		}
		// A fenced publish succeeds for the holder, bounces for others.
		if err := st.PublishModel(ctx, rec(1), &store.Fence{Lease: "retrain", Owner: "a"}); err != nil {
			t.Fatalf("fenced publish by holder: %v", err)
		}
		if err := st.PublishModel(ctx, rec(2), &store.Fence{Lease: "retrain", Owner: "b"}); !errors.Is(err, store.ErrLeaseLost) {
			t.Fatalf("fenced publish by non-holder: err = %v, want ErrLeaseLost", err)
		}
		// Release frees it for the competitor; releasing someone else's
		// lease is a no-op.
		if err := st.ReleaseLease(ctx, "retrain", "b"); err != nil {
			t.Fatalf("non-holder release: %v", err)
		}
		if h, _ := st.LeaseHolder(ctx, "retrain"); h != "a" {
			t.Fatalf("lease gone after non-holder release: holder = %q", h)
		}
		if err := st.ReleaseLease(ctx, "retrain", "a"); err != nil {
			t.Fatalf("holder release: %v", err)
		}
		if ok, err := st.AcquireLease(ctx, "retrain", "b", ttl); err != nil || !ok {
			t.Fatalf("acquire after release = %v, %v; want true, nil", ok, err)
		}
	})
}

func TestConformanceLeaseExpiry(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		ttl := 60 * time.Millisecond
		if ok, _ := st.AcquireLease(ctx, "retrain", "a", ttl); !ok {
			t.Fatal("initial acquire failed")
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			ok, err := st.AcquireLease(ctx, "retrain", "b", ttl)
			if err != nil {
				t.Fatalf("acquire during expiry wait: %v", err)
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("lease never expired")
			}
			time.Sleep(10 * time.Millisecond)
		}
		// The expired owner's renewal must fail.
		if ok, err := st.RenewLease(ctx, "retrain", "a", ttl); err != nil || ok {
			t.Fatalf("expired owner renew = %v, %v; want false, nil", ok, err)
		}
	})
}

func TestConformanceSwapNotices(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		sub, err := st.SubscribeSwaps(ctx)
		if err != nil {
			t.Fatalf("SubscribeSwaps: %v", err)
		}
		defer sub.Close()
		// Networked backends establish the feed asynchronously; publish
		// until a notice arrives, then verify monotonic delivery.
		var first store.SwapNotice
		v := 0
		deadline := time.Now().Add(5 * time.Second)
	waitFirst:
		for {
			v++
			if err := st.PublishModel(ctx, rec(v), nil); err != nil {
				t.Fatalf("PublishModel(%d): %v", v, err)
			}
			select {
			case n, ok := <-sub.C():
				if !ok {
					t.Fatal("subscription closed early")
				}
				first = n
				break waitFirst
			case <-time.After(50 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatal("no swap notice arrived")
				}
			}
		}
		if first.Version < 1 || first.Version > v || first.ETag == "" {
			t.Fatalf("bad first notice: %+v", first)
		}
		// One more publish must be observed with a newer version.
		v++
		if err := st.PublishModel(ctx, rec(v), nil); err != nil {
			t.Fatalf("PublishModel(%d): %v", v, err)
		}
		select {
		case n := <-sub.C():
			if n.Version <= first.Version {
				t.Fatalf("notice version regressed: %d after %d", n.Version, first.Version)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("second swap notice never arrived")
		}
	})
}

func TestConformanceClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		sub, err := st.SubscribeSwaps(ctx)
		if err != nil {
			t.Fatalf("SubscribeSwaps: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		select {
		case _, ok := <-sub.C():
			if ok {
				// Drained a buffered notice; channel must still close.
				for range sub.C() {
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatal("subscription channel not closed after store Close")
		}
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

func TestConformanceContextCancellation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := st.LoadModel(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("LoadModel with cancelled ctx: err = %v, want context.Canceled", err)
		}
		if store.IsTransient(context.Canceled) {
			t.Fatal("context.Canceled must not be transient")
		}
	})
}

// TestConformanceDeposedPublisherLoses pins the publish fence: a
// publisher that lost its lease mid-retrain must not be able to land
// its (now stale) model, no matter which check it reaches first.
func TestConformanceDeposedPublisherLoses(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		if ok, err := st.AcquireLease(ctx, "retrain", "A", time.Minute); err != nil || !ok {
			t.Fatalf("A AcquireLease = %v, %v", ok, err)
		}
		vA, err := st.NextVersion(ctx)
		if err != nil {
			t.Fatal(err)
		}

		// A stalls; B deposes it and publishes a newer model.
		if err := st.ReleaseLease(ctx, "retrain", "A"); err != nil {
			t.Fatal(err)
		}
		if ok, err := st.AcquireLease(ctx, "retrain", "B", time.Minute); err != nil || !ok {
			t.Fatalf("B AcquireLease = %v, %v", ok, err)
		}
		vB, err := st.NextVersion(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PublishModel(ctx, rec(vB), &store.Fence{Lease: "retrain", Owner: "B"}); err != nil {
			t.Fatalf("B publish: %v", err)
		}

		// A wakes up and tries to publish its stale version.
		err = st.PublishModel(ctx, rec(vA), &store.Fence{Lease: "retrain", Owner: "A"})
		if !errors.Is(err, store.ErrLeaseLost) {
			t.Fatalf("deposed fenced publish: err = %v, want ErrLeaseLost", err)
		}
		// Even without the fence the version check must reject it.
		if err := st.PublishModel(ctx, rec(vA), nil); !errors.Is(err, store.ErrStalePublish) {
			t.Fatalf("deposed unfenced publish: err = %v, want ErrStalePublish", err)
		}
		if v, _, _ := st.LatestVersion(ctx); v != vB {
			t.Fatalf("latest = %d, want B's %d", v, vB)
		}
	})
}

// TestConformanceConcurrentPublish hammers PublishModel from many
// goroutines with interleaved versions: whatever the interleaving, the
// pointer must end at the maximum version and losers must see
// ErrStalePublish — never a silent overwrite by a lower version.
func TestConformanceConcurrentPublish(t *testing.T) {
	forEachBackend(t, func(t *testing.T, st store.Store) {
		ctx := context.Background()
		const K = 8
		versions := make([]int, K)
		for i := range versions {
			v, err := st.NextVersion(ctx)
			if err != nil {
				t.Fatal(err)
			}
			versions[i] = v
		}
		maxV := versions[K-1]

		var wg sync.WaitGroup
		errCh := make(chan error, K*2)
		for _, v := range versions {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				// Each publisher tries twice, so lower versions keep arriving
				// after higher ones have landed.
				for range 2 {
					if err := st.PublishModel(ctx, rec(v), nil); err != nil && !errors.Is(err, store.ErrStalePublish) {
						errCh <- fmt.Errorf("publish v%d: %v", v, err)
						return
					}
				}
			}(v)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		v, _, err := st.LatestVersion(ctx)
		if err != nil || v != maxV {
			t.Fatalf("latest after race = %d, %v; want %d", v, err, maxV)
		}
		got, err := st.LoadModel(ctx)
		if err != nil || got.Version != maxV {
			t.Fatalf("current record = %+v, %v; want version %d", got, err, maxV)
		}
	})
}
