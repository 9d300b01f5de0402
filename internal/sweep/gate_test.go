package sweep

import (
	"context"
	"sync"
	"testing"
	"time"

	"qla/internal/cache"
)

// TestGateDefersThenAdmits: a point the gate parks re-probes until
// admitted, the deferrals are counted outside the attempt budget, and
// the sweep still completes cleanly.
func TestGateDefersThenAdmits(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	deferrals := map[string]int{}
	r := &Runner{
		Cache:     cache.New(0),
		DeferWait: time.Millisecond,
		Gate: func(_ context.Context, hash string) GateDecision {
			mu.Lock()
			defer mu.Unlock()
			if deferrals[hash] < 2 {
				deferrals[hash]++
				return GateDefer
			}
			return GateProceed
		},
	}
	res, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Total || res.Failed != 0 {
		t.Fatalf("sweep with deferring gate: ok=%d failed=%d of %d", res.OK, res.Failed, res.Total)
	}
	if res.Deferred != 2*res.Total {
		t.Fatalf("deferred = %d, want %d", res.Deferred, 2*res.Total)
	}
	for _, pr := range res.Points {
		if pr.Deferred != 2 {
			t.Fatalf("point %d deferred = %d, want 2", pr.Index, pr.Deferred)
		}
		if pr.Attempts != 1 {
			t.Fatalf("point %d attempts = %d: deferrals must not consume the retry budget", pr.Index, pr.Attempts)
		}
	}
}

// TestGateSkippedForCachedPoints: a stored point needs no lease — the
// gate is never asked for it.
func TestGateSkippedForCachedPoints(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(0)
	warm := &Runner{Cache: c}
	if _, err := warm.Run(context.Background(), sw, nil); err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Cache: c,
		Gate: func(context.Context, string) GateDecision {
			t.Error("gate consulted for a cached point")
			return GateProceed
		},
	}
	res, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != res.Total || res.Deferred != 0 {
		t.Fatalf("cached=%d deferred=%d of %d", res.Cached, res.Deferred, res.Total)
	}
}

// TestAwaitEndsDeferral: a deferred point whose Await hook brings its
// bytes re-probes at once and settles as a cache hit — the hour-long
// DeferWait is never slept — with one deferral and one attempt.
func TestAwaitEndsDeferral(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(0)
	r := &Runner{
		Cache:     c,
		DeferWait: time.Hour,
		Gate: func(context.Context, string) GateDecision {
			return GateDefer // only asked while the point is not stored
		},
		Await: func(ctx context.Context, hash string, wait time.Duration) bool {
			if wait != time.Hour {
				t.Errorf("Await got wait %v, want the DeferWait", wait)
			}
			time.Sleep(10 * time.Millisecond) // the lease holder computing
			_, _, err := c.GetOrCompute(ctx, hash, func() ([]byte, error) {
				return []byte(`{"from":"holder"}`), nil
			})
			return err == nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := r.Run(ctx, sw, nil)
	if err != nil {
		t.Fatalf("run: %v (a deferral slept instead of re-probing)", err)
	}
	if res.OK != res.Total || res.Cached != res.Total || res.Deferred != res.Total {
		t.Fatalf("ok=%d cached=%d deferred=%d of %d", res.OK, res.Cached, res.Deferred, res.Total)
	}
	for _, pr := range res.Points {
		if pr.Deferred != 1 || !pr.Cached || pr.Attempts != 1 {
			t.Fatalf("point %d: deferred=%d cached=%v attempts=%d, want 1, true, 1",
				pr.Index, pr.Deferred, pr.Cached, pr.Attempts)
		}
		if string(pr.Result) != `{"from":"holder"}` {
			t.Fatalf("point %d settled %s, not the awaited bytes", pr.Index, pr.Result)
		}
	}
}

// TestAwaitMissSleepsRest: an Await that ends empty leaves the point
// sleeping out the rest of DeferWait, as without the hook — never
// re-probing early.
func TestAwaitMissSleepsRest(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	const wait = 40 * time.Millisecond
	var mu sync.Mutex
	last := map[string]time.Time{}
	r := &Runner{
		Cache:       cache.New(0),
		Concurrency: 1,
		DeferWait:   wait,
		Gate: func(_ context.Context, hash string) GateDecision {
			mu.Lock()
			defer mu.Unlock()
			if at, ok := last[hash]; ok {
				if gap := time.Since(at); gap < wait {
					t.Errorf("re-probed %v after the deferral, before DeferWait %v", gap, wait)
				}
				return GateProceed
			}
			last[hash] = time.Now()
			return GateDefer
		},
		Await: func(context.Context, string, time.Duration) bool {
			time.Sleep(5 * time.Millisecond) // an empty long-poll
			return false
		},
	}
	sw.Points = sw.Points[:2]
	res, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 2 || res.Deferred != 2 || res.Cached != 0 {
		t.Fatalf("ok=%d deferred=%d cached=%d, want 2, 2, 0", res.OK, res.Deferred, res.Cached)
	}
}

// TestGateCancelledWhileDeferred: a sweep whose context dies while a
// point is parked aborts instead of spinning on the gate forever.
func TestGateCancelledWhileDeferred(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{
		Cache:     cache.New(0),
		DeferWait: time.Hour, // only cancellation can end the park
		Gate: func(context.Context, string) GateDecision {
			cancel()
			return GateDefer
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, sw, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fully deferred sweep reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep still parked on the gate")
	}
}

// TestOffsetRotatesDispatch: the offset changes which point starts
// first but not where results land.
func TestOffsetRotatesDispatch(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	r := &Runner{
		Concurrency: 1,
		Offset:      5,
		Observer:    func(pr PointResult) { order = append(order, pr.Index) },
	}
	res, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(sw.Points) || order[0] != 5 {
		t.Fatalf("dispatch order = %v, want rotation starting at 5", order)
	}
	for i, pr := range res.Points {
		if pr.Index != i {
			t.Fatalf("result slot %d holds point %d: rotation must not move results", i, pr.Index)
		}
		if pr.Status != "ok" {
			t.Fatalf("point %d status %q", i, pr.Status)
		}
	}
	// Offsets beyond the grid wrap instead of panicking.
	r2 := &Runner{Concurrency: 1, Offset: -7}
	if _, err := r2.Run(context.Background(), sw, nil); err != nil {
		t.Fatal(err)
	}
}
