package sched

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

// drainOrder parks one waiter per entry of ids behind a held pool, then
// releases the blocker and records the order in which the waiters are
// granted. Capacity must be 1 so grants serialize.
func drainOrder(t *testing.T, p *Pool, block func(), ids []Identity) []Identity {
	t.Helper()
	order := make(chan Identity, len(ids))
	var wg sync.WaitGroup
	for _, id := range ids {
		// Enqueue strictly one at a time so same-tenant FIFO order in
		// the queue matches the ids slice.
		before := p.Stats().Waiting
		wg.Add(1)
		go func(id Identity) {
			defer wg.Done()
			ctx := WithIdentity(context.Background(), id)
			_, release, err := p.Acquire(ctx, 1)
			if err != nil {
				t.Errorf("Acquire(%v): %v", id, err)
				return
			}
			order <- id
			release()
		}(id)
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Waiting != before+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %v never queued", id)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	block()
	wg.Wait()
	close(order)
	var got []Identity
	for id := range order {
		got = append(got, id)
	}
	return got
}

// TestEqualWeightInterleave: two backlogged tenants of one class
// alternate grants instead of one draining first.
func TestEqualWeightInterleave(t *testing.T) {
	p := NewFair(Config{Capacity: 1})
	_, blocker, err := p.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var ids []Identity
	for i := 0; i < 4; i++ {
		ids = append(ids, Identity{Tenant: "a", Class: ClassBulk})
	}
	for i := 0; i < 4; i++ {
		ids = append(ids, Identity{Tenant: "b", Class: ClassBulk})
	}
	got := drainOrder(t, p, blocker, ids)
	for i := 0; i+1 < 8 && i < len(got)-1; i += 2 {
		if got[i].Tenant == got[i+1].Tenant {
			t.Fatalf("grants %d,%d both for %q: want strict alternation, got %v",
				i, i+1, got[i].Tenant, got)
		}
	}
}

// TestInteractiveOutranksBulk: queued interactive work is dispatched
// before earlier-queued bulk work.
func TestInteractiveOutranksBulk(t *testing.T) {
	p := NewFair(Config{Capacity: 1})
	_, blocker, err := p.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []Identity{
		{Tenant: "batch", Class: ClassBulk},
		{Tenant: "batch", Class: ClassBulk},
		{Tenant: "live", Class: ClassInteractive},
	}
	got := drainOrder(t, p, blocker, ids)
	if len(got) != 3 || got[0].Class != ClassInteractive {
		t.Fatalf("grant order %v: interactive must be served first", got)
	}
}

// TestInteractiveReserve: bulk in-use is capped at capacity-reserve, so
// an interactive arrival is admitted immediately even while bulk work
// saturates its share.
func TestInteractiveReserve(t *testing.T) {
	p := NewFair(Config{Capacity: 2, InteractiveReserve: 1})
	bctx := WithIdentity(context.Background(), Identity{Tenant: "batch", Class: ClassBulk})

	g, rel1, err := p.Acquire(bctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("bulk granted %d slots, want 1 (reserve must hold one back)", g)
	}
	defer rel1()

	// A second bulk acquirer must queue: bulk is at its cap.
	queued := make(chan struct{})
	go func() {
		_, rel, err := p.Acquire(bctx, 1)
		if err == nil {
			rel()
		}
		close(queued)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second bulk acquirer never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Interactive work takes the reserved slot without waiting.
	ictx := WithIdentity(context.Background(), Identity{Tenant: "live", Class: ClassInteractive})
	done := make(chan error, 1)
	go func() {
		_, rel, err := p.Acquire(ictx, 1)
		if err == nil {
			rel()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interactive acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interactive acquire starved behind bulk despite the reserve")
	}

	st := p.Stats()
	if st.InteractiveReserve != 1 {
		t.Errorf("InteractiveReserve = %d, want 1", st.InteractiveReserve)
	}
	if bc := st.Classes[ClassBulk.String()]; bc.SlotCap != 1 {
		t.Errorf("bulk SlotCap = %d, want 1", bc.SlotCap)
	}
	if ic := st.Classes[ClassInteractive.String()]; ic.SlotCap != 2 {
		t.Errorf("interactive SlotCap = %d, want 2", ic.SlotCap)
	}
	rel1()
	<-queued
}

// TestSaturated: a class is saturated only while no slot can be granted
// to it at once and the queue holds at least the bound. With bulk at
// its cap and two bulk acquirers queued, the idle reserved slot keeps
// interactive arrivals unsaturated until interactive work takes it.
func TestSaturated(t *testing.T) {
	p := NewFair(Config{Capacity: 2, InteractiveReserve: 1})
	bctx, cancel := context.WithCancel(WithIdentity(context.Background(), Identity{Tenant: "batch", Class: ClassBulk}))
	_, brel, err := p.Acquire(bctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go p.Acquire(bctx, 1) // parks: bulk is at its cap
	}
	for deadline := time.Now().Add(5 * time.Second); p.Stats().Waiting != 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("bulk acquirers never queued")
		}
	}
	check := func(stage string, c Class, bound int, want bool) {
		t.Helper()
		if got := p.Saturated(c, bound); got != want {
			t.Errorf("%s: Saturated(%s, %d) = %v, want %v", stage, c, bound, got, want)
		}
	}
	check("reserve idle", ClassBulk, 2, true)
	check("reserve idle", ClassBulk, 3, false)
	check("reserve idle", ClassBulk, -1, false)
	check("reserve idle", ClassInteractive, 2, false)
	check("reserve idle", ClassInteractive, 0, false)

	_, irel, err := p.Acquire(WithIdentity(context.Background(), Identity{Tenant: "live"}), 1)
	if err != nil {
		t.Fatal(err)
	}
	check("pool full", ClassInteractive, 2, true)
	check("pool full", ClassInteractive, 3, false)
	check("pool full", ClassInteractive, -1, false)
	cancel()
	irel()
	brel()
}

// TestQueueWaitBound: an acquisition queued past its class bound is
// refused with a *QueueWaitError and counted in class stats.
func TestQueueWaitBound(t *testing.T) {
	p := NewFair(Config{Capacity: 1, BulkMaxWait: 10 * time.Millisecond})
	_, release, err := p.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	bctx := WithIdentity(context.Background(), Identity{Tenant: "batch", Class: ClassBulk})
	_, _, err = p.Acquire(bctx, 1)
	var qw *QueueWaitError
	if !errors.As(err, &qw) {
		t.Fatalf("err = %v, want *QueueWaitError", err)
	}
	if qw.Identity.Tenant != "batch" || qw.Identity.Class != ClassBulk {
		t.Errorf("QueueWaitError identity = %+v", qw.Identity)
	}
	if qw.Waited < 10*time.Millisecond {
		t.Errorf("Waited = %v, want >= bound", qw.Waited)
	}
	st := p.Stats()
	if got := st.Classes[ClassBulk.String()].QueueTimeouts; got != 1 {
		t.Errorf("bulk QueueTimeouts = %d, want 1", got)
	}
	if st.Waiting != 0 {
		t.Errorf("Waiting = %d after timeout, want 0", st.Waiting)
	}
}

// TestBulkFloodNoStarvation: with a reserve configured, a sustained
// bulk flood from one tenant cannot starve another tenant's
// interactive acquisitions. Run under -race in CI.
func TestBulkFloodNoStarvation(t *testing.T) {
	p := NewFair(Config{Capacity: 2, InteractiveReserve: 1})
	floodCtx, stopFlood := context.WithCancel(context.Background())
	defer stopFlood()
	bctx := WithIdentity(floodCtx, Identity{Tenant: "batch", Class: ClassBulk})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, release, err := p.Acquire(bctx, 2)
				if err != nil {
					return
				}
				time.Sleep(200 * time.Microsecond)
				release()
			}
		}()
	}

	// Let the flood actually occupy the pool before probing it.
	deadline := time.Now().Add(5 * time.Second)
	for p.queueWait.With("bulk", "batch").Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flood never started")
		}
		time.Sleep(100 * time.Microsecond)
	}

	ictx := WithIdentity(context.Background(), Identity{Tenant: "live", Class: ClassInteractive})
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(ictx, 5*time.Second)
		_, release, err := p.Acquire(ctx, 1)
		if err != nil {
			cancel()
			t.Fatalf("interactive acquire %d starved: %v", i, err)
		}
		release()
		cancel()
	}
	stopFlood()
	wg.Wait()

	if got := p.queueWait.With("interactive", "live").Count(); got != 20 {
		t.Errorf("live grants = %d, want 20", got)
	}
	if p.queueWait.With("bulk", "batch").Count() == 0 {
		t.Error("flood recorded no bulk grants")
	}
}

// BenchmarkAdmissionMixedLoad measures interactive admission latency
// under a sustained bulk flood: four bulk floods of a 4-slot pool with
// one reserved slot, while the benchmark loop runs interactive
// acquire/release pairs. Reported metrics: p99 interactive queue wait
// and end-to-end grant throughput.
func BenchmarkAdmissionMixedLoad(b *testing.B) {
	p := NewFair(Config{Capacity: 4, InteractiveReserve: 1})
	floodCtx, stopFlood := context.WithCancel(context.Background())
	defer stopFlood()
	bctx := WithIdentity(floodCtx, Identity{Tenant: "batch", Class: ClassBulk})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, release, err := p.Acquire(bctx, 2)
				if err != nil {
					return
				}
				time.Sleep(50 * time.Microsecond)
				release()
			}
		}()
	}

	ictx := WithIdentity(context.Background(), Identity{Tenant: "live", Class: ClassInteractive})
	waits := make([]time.Duration, b.N)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, release, err := p.Acquire(ictx, 1)
		if err != nil {
			b.Fatal(err)
		}
		waits[i] = time.Since(t0)
		release()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	stopFlood()
	wg.Wait()

	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	idx := len(waits) * 99 / 100
	if idx >= len(waits) {
		idx = len(waits) - 1
	}
	p99 := waits[idx]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-wait-ns")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "grants/s")
}
