package cache

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// blocker is a compute that blocks until its context ends — then it
// reports the context's error on ended and returns bytes anyway, which
// a cancelled flight must not store — or until release is closed, when
// it returns val. A non-nil panicWith makes a release panic instead.
type blocker struct {
	started   chan struct{}
	release   chan struct{}
	ended     chan error
	calls     atomic.Int32
	panicWith any
}

func newBlocker() *blocker {
	return &blocker{started: make(chan struct{}), release: make(chan struct{}), ended: make(chan error, 1)}
}

func (b *blocker) compute(ctx context.Context) ([]byte, error) {
	if b.calls.Add(1) == 1 {
		close(b.started)
	}
	select {
	case <-ctx.Done():
		b.ended <- ctx.Err()
		return []byte(`"abandoned"`), nil
	case <-b.release:
		if b.panicWith != nil {
			panic(b.panicWith)
		}
		return []byte(`"v"`), nil
	}
}

// computeLives fails the test if the compute's context ends within a
// short grace: the flight must run on.
func (b *blocker) computeLives(t *testing.T, why string) {
	t.Helper()
	select {
	case err := <-b.ended:
		t.Fatalf("%s: the compute was cancelled (%v)", why, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// computeCancelled waits for the compute's context to end.
func (b *blocker) computeCancelled(t *testing.T, why string) {
	t.Helper()
	select {
	case err := <-b.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: the compute's context ended with %v", why, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the compute was never cancelled", why)
	}
}

type outcome struct {
	val string
	hit bool
	err error
}

// call runs Do(ctx, key, compute) in the background; the channel
// delivers its outcome.
func call(c *Cache, ctx context.Context, key string, compute func(context.Context) ([]byte, error)) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		val, hit, err := c.Do(ctx, key, compute)
		out <- outcome{string(val), hit, err}
	}()
	return out
}

func expectOutcome(t *testing.T, who string, got <-chan outcome, want outcome) {
	t.Helper()
	select {
	case o := <-got:
		if o.val != want.val || o.hit != want.hit || !errors.Is(o.err, want.err) {
			t.Fatalf("%s: Do = %+v, want %+v", who, o, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Do never returned", who)
	}
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("never %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightDone returns the done channel of key's flight.
func flightDone(t *testing.T, c *Cache, key string) <-chan struct{} {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.inflight[key]
	if f == nil {
		t.Fatalf("no flight for %q", key)
	}
	return f.done
}

// TestFlightLifetime pins the rule the singleflight lives by: a flight
// runs while anyone waits for it — a caller that started it, one that
// joined it, or a peer probe Hold is holding on it — and each waiter's
// context governs only that waiter's wait.
func TestFlightLifetime(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Cache, b *blocker)
	}{
		{"leader leaves, follower keeps the compute", func(t *testing.T, c *Cache, b *blocker) {
			lctx, leave := context.WithCancel(context.Background())
			leader := call(c, lctx, "k", b.compute)
			<-b.started
			follower := call(c, context.Background(), "k", b.compute)
			waitFor(t, "saw the follower join", func() bool { return waitersOf(c, "k") == 2 })
			leave()
			expectOutcome(t, "leader", leader, outcome{err: context.Canceled})
			b.computeLives(t, "a follower still waits")
			close(b.release)
			expectOutcome(t, "follower", follower, outcome{val: `"v"`, hit: true})
			if n := b.calls.Load(); n != 1 {
				t.Fatalf("computed %d times", n)
			}
			if s := c.Stats(); s.Misses != 1 || s.Dedups != 1 || s.Entries != 1 {
				t.Fatalf("stats %+v", s)
			}
		}},
		{"every waiter leaves: cancelled, forgotten, computed afresh", func(t *testing.T, c *Cache, b *blocker) {
			lctx, leaveLeader := context.WithCancel(context.Background())
			fctx, leaveFollower := context.WithCancel(context.Background())
			leader := call(c, lctx, "k", b.compute)
			<-b.started
			done := flightDone(t, c, "k")
			follower := call(c, fctx, "k", b.compute)
			waitFor(t, "saw the follower join", func() bool { return waitersOf(c, "k") == 2 })
			leaveLeader()
			expectOutcome(t, "leader", leader, outcome{err: context.Canceled})
			leaveFollower()
			expectOutcome(t, "follower", follower, outcome{err: context.Canceled})
			b.computeCancelled(t, "nobody waits")
			if stored, inflight := c.Contains("k"); stored || inflight {
				t.Fatalf("after the last waiter left: stored %v inflight %v", stored, inflight)
			}
			<-done
			if stored, _ := c.Contains("k"); stored {
				t.Fatal("a flight nobody waited for stored its bytes")
			}
			if val, hit := mustGet(t, c, "k", `"fresh"`); hit || string(val) != `"fresh"` {
				t.Fatalf("next caller: %q, hit %v; want a fresh compute", val, hit)
			}
			if s := c.Stats(); s.Misses != 2 {
				t.Fatalf("misses %d, want 2", s.Misses)
			}
		}},
		{"an ended caller starts and joins nothing", func(t *testing.T, c *Cache, b *blocker) {
			ended, cancel := context.WithCancel(context.Background())
			cancel()
			expectOutcome(t, "ended caller", call(c, ended, "k", b.compute), outcome{err: context.Canceled})
			if n := b.calls.Load(); n != 0 {
				t.Fatalf("an ended caller computed %d times", n)
			}
			if _, inflight := c.Contains("k"); inflight {
				t.Fatal("an ended caller left a flight")
			}
			leader := call(c, context.Background(), "k", b.compute)
			<-b.started
			expectOutcome(t, "ended follower", call(c, ended, "k", b.compute), outcome{err: context.Canceled})
			if n := waitersOf(c, "k"); n != 1 {
				t.Fatalf("an ended caller joined: %d waiters", n)
			}
			close(b.release)
			expectOutcome(t, "leader", leader, outcome{val: `"v"`})
			if s := c.Stats(); s.Misses != 1 || s.Dedups != 0 {
				t.Fatalf("stats %+v", s)
			}
		}},
		{"a hold keeps the compute alive until it returns", func(t *testing.T, c *Cache, b *blocker) {
			lctx, leave := context.WithCancel(context.Background())
			leader := call(c, lctx, "k", b.compute)
			<-b.started
			waitFlight(t, c, "k", "started computing", func(_, computing, _ bool) bool { return computing })
			hctx, endHold := context.WithCancel(context.Background())
			held := make(chan string, 1)
			go func() {
				_, _, h := c.Hold(hctx, "k", "c")
				held <- h
			}()
			waitFor(t, "saw the hold wait", func() bool { return waitersOf(c, "k") == 2 })
			leave()
			expectOutcome(t, "leader", leader, outcome{err: context.Canceled})
			b.computeLives(t, "a held probe still waits")
			endHold()
			if h := <-held; h != HoldComputing {
				t.Fatalf("ended hold answered %q, want %q", h, HoldComputing)
			}
			b.computeCancelled(t, "the hold ended")
			if _, inflight := c.Contains("k"); inflight {
				t.Fatal("the flight outlived its last waiter")
			}
		}},
		{"a panic reaches every waiter and poisons nothing", func(t *testing.T, c *Cache, b *blocker) {
			b.panicWith = "boom"
			leader := call(c, context.Background(), "k", b.compute)
			<-b.started
			follower := call(c, context.Background(), "k", b.compute)
			waitFor(t, "saw the follower join", func() bool { return waitersOf(c, "k") == 2 })
			close(b.release)
			for who, got := range map[string]<-chan outcome{"leader": leader, "follower": follower} {
				select {
				case o := <-got:
					if o.err == nil || !strings.Contains(o.err.Error(), "panicked") {
						t.Fatalf("%s: %+v, want the panicked-flight error", who, o)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s stranded on a panicked flight", who)
				}
			}
			if val, hit := mustGet(t, c, "k", `"recovered"`); hit || string(val) != `"recovered"` {
				t.Fatalf("key poisoned after panic: %q, hit %v", val, hit)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, New(0, WithSelfID("b"), WithLogger(t.Logf)), newBlocker())
		})
	}
}
