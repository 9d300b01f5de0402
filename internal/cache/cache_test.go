package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustGet(t *testing.T, c *Cache, key, val string) (got []byte, hit bool) {
	t.Helper()
	got, hit, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte(val), nil
	})
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return got, hit
}

func TestHitReturnsStoredBytes(t *testing.T) {
	c := New(0)
	first, hit := mustGet(t, c, "k", "payload")
	if hit {
		t.Error("first request reported a hit")
	}
	second, hit := mustGet(t, c, "k", "DIFFERENT")
	if !hit {
		t.Error("second request missed")
	}
	if !bytes.Equal(first, second) || string(second) != "payload" {
		t.Errorf("hit bytes %q differ from stored %q", second, first)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v", s)
	}
}

// TestSingleflightCollapse: concurrent identical requests run the
// computation once; every waiter receives the same bytes.
func TestSingleflightCollapse(t *testing.T) {
	const followers = 9
	c := New(0)
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	results := make(chan []byte, followers+1)
	go func() {
		val, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			executions.Add(1)
			close(started)
			<-release
			return []byte("shared"), nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results <- val
	}()
	<-started

	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
				executions.Add(1)
				return []byte("shared"), nil
			})
			if err != nil {
				t.Errorf("follower: %v", err)
				return
			}
			if !hit {
				t.Error("collapsed follower did not report a hit")
			}
			results <- val
		}()
	}
	// Every follower must be queued on the flight before it resolves.
	for c.Stats().Dedups != followers {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("computation executed %d times, want 1", n)
	}
	for i := 0; i < followers+1; i++ {
		if val := <-results; string(val) != "shared" {
			t.Errorf("result %q", val)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Dedups != followers || s.Inflight != 0 {
		t.Errorf("stats %+v", s)
	}
}

// TestErrorsNotCached: a failed computation leaves no entry; the next
// request recomputes and can succeed.
func TestErrorsNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("error cached: %+v", s)
	}
	val, hit := mustGet(t, c, "k", "ok")
	if hit || string(val) != "ok" {
		t.Fatalf("recompute after error: hit=%v val=%q", hit, val)
	}
}

// TestLRUEviction: the byte budget evicts least-recently-used entries,
// and a hit refreshes recency.
func TestLRUEviction(t *testing.T) {
	// Each entry costs len(key)+len(val) = 1+9 = 10 bytes; budget fits 2.
	c := New(20)
	mustGet(t, c, "a", "123456789")
	mustGet(t, c, "b", "123456789")
	if _, hit := mustGet(t, c, "a", "x"); !hit {
		t.Fatal("a missing before eviction")
	}
	mustGet(t, c, "c", "123456789") // evicts b (LRU), not the refreshed a
	if _, hit := mustGet(t, c, "a", "recomputed"); !hit {
		t.Error("a evicted despite being recently used")
	}
	if _, hit := mustGet(t, c, "b", "recomputed"); hit {
		t.Error("b survived past the byte budget")
	}
	s := c.Stats()
	if s.Evictions < 1 {
		t.Errorf("no evictions recorded: %+v", s)
	}
	if s.Bytes > 20 {
		t.Errorf("bytes %d over budget", s.Bytes)
	}
}

// TestLRUOrderMatchesModel drives random hits and stores of mixed
// sizes through a small budget and checks, after every step, that the
// stored keys are exactly those a reference LRU keeps, in the same
// recency order.
func TestLRUOrderMatchesModel(t *testing.T) {
	const budget = 64
	c := New(budget)
	var model []string // most recently used first
	size := map[string]int{}
	rng := rand.New(rand.NewPCG(1, 2))
	for step := 0; step < 5000; step++ {
		key := fmt.Sprintf("k%d", rng.IntN(12))
		val := strings.Repeat("v", 1+rng.IntN(20))
		_, hit := mustGet(t, c, key, val)
		if i := slices.Index(model, key); i >= 0 {
			if !hit {
				t.Fatalf("step %d: %s missed while the model holds it", step, key)
			}
			model = append([]string{key}, slices.Delete(model, i, i+1)...)
		} else {
			if hit {
				t.Fatalf("step %d: %s hit after the model evicted it", step, key)
			}
			model = append([]string{key}, model...)
			size[key] = len(key) + len(val)
			total := 0
			for _, k := range model {
				total += size[k]
			}
			for total > budget {
				total -= size[model[len(model)-1]]
				model = model[:len(model)-1]
			}
		}
		var got []string
		c.mu.Lock()
		for e := c.head; e != nil; e = e.next {
			got = append(got, e.key)
		}
		c.mu.Unlock()
		if !slices.Equal(got, model) {
			t.Fatalf("step %d: LRU order %v, model %v", step, got, model)
		}
	}
}

// TestOversizedValueNotCached: one value above the whole budget is
// served but never stored.
func TestOversizedValueNotCached(t *testing.T) {
	c := New(8)
	val, hit := mustGet(t, c, "k", "this value is larger than the budget")
	if hit || len(val) == 0 {
		t.Fatalf("hit=%v val=%q", hit, val)
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("oversized value stored: %+v", s)
	}
}

// TestWaiterContextCancel: a waiter abandoning an in-flight computation
// gets its context error; the computation still completes and is cached.
func TestWaiterContextCancel(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func(context.Context) ([]byte, error) { return nil, nil })
		errc <- err
	}()
	for c.Stats().Dedups != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	close(release)
	// The leader's run is unaffected: its value lands in the cache.
	for c.Stats().Inflight != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	val, hit := mustGet(t, c, "k", "x")
	if !hit || string(val) != "late" {
		t.Fatalf("hit=%v val=%q", hit, val)
	}
}

// TestPanickedComputeDoesNotPoisonKey: a panic escaping compute is
// logged with its key and resolves the flight with an error for the
// caller that started it; the key stays recomputable.
func TestPanickedComputeDoesNotPoisonKey(t *testing.T) {
	var logged []string
	c := New(0, WithLogger(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}))
	_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a panicked-flight error", err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "key k panicked: boom") {
		t.Fatalf("logged %q, want the panic with its key", logged)
	}
	if s := c.Stats(); s.Inflight != 0 || s.Entries != 0 {
		t.Fatalf("flight not cleaned up: %+v", s)
	}
	val, hit := mustGet(t, c, "k", "recovered")
	if hit || string(val) != "recovered" {
		t.Fatalf("key poisoned after panic: hit=%v val=%q", hit, val)
	}
}

// TestConcurrentMixedKeys hammers the cache with overlapping keys under
// -race; every returned value must match its key.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i%8)
			val, _, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
				return []byte("val-" + key), nil
			})
			if err != nil {
				t.Errorf("%s: %v", key, err)
				return
			}
			if string(val) != "val-"+key {
				t.Errorf("key %s got %q", key, val)
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.Inflight != 0 {
		t.Errorf("inflight leak: %+v", s)
	}
}

// TestPersistenceWriteThroughAndReload: values written by one Cache are
// served by a fresh Cache over the same directory — the restart
// survival path — and disk hits count as hits, not recomputations.
func TestPersistenceWriteThroughAndReload(t *testing.T) {
	dir := t.TempDir()
	c1 := New(0, WithDir(dir))
	got, hit := mustGet(t, c1, "aaaa", `"persisted"`)
	if hit || string(got) != `"persisted"` {
		t.Fatalf("first store: hit=%v val=%q", hit, got)
	}
	if s := c1.Stats(); !s.Persistent || s.DiskWrites != 1 || s.PersistErrors != 0 {
		t.Fatalf("stats after write %+v", s)
	}

	// A new process over the same directory.
	c2 := New(0, WithDir(dir))
	var computed atomic.Int32
	val, hit, err := c2.Do(context.Background(), "aaaa", func(context.Context) ([]byte, error) {
		computed.Add(1)
		return []byte("recomputed"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || string(val) != `"persisted"` || computed.Load() != 0 {
		t.Fatalf("reload: hit=%v val=%q computed=%d", hit, val, computed.Load())
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats after reload %+v", s)
	}
	// Now resident in memory: the next call never touches disk.
	if _, hit := mustGet(t, c2, "aaaa", "recomputed"); !hit {
		t.Fatal("memory miss after disk reload")
	}
	if s := c2.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Fatalf("stats after memory hit %+v", s)
	}
}

// TestPersistenceSurvivesMemoryEviction: an LRU-evicted entry replays
// from disk instead of recomputing.
func TestPersistenceSurvivesMemoryEviction(t *testing.T) {
	c := New(20, WithDir(t.TempDir())) // fits one 14-byte entry, not two
	mustGet(t, c, "aaaa", `"value-aa"`)
	mustGet(t, c, "bbbb", `"value-bb"`) // evicts aaaa from memory
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("stats %+v", s)
	}
	val, hit, err := c.Do(context.Background(), "aaaa", func(context.Context) ([]byte, error) {
		return []byte("recomputed"), nil
	})
	if err != nil || !hit || string(val) != `"value-aa"` {
		t.Fatalf("evicted entry not replayed from disk: hit=%v val=%q err=%v", hit, val, err)
	}
}

// TestPersistenceUnsafeKeySkipsTier: keys that cannot name a file
// bypass persistence but still cache in memory.
func TestPersistenceUnsafeKeySkipsTier(t *testing.T) {
	c := New(0, WithDir(t.TempDir()))
	mustGet(t, c, "../escape", "val")
	if s := c.Stats(); s.DiskWrites != 0 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if _, hit := mustGet(t, c, "../escape", "val"); !hit {
		t.Fatal("unsafe key not cached in memory")
	}
}

// TestPersistenceErrorsNotWritten: failed computations leave no file
// behind to replay.
func TestPersistenceErrorsNotWritten(t *testing.T) {
	dir := t.TempDir()
	c := New(0, WithDir(dir))
	_, _, err := c.Do(context.Background(), "bad1", func(context.Context) ([]byte, error) {
		return nil, errors.New("nope")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	c2 := New(0, WithDir(dir))
	val, hit, err := c2.Do(context.Background(), "bad1", func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || hit || string(val) != "fresh" {
		t.Fatalf("hit=%v val=%q err=%v", hit, val, err)
	}
}

// TestPersistenceCorruptFileRemoved: a disk-tier file that is not JSON
// is removed when read, so Contains stops reporting the key as stored
// even when the recompute fails and nothing overwrites the file.
func TestPersistenceCorruptFileRemoved(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	if err := os.WriteFile(path, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(0, WithDir(dir))
	if stored, _ := c.Contains("torn"); !stored {
		t.Fatal("setup: the planted file does not read as stored")
	}
	_, hit, err := c.Do(context.Background(), "torn", func(context.Context) ([]byte, error) {
		return nil, errors.New("compute down")
	})
	if err == nil || hit {
		t.Fatalf("corrupt file served: hit=%v err=%v", hit, err)
	}
	if stored, _ := c.Contains("torn"); stored {
		t.Fatal("Contains still reports the corrupt file as stored")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file left on disk: %v", err)
	}
}

// TestPersistenceUnusableDirDegrades: a directory that cannot be
// created disables the tier, and the log says so once; the cache
// itself keeps working.
func TestPersistenceUnusableDirDegrades(t *testing.T) {
	var logged []string
	c := New(0, WithDir(string([]byte{0})), WithLogger(func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}))
	if s := c.Stats(); s.Persistent || s.PersistErrors != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Said once, with the reason: the operator asked for a disk tier.
	if len(logged) != 1 || !strings.Contains(logged[0], "disk tier disabled") || !strings.Contains(logged[0], "invalid argument") {
		t.Fatalf("logged %q, want one disabled-tier line with the error", logged)
	}
	if got, _ := mustGet(t, c, "k", "v"); string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}
