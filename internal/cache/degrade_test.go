package cache

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// breakDir replaces the cache directory with a regular file so every
// CreateTemp inside it fails (chmod tricks don't bite when the tests
// run as root). Returns a restore func that puts the directory back.
func breakDir(t *testing.T, dir string) (restore func()) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDegradeAfterConsecutiveErrors: repeated persist failures
// downgrade the disk tier to memory-only, logged exactly once, with
// further writes skipped rather than attempted.
func TestDegradeAfterConsecutiveErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := New(0, WithDir(dir), WithDegrade(2, time.Hour))
	var mu sync.Mutex
	var logs []string
	c.logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	breakDir(t, dir)

	for i := 0; i < 5; i++ {
		mustGet(t, c, fmt.Sprintf("k%d", i), "v")
	}
	s := c.Stats()
	if !s.Degraded || s.DegradeEvents != 1 {
		t.Fatalf("not degraded after repeated errors: %+v", s)
	}
	if s.PersistErrors != 2 {
		t.Fatalf("persist errors = %d, want 2 (writes should stop after degrade)", s.PersistErrors)
	}
	if s.SkippedWrites != 3 {
		t.Fatalf("skipped writes = %d, want 3", s.SkippedWrites)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "degraded to memory-only") {
		t.Fatalf("want exactly one degrade log line, got %q", logs)
	}
	// The cache itself stays fully functional in memory.
	if _, hit := mustGet(t, c, "k0", "v"); !hit {
		t.Fatal("memory tier lost entries while degraded")
	}
}

// TestDegradeProbeRestores: once the disk recovers, the next probe
// write succeeds and the tier re-enables itself.
func TestDegradeProbeRestores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := New(0, WithDir(dir), WithDegrade(1, 20*time.Millisecond))
	var mu sync.Mutex
	var logs []string
	c.logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	restore := breakDir(t, dir)

	mustGet(t, c, "k0", "v")
	if s := c.Stats(); !s.Degraded {
		t.Fatalf("not degraded: %+v", s)
	}
	restore()
	// Probe slots open every 20ms; keep storing until one lands.
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; c.Stats().Degraded; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("tier never restored: %+v", c.Stats())
		}
		mustGet(t, c, fmt.Sprintf("k%d", i), "v")
		time.Sleep(5 * time.Millisecond)
	}
	s := c.Stats()
	if s.DiskWrites == 0 {
		t.Fatalf("no disk write after restore: %+v", s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) < 2 || !strings.Contains(logs[len(logs)-1], "restored") {
		t.Fatalf("want a restore log line, got %q", logs)
	}
	// Fresh stores now persist again.
	mustGet(t, c, "fresh", "v")
	if _, err := os.Stat(filepath.Join(dir, "fresh")); err != nil {
		t.Fatalf("restored tier did not persist: %v", err)
	}
}

// TestContains: pure probe over all three serve-without-compute
// sources — memory, disk, inflight — with no counter movement.
func TestContains(t *testing.T) {
	dir := t.TempDir()
	c := New(0, WithDir(dir))
	mustGet(t, c, "mem1", "v")
	before := c.Stats()

	if stored, inflight := c.Contains("mem1"); !stored || inflight {
		t.Fatalf("memory entry: stored=%v inflight=%v", stored, inflight)
	}
	if stored, inflight := c.Contains("nope"); stored || inflight {
		t.Fatalf("absent key: stored=%v inflight=%v", stored, inflight)
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.DiskHits != before.DiskHits {
		t.Fatalf("Contains moved counters: %+v -> %+v", before, after)
	}

	// Disk-only: a second cache over the same dir has no memory entry.
	c2 := New(0, WithDir(dir))
	if stored, _ := c2.Contains("mem1"); !stored {
		t.Fatal("disk entry not reported")
	}

	// Inflight: a running computation is joinable, not stored.
	started := make(chan struct{})
	release := make(chan struct{})
	computed := make(chan struct{})
	go func() {
		defer close(computed)
		c.Do(t.Context(), "slow", func(context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
	}()
	<-started
	stored, inflight := c.Contains("slow")
	close(release)
	// The compute writes its file through to the temp dir after
	// releasing; returning before it lands races the dir cleanup.
	<-computed
	if stored || !inflight {
		t.Fatalf("inflight entry: stored=%v inflight=%v", stored, inflight)
	}
}

// The helpers below serve only this package's tests.

// WithDegrade tunes the disk tier's graceful degradation: after
// consecutive persist errors the tier downgrades to memory-only, and
// probe sets how often a single probe write is allowed to test whether
// the disk recovered. Zero values keep the defaults (3 errors, 30s).
func WithDegrade(consecutive int, probe time.Duration) Option {
	return func(c *Cache) {
		if consecutive > 0 {
			c.degradeAfter = consecutive
		}
		if probe > 0 {
			c.probeInterval = probe
		}
	}
}
