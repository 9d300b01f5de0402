package cache

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// peerServer fakes a replica's GET /v1/cache/{hash} route over a map of
// stored values.
func peerServer(t *testing.T, values map[string][]byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, PeerPath)
		val, ok := values[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HashHeader, BodyHash(val))
		w.Write(val)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPeerHit: a local miss is served from a peer, stored in memory,
// written through to the local disk, and counted as a peer hit — and
// the compute func never runs.
func TestPeerHit(t *testing.T) {
	ts := peerServer(t, map[string][]byte{"k1": []byte(`"peer-bytes"`)})
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(ts.URL))

	computed := false
	got, hit, err := c.Do(context.Background(), "k1", func(context.Context) ([]byte, error) {
		computed = true
		return []byte("fresh"), nil
	})
	if err != nil || !hit || string(got) != `"peer-bytes"` {
		t.Fatalf("Do = %q, hit=%v, err=%v", got, hit, err)
	}
	if computed {
		t.Fatal("compute ran despite a peer hit")
	}
	s := c.Stats()
	if s.PeerHits != 1 || s.PeerErrors != 0 || s.Misses != 0 {
		t.Fatalf("stats after peer hit: %+v", s)
	}
	// Write-through: the bytes now live on the local disk too.
	if b, err := os.ReadFile(filepath.Join(dir, "k1")); err != nil || string(b) != `"peer-bytes"` {
		t.Fatalf("peer hit not written through to disk: %q, %v", b, err)
	}
	// Second call is a plain memory hit; the peer is not consulted.
	if _, hit := mustGet(t, c, "k1", "x"); !hit {
		t.Fatal("memory tier lost the peer-fetched entry")
	}
	if s := c.Stats(); s.PeerHits != 1 {
		t.Fatalf("memory hit re-consulted the peer: %+v", s)
	}
}

// TestPeerMiss: a clean peer 404 falls through to compute and counts as
// a peer miss, not an error.
func TestPeerMiss(t *testing.T) {
	ts := peerServer(t, nil)
	c := New(0, WithPeers(ts.URL))
	if _, hit := mustGet(t, c, "k1", "fresh"); hit {
		t.Fatal("miss reported as hit")
	}
	s := c.Stats()
	if s.PeerMisses != 1 || s.PeerErrors != 0 || s.Misses != 1 {
		t.Fatalf("stats after peer miss: %+v", s)
	}
}

// TestPeerDown: a peer refusing connections degrades to computing, the
// failure is counted, and after enough consecutive errors the breaker
// opens so later misses skip the peer entirely.
func TestPeerDown(t *testing.T) {
	// A started-then-closed server yields a connection-refused address.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c := New(0, WithPeers(url), WithDegrade(2, time.Hour))
	for i := 0; i < 5; i++ {
		if _, hit := mustGet(t, c, fmt.Sprintf("k%d", i), "v"); hit {
			t.Fatal("dead peer produced a hit")
		}
	}
	s := c.Stats()
	if s.PeerErrors != 2 {
		t.Fatalf("peer errors = %d, want 2 (breaker should open after 2)", s.PeerErrors)
	}
	if s.PeersDegraded != 1 {
		t.Fatalf("breaker not open: %+v", s)
	}
}

// TestPeerSlow: a peer that hangs is bounded by the per-peer timeout —
// the caller waits roughly the timeout, not forever — and repeated
// timeouts open the breaker, after which misses don't wait at all.
func TestPeerSlow(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)

	c := New(0, WithPeers(ts.URL), WithPeerTimeout(50*time.Millisecond), WithDegrade(2, time.Hour))
	started := time.Now()
	mustGet(t, c, "k0", "v")
	if waited := time.Since(started); waited > 2*time.Second {
		t.Fatalf("slow peer stalled the request %v (timeout 50ms)", waited)
	}
	mustGet(t, c, "k1", "v")
	if s := c.Stats(); s.PeerErrors != 2 || s.PeersDegraded != 1 {
		t.Fatalf("stats after two timeouts: %+v", s)
	}
	// Breaker open: further misses never reach the peer.
	before := requests.Load()
	mustGet(t, c, "k2", "v")
	if requests.Load() != before {
		t.Fatal("breaker open but the peer was still consulted")
	}
}

// TestPeerCorruptBody: a body that does not match its hash header is
// rejected, counted as an error, and never cached locally.
func TestPeerCorruptBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HashHeader, BodyHash([]byte("what was stored")))
		w.Write([]byte("what arrived"))
	}))
	t.Cleanup(ts.Close)

	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(ts.URL))
	got, hit, err := c.Do(context.Background(), "k1", func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || hit || string(got) != "fresh" {
		t.Fatalf("corrupt peer body not rejected: %q, hit=%v, err=%v", got, hit, err)
	}
	s := c.Stats()
	if s.PeerErrors != 1 || s.PeerHits != 0 {
		t.Fatalf("stats after corrupt body: %+v", s)
	}
	// The freshly computed value, not the corrupt body, is what persisted.
	if b, err := os.ReadFile(filepath.Join(dir, "k1")); err != nil || string(b) != "fresh" {
		t.Fatalf("disk holds %q, %v; want the computed bytes", b, err)
	}
}

// TestPeerRecovers: the breaker re-probes after its interval and closes
// again once the peer answers.
func TestPeerRecovers(t *testing.T) {
	var healthy atomic.Bool
	val := []byte(`"peer-bytes"`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		w.Header().Set(HashHeader, BodyHash(val))
		w.Write(val)
	}))
	t.Cleanup(ts.Close)

	c := New(0, WithPeers(ts.URL), WithDegrade(1, 20*time.Millisecond))
	mustGet(t, c, "k0", "v")
	if s := c.Stats(); s.PeersDegraded != 1 {
		t.Fatalf("breaker not open after 500: %+v", s)
	}
	healthy.Store(true)
	// Probe slots open every 20ms; fresh keys keep missing locally (a
	// repeated key would become a memory hit and never reach the peer)
	// until one probe lands.
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; c.Stats().PeerHits == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("peer never recovered: %+v", c.Stats())
		}
		c.Do(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) ([]byte, error) { return []byte("v"), nil })
		time.Sleep(5 * time.Millisecond)
	}
	if s := c.Stats(); s.PeersDegraded != 0 {
		t.Fatalf("breaker still open after recovery: %+v", s)
	}
}

// TestPeek: local tiers only — memory, then disk — never peers, never
// compute.
func TestPeek(t *testing.T) {
	ts := peerServer(t, map[string][]byte{"remote": []byte(`"rv"`)})
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(ts.URL))
	mustGet(t, c, "mem", "mv")
	if err := os.WriteFile(filepath.Join(dir, "disk"), []byte(`"dv"`), 0o644); err != nil {
		t.Fatal(err)
	}

	before := c.Stats()
	if v, ok := c.Peek("mem"); !ok || string(v) != "mv" {
		t.Fatalf("Peek(mem) = %q, %v", v, ok)
	}
	if v, ok := c.Peek("disk"); !ok || string(v) != `"dv"` {
		t.Fatalf("Peek(disk) = %q, %v", v, ok)
	}
	// A key only a peer holds is a miss: Peek serves what this replica
	// stores, it must not chain fetches across the fleet.
	if _, ok := c.Peek("remote"); ok {
		t.Fatal("Peek consulted a peer")
	}
	after := c.Stats()
	if before.PeerHits != after.PeerHits || before.PeerMisses != after.PeerMisses || before.PeerErrors != after.PeerErrors {
		t.Fatalf("Peek touched the peer tier: %+v -> %+v", before, after)
	}
}

// TestPrefetch: pulls disk- and peer-resident values into memory
// without computing, and reports absence without poisoning the
// singleflight table.
func TestPrefetch(t *testing.T) {
	ts := peerServer(t, map[string][]byte{"remote": []byte(`"rv"`)})
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(ts.URL))
	if err := os.WriteFile(filepath.Join(dir, "disk"), []byte(`"dv"`), 0o644); err != nil {
		t.Fatal(err)
	}

	if !c.Prefetch("disk") || !c.Prefetch("remote") {
		t.Fatalf("prefetch of available values failed: %+v", c.Stats())
	}
	if c.Prefetch("absent") {
		t.Fatal("prefetch of an absent key reported success")
	}
	if _, inflight := c.Contains("absent"); inflight {
		t.Fatal("failed prefetch left a flight registered")
	}
	// The peer-fetched value was written through to the local disk.
	if b, err := os.ReadFile(filepath.Join(dir, "remote")); err != nil || string(b) != `"rv"` {
		t.Fatalf("prefetched value not persisted: %q, %v", b, err)
	}
	// Both are now memory hits; no recompute, no second peer fetch.
	if _, hit := mustGet(t, c, "remote", "x"); !hit {
		t.Fatal("prefetched value not served from memory")
	}
	if s := c.Stats(); s.PeerHits != 1 {
		t.Fatalf("peer consulted again after prefetch: %+v", s)
	}
}

// TestContainsSkipsDegradedDisk: while the disk tier is degraded the
// pure probe must not stat the directory — a hung disk would otherwise
// stall the admission decision it feeds. Reads stay on: Get still
// serves the entry.
func TestContainsSkipsDegradedDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := New(0, WithDir(dir), WithDegrade(1, time.Hour))
	restore := breakDir(t, dir)
	mustGet(t, c, "k0", "v")
	if s := c.Stats(); !s.Degraded {
		t.Fatalf("not degraded: %+v", s)
	}

	// Heal the directory and place an entry behind the probe's back: a
	// stat would now succeed, so a "stored" answer proves Contains
	// still touched the degraded tier.
	restore()
	if err := os.WriteFile(filepath.Join(dir, "ondisk"), []byte(`"dv"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if stored, _ := c.Contains("ondisk"); stored {
		t.Fatal("Contains probed the disk tier while degraded")
	}
	// The read path is deliberately unaffected: a degraded tier skips
	// writes and probes, not hits.
	if got, hit := mustGet(t, c, "ondisk", "fresh"); !hit || string(got) != `"dv"` {
		t.Fatalf("Get while degraded = %q, hit=%v; want the disk value", got, hit)
	}
}

// TestPeerInvalidJSON: a body whose hash header matches but which is
// not JSON is a peer error — never stored, never spliced into a sweep
// aggregate — and the value is computed locally.
func TestPeerInvalidJSON(t *testing.T) {
	ts := peerServer(t, map[string][]byte{"k1": []byte(`{"truncated":`)})
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(ts.URL))
	got, hit, err := c.Do(context.Background(), "k1", func(context.Context) ([]byte, error) {
		return []byte(`"fresh"`), nil
	})
	if err != nil || hit || string(got) != `"fresh"` {
		t.Fatalf("invalid peer body not rejected: %q, hit=%v, err=%v", got, hit, err)
	}
	if s := c.Stats(); s.PeerErrors != 1 || s.PeerHits != 0 || s.Misses != 1 {
		t.Fatalf("stats after invalid body: %+v", s)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "k1")); err != nil || string(b) != `"fresh"` {
		t.Fatalf("disk holds %q, %v; want the computed bytes", b, err)
	}
}

// TestPeerBodyBounds: peer bodies are read into a buffer of their
// declared length; a body the memory budget could never hold — by its
// declared length or, undeclared, by what arrives — and a body shorter
// than declared are peer errors, and the value is computed instead.
func TestPeerBodyBounds(t *testing.T) {
	big := []byte(`"` + strings.Repeat("x", 100) + `"`)
	small := []byte(`"` + strings.Repeat("y", 20) + `"`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, PeerPath) {
		case "declared":
			w.Header().Set(HashHeader, BodyHash(big))
			w.Write(big) // a small single write: Content-Length is set
		case "streamed":
			w.Header().Set(HashHeader, BodyHash(big))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush() // no Content-Length: chunked
			w.Write(big)
		case "short":
			w.Header().Set(HashHeader, BodyHash(small))
			w.Header().Set("Content-Length", "40")
			w.Write(small)
		default:
			w.Header().Set(HashHeader, BodyHash(small))
			w.Write(small)
		}
	}))
	t.Cleanup(ts.Close)

	c := New(64, WithPeers(ts.URL), WithDegrade(100, time.Hour))
	for i, key := range []string{"declared", "streamed", "short"} {
		got, hit := mustGet(t, c, key, `"local"`)
		if hit || string(got) != `"local"` {
			t.Fatalf("%s: served %q (hit=%v) from a bad peer body", key, got, hit)
		}
		if s := c.Stats(); s.PeerErrors != uint64(i+1) || s.PeerHits != 0 {
			t.Fatalf("%s: stats %+v", key, s)
		}
	}
	got, hit := mustGet(t, c, "fits", `"local"`)
	if !hit || string(got) != string(small) {
		t.Fatalf("fitting body not served: %q, hit=%v", got, hit)
	}
	if cap(got) != len(got) {
		t.Errorf("a %d-byte body landed in a %d-byte buffer", len(got), cap(got))
	}
}
