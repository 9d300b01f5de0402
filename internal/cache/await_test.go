package cache

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waiters reports how many Await callers are registered on key.
func waiters(c *Cache, key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.arrivals[key]; w != nil {
		return w.n
	}
	return 0
}

// startAwait runs Await(key) in the background, returning once the
// caller is registered; the channel delivers the bytes it got ("" for
// none).
func startAwait(t *testing.T, c *Cache, ctx context.Context, key string) <-chan string {
	t.Helper()
	got := make(chan string, 1)
	before := waiters(c, key)
	go func() {
		val, ok := c.Await(ctx, key)
		if !ok {
			val = nil
		}
		got <- string(val)
	}()
	for deadline := time.Now().Add(5 * time.Second); waiters(c, key) == before; {
		if time.Now().After(deadline) {
			t.Fatalf("Await(%q) never registered", key)
		}
		time.Sleep(time.Millisecond)
	}
	return got
}

func expectWoken(t *testing.T, path string, got <-chan string, want string) {
	t.Helper()
	select {
	case v := <-got:
		if v != want {
			t.Fatalf("%s: Await got %q, want %q", path, v, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the store never woke Await", path)
	}
}

// TestAwaitWakesOnEveryStorePath: whichever path lands a key in the
// memory tier — a computation, a disk load (GetOrCompute, Peek,
// Prefetch), a peer fetch (GetOrCompute, Prefetch, PrefetchWait) — wakes
// the callers waiting on it with the stored bytes.
func TestAwaitWakesOnEveryStorePath(t *testing.T) {
	ts := peerServer(t, map[string][]byte{
		"peer-get": []byte(`"p1"`), "peer-prefetch": []byte(`"p2"`), "peer-wait": []byte(`"p3"`),
	})
	dir := t.TempDir()
	for _, k := range []string{"disk-get", "disk-peek", "disk-prefetch"} {
		if err := os.WriteFile(filepath.Join(dir, k), []byte(`"`+k+`"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := New(0, WithDir(dir), WithPeers(ts.URL))
	ctx := context.Background()

	cases := []struct {
		key, want string
		store     func(key string)
	}{
		{"computed", `"c"`, func(k string) { mustGet(t, c, k, `"c"`) }},
		{"disk-get", `"disk-get"`, func(k string) { mustGet(t, c, k, "unused") }},
		{"disk-peek", `"disk-peek"`, func(k string) { c.Peek(k) }},
		{"disk-prefetch", `"disk-prefetch"`, func(k string) { c.Prefetch(k) }},
		{"peer-get", `"p1"`, func(k string) { mustGet(t, c, k, "unused") }},
		{"peer-prefetch", `"p2"`, func(k string) { c.Prefetch(k) }},
		{"peer-wait", `"p3"`, func(k string) { c.PrefetchWait(ctx, k, time.Second) }},
	}
	for _, tc := range cases {
		got := startAwait(t, c, ctx, tc.key)
		tc.store(tc.key)
		expectWoken(t, tc.key, got, tc.want)
		if n := waiters(c, tc.key); n != 0 {
			t.Fatalf("%s: %d waiters left after the store", tc.key, n)
		}
	}
	// A key already stored returns at once, without registering.
	if v, ok := c.Await(ctx, "computed"); !ok || string(v) != `"c"` {
		t.Fatalf("Await on a stored key = %q, %v", v, ok)
	}
}

// TestAwaitWakesOnFlight: callers waiting while a computation runs
// wake when it completes, all of them with its bytes.
func TestAwaitWakesOnFlight(t *testing.T) {
	c := New(0)
	ctx := context.Background()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(ctx, "k", func() ([]byte, error) {
			<-release
			return []byte(`"flight"`), nil
		})
	}()
	for {
		if _, inflight := c.Contains("k"); inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a := startAwait(t, c, ctx, "k")
	b := startAwait(t, c, ctx, "k")
	if n := waiters(c, "k"); n != 2 {
		t.Fatalf("%d waiters registered, want 2", n)
	}
	close(release)
	<-done
	expectWoken(t, "flight", a, `"flight"`)
	expectWoken(t, "flight", b, `"flight"`)
}

// TestAwaitDeadlineLeavesNoWaiter: a wait whose context ends first
// returns empty-handed and unregisters; a failed computation wakes no
// one, since nothing was stored.
func TestAwaitDeadlineLeavesNoWaiter(t *testing.T) {
	c := New(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	a := startAwait(t, c, ctx, "k")
	b := startAwait(t, c, ctx, "k")
	c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return nil, errors.New("boom") })
	started := time.Now()
	expectWoken(t, "deadline", a, "")
	expectWoken(t, "deadline", b, "")
	if waited := time.Since(started); waited > 2*time.Second {
		t.Fatalf("Await outlived its 30ms deadline by %v", waited)
	}
	c.mu.Lock()
	left := len(c.arrivals)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d wait entries left behind", left)
	}
}

// holdingPeer fakes a peer's cache route with ?wait= semantics: a key
// it holds is served at once; any other request is held for the asked
// wait, then answered 404. waits records each wait it was asked for.
func holdingPeer(t *testing.T, values map[string][]byte, waits chan<- time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, PeerPath)
		d, _ := time.ParseDuration(r.URL.Query().Get("wait"))
		if waits != nil {
			waits <- d
		}
		if val, ok := values[key]; ok {
			w.Header().Set(HashHeader, BodyHash(val))
			w.Write(val)
			return
		}
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPrefetchWaitTakesFirstBody: every peer is long-polled at once and
// the first validated body is stored and written through, while a peer
// that never gets the key is not waited for.
func TestPrefetchWaitTakesFirstBody(t *testing.T) {
	empty := holdingPeer(t, nil, nil)
	holder := holdingPeer(t, map[string][]byte{"k": []byte(`"v"`)}, nil)
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithPeers(empty.URL, holder.URL), WithPeerTimeout(10*time.Second))
	started := time.Now()
	if !c.PrefetchWait(context.Background(), "k", 4*time.Second) {
		t.Fatalf("PrefetchWait missed a key a peer holds: %+v", c.Stats())
	}
	if waited := time.Since(started); waited > 2*time.Second {
		t.Fatalf("PrefetchWait waited %v on the empty peer", waited)
	}
	if v, ok := c.Peek("k"); !ok || string(v) != `"v"` {
		t.Fatalf("not stored: %q, %v", v, ok)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "k")); err != nil || string(b) != `"v"` {
		t.Fatalf("not written through: %q, %v", b, err)
	}
	// The empty peer's poll was cancelled, not failed.
	if s := c.Stats(); s.PeerHits != 1 || s.PeerErrors != 0 || s.PeersDegraded != 0 {
		t.Fatalf("stats: %+v", s)
	}
	// A stored key needs no poll at all.
	if !c.PrefetchWait(context.Background(), "k", time.Second) {
		t.Fatal("stored key reported absent")
	}
}

// TestPrefetchWaitEmptyIsMiss: a long-poll that ends empty is a clean
// 404 — a peer miss, never an error for the breaker — because the wait
// is clamped to half the peer timeout.
func TestPrefetchWaitEmptyIsMiss(t *testing.T) {
	asked := make(chan time.Duration, 3) // one per poll below
	ts := holdingPeer(t, nil, asked)
	c := New(0, WithPeers(ts.URL), WithPeerTimeout(100*time.Millisecond), WithDegrade(1, time.Hour))
	for i := 0; i < 3; i++ {
		if c.PrefetchWait(context.Background(), "k", time.Hour) {
			t.Fatal("empty long-poll reported a hit")
		}
		if d := <-asked; d != 50*time.Millisecond {
			t.Fatalf("peer asked to hold %v, want half the 100ms peer timeout", d)
		}
	}
	if s := c.Stats(); s.PeerMisses != 3 || s.PeerErrors != 0 || s.PeersDegraded != 0 {
		t.Fatalf("stats after empty long-polls: %+v", s)
	}
	if _, inflight := c.Contains("k"); inflight {
		t.Fatal("PrefetchWait registered a flight")
	}
}

// TestPrefetchWaitValidates: a long-polled body passes the checks a
// Prefetch body does — hash header, JSON, budget — or is a peer error,
// never stored.
func TestPrefetchWaitValidates(t *testing.T) {
	big := []byte(`"` + strings.Repeat("x", 100) + `"`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") == "" {
			t.Errorf("long-poll sent without ?wait=: %s", r.URL)
		}
		switch strings.TrimPrefix(r.URL.Path, PeerPath) {
		case "hash":
			w.Header().Set(HashHeader, BodyHash([]byte(`"stored"`)))
			w.Write([]byte(`"arrived"`))
		case "json":
			w.Header().Set(HashHeader, BodyHash([]byte(`{"torn":`)))
			w.Write([]byte(`{"torn":`))
		case "budget":
			w.Header().Set(HashHeader, BodyHash(big))
			w.Write(big)
		}
	}))
	t.Cleanup(ts.Close)
	c := New(64, WithPeers(ts.URL), WithDegrade(100, time.Hour))
	for i, key := range []string{"hash", "json", "budget"} {
		if c.PrefetchWait(context.Background(), key, time.Second) {
			t.Fatalf("%s: bad body accepted", key)
		}
		if s := c.Stats(); s.PeerErrors != uint64(i+1) || s.PeerHits != 0 || s.Entries != 0 {
			t.Fatalf("%s: stats %+v", key, s)
		}
	}
}

// TestPrefetchWaitCancelled: cancelling the caller's context ends the
// long-poll promptly and charges the peer nothing.
func TestPrefetchWaitCancelled(t *testing.T) {
	var held atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held.Add(1)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	c := New(0, WithPeers(ts.URL), WithPeerTimeout(10*time.Second), WithDegrade(1, time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for held.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	started := time.Now()
	if c.PrefetchWait(ctx, "k", 4*time.Second) {
		t.Fatal("cancelled long-poll reported a hit")
	}
	if waited := time.Since(started); waited > 2*time.Second {
		t.Fatalf("cancellation took %v to end the poll", waited)
	}
	if s := c.Stats(); s.PeerErrors != 0 || s.PeersDegraded != 0 {
		t.Fatalf("a cancelled poll fed the breaker: %+v", s)
	}
}
