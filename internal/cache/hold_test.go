package cache

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdRoute serves a cache the way the serving layer's GET
// /v1/cache/{hash} route does: Peek for a plain probe, Hold for one
// that asks to wait, the outcome in HoldHeader. c is set once the
// cache exists, so replicas can be handed each other's URLs first.
type holdRoute struct{ c *Cache }

func (rt *holdRoute) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, PeerPath)
	var (
		val  []byte
		ok   bool
		held string
	)
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		val, ok, held = rt.c.Hold(ctx, key, r.URL.Query().Get("from"))
		cancel()
	} else {
		val, ok = rt.c.Peek(key)
	}
	if held != "" {
		w.Header().Set(HoldHeader, held)
	}
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set(HashHeader, BodyHash(val))
	w.Write(val)
}

// flightOf returns key's flight state: whether one is registered, and
// its computing and again flags.
func flightOf(c *Cache, key string) (exists, computing, again bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.inflight[key]
	if f == nil {
		return false, false, false
	}
	return true, f.computing, f.again
}

// waitersOf returns how many callers and held probes wait on key's
// flight (0 without one).
func waitersOf(c *Cache, key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.inflight[key]; f != nil {
		return f.waiters
	}
	return 0
}

// waitFlight polls until key's flight satisfies cond.
func waitFlight(t *testing.T, c *Cache, key string, what string, cond func(exists, computing, again bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(flightOf(c, key)); {
		if time.Now().After(deadline) {
			t.Fatalf("flight for %q never %s", key, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedCompute starts a Do of key whose compute blocks
// until release is closed and then returns val or err; it returns once
// the flight is computing. The channel delivers the leader's outcome.
func blockedCompute(t *testing.T, c *Cache, key string, val []byte, err error, release <-chan struct{}) <-chan error {
	t.Helper()
	out := make(chan error, 1)
	go func() {
		_, _, e := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
			<-release
			return val, err
		})
		out <- e
	}()
	waitFlight(t, c, key, "started computing", func(_, computing, _ bool) bool { return computing })
	return out
}

type holdAnswer struct {
	val  string
	ok   bool
	held string
}

// watchedCtx reports when Hold first asks for its Done channel: Hold
// reads ctx only once it has decided to wait on the flight.
type watchedCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *watchedCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// startHeld runs Hold(key, from) in the background and returns once
// Hold is waiting on the flight; the channel delivers its answer.
func startHeld(t *testing.T, c *Cache, key, from string) <-chan holdAnswer {
	t.Helper()
	ctx := &watchedCtx{Context: context.Background(), waiting: make(chan struct{})}
	got := make(chan holdAnswer, 1)
	go func() {
		val, ok, held := c.Hold(ctx, key, from)
		got <- holdAnswer{string(val), ok, held}
	}()
	select {
	case <-ctx.waiting:
	case a := <-got:
		t.Fatalf("Hold(%q, from %q) answered %+v without waiting", key, from, a)
	case <-time.After(5 * time.Second):
		t.Fatalf("Hold(%q, from %q) never waited", key, from)
	}
	return got
}

func expectAnswer(t *testing.T, what string, got <-chan holdAnswer, want holdAnswer) {
	t.Helper()
	select {
	case a := <-got:
		if a != want {
			t.Fatalf("%s: Hold answered %+v, want %+v", what, a, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Hold never answered", what)
	}
}

// TestHoldStoredAtOnce: a stored key — in memory or on disk — answers
// at once, unheld, whoever asks.
func TestHoldStoredAtOnce(t *testing.T) {
	dir := t.TempDir()
	c := New(0, WithDir(dir), WithSelfID("b"))
	mustGet(t, c, "k", `"v"`)
	for _, from := range []string{"a", "b", "c", ""} {
		if val, ok, held := c.Hold(context.Background(), "k", from); !ok || string(val) != `"v"` || held != "" {
			t.Fatalf("from %q: Hold = %q, %v, %q", from, val, ok, held)
		}
	}
	// A disk-only key is stored too.
	if val, ok, held := New(0, WithDir(dir), WithSelfID("b")).Hold(context.Background(), "k", "c"); !ok || string(val) != `"v"` || held != "" {
		t.Fatalf("disk tier: Hold = %q, %v, %q", val, ok, held)
	}
	// No flight, nothing stored: a miss at once.
	if _, ok, held := c.Hold(context.Background(), "absent", "c"); ok || held != "" {
		t.Fatalf("absent key: ok %v held %q", ok, held)
	}
}

// TestHoldComputingUntilLanded: a computing flight holds any other
// prober until it lands, then hands it the flight's bytes.
func TestHoldComputingUntilLanded(t *testing.T) {
	c := New(0, WithSelfID("b"))
	release := make(chan struct{})
	leader := blockedCompute(t, c, "k", []byte(`"v"`), nil, release)
	low := startHeld(t, c, "k", "a")
	high := startHeld(t, c, "k", "c")
	close(release)
	expectAnswer(t, "lower prober", low, holdAnswer{`"v"`, true, HoldLanded})
	expectAnswer(t, "higher prober", high, holdAnswer{`"v"`, true, HoldLanded})
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
}

// TestHoldFailedFlightIsMiss: a flight that fails ends the hold with a
// plain miss, so the prober computes for itself.
func TestHoldFailedFlightIsMiss(t *testing.T) {
	c := New(0, WithSelfID("b"))
	release := make(chan struct{})
	leader := blockedCompute(t, c, "k", nil, errors.New("boom"), release)
	got := startHeld(t, c, "k", "c")
	close(release)
	expectAnswer(t, "failed flight", got, holdAnswer{"", false, HoldFailed})
	if err := <-leader; err == nil {
		t.Fatal("the leader's compute error was lost")
	}
}

// TestHoldSelfNeverHeld: a probe that names this replica itself is
// never held and marks nothing — a -peers list naming the replica
// itself must not wait on, or re-walk for, its own flight.
func TestHoldSelfNeverHeld(t *testing.T) {
	c := New(0, WithSelfID("b"))
	release := make(chan struct{})
	defer close(release)
	blockedCompute(t, c, "k", []byte(`"v"`), nil, release)
	// Bounded, so a held probe fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, ok, held := c.Hold(ctx, "k", "b"); ok || held != "" {
		t.Fatalf("self probe: ok %v held %q", ok, held)
	}
	if _, _, again := flightOf(c, "k"); again {
		t.Fatal("self probe marked the flight")
	}
}

// TestHoldDeadlineLeavesNothing: a hold whose context ends first is a
// "computing" miss, and leaves the flight exactly as it found it — the
// held waiter it added is gone again, and the leader's compute runs on.
func TestHoldDeadlineLeavesNothing(t *testing.T) {
	c := New(0, WithSelfID("b"))
	release := make(chan struct{})
	leader := blockedCompute(t, c, "k", []byte(`"v"`), nil, release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	started := time.Now()
	if _, ok, held := c.Hold(ctx, "k", "c"); ok || held != HoldComputing {
		t.Fatalf("expired hold: ok %v held %q, want a %q miss", ok, held, HoldComputing)
	}
	if took := time.Since(started); took < 30*time.Millisecond {
		t.Fatalf("hold ended after %v, before its 30ms deadline", took)
	}
	if exists, computing, again := flightOf(c, "k"); !exists || !computing || again {
		t.Fatalf("flight after an expired hold: exists %v computing %v again %v", exists, computing, again)
	}
	if n := waitersOf(c, "k"); n != 1 {
		t.Fatalf("flight after an expired hold has %d waiters, want the leader alone", n)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Inflight != 0 || s.Entries != 1 {
		t.Fatalf("after the flight landed: %+v", s)
	}
}

// TestHoldLookupRanksAndMarks: a flight still walking its peers holds
// only a prober whose ID sorts after this replica's. A lower-ranked
// prober gets a miss at once and marks the flight, and the leader walks
// the peers once more before it computes.
func TestHoldLookupRanksAndMarks(t *testing.T) {
	var probes atomic.Int32
	first := make(chan struct{})
	releaseFirst := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) == 1 {
			close(first)
			<-releaseFirst
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(releaseFirst) }) }
	t.Cleanup(release) // before peer.Close, should the test fail early
	c := New(0, WithSelfID("b"), WithPeers(peer.URL), WithPeerTimeout(10*time.Second))
	var computes atomic.Int32
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			computes.Add(1)
			return []byte(`"v"`), nil
		})
		leader <- err
	}()
	<-first // the leader is walking its peers

	higher := startHeld(t, c, "k", "c")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, ok, held := c.Hold(ctx, "k", "a"); ok || held != "" {
		t.Fatalf("lower-ranked prober: ok %v held %q, want a miss at once", ok, held)
	}
	if _, computing, again := flightOf(c, "k"); computing || !again {
		t.Fatalf("flight after refusing a hold: computing %v again %v, want marked", computing, again)
	}
	release()
	expectAnswer(t, "higher-ranked prober", higher, holdAnswer{`"v"`, true, HoldLanded})
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if n := probes.Load(); n != 2 {
		t.Fatalf("the marked leader probed its peer %d times, want 2 (one walk again)", n)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times", n)
	}
}

// TestPeerComputingReasked: a 404 marked "computing" is asked again,
// never charged to the peer's breaker, and settles as a peer hit once
// the peer's flight lands. The probe asks to be held for half the peer
// timeout and names this replica.
func TestPeerComputingReasked(t *testing.T) {
	var probes atomic.Int32
	var mu sync.Mutex
	var queries []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		if probes.Add(1) <= 3 {
			w.Header().Set(HoldHeader, HoldComputing)
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HoldHeader, HoldLanded)
		w.Header().Set(HashHeader, BodyHash([]byte(`"v"`)))
		w.Write([]byte(`"v"`))
	}))
	t.Cleanup(ts.Close)
	// One error would open the breaker.
	c := New(0, WithSelfID("a"), WithPeers(ts.URL), WithPeerTimeout(time.Second), WithDegrade(1, time.Hour))
	got, hit, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		t.Error("computed a key the peer was computing")
		return []byte(`"mine"`), nil
	})
	if err != nil || !hit || string(got) != `"v"` {
		t.Fatalf("Do = %q, %v, %v", got, hit, err)
	}
	s := c.Stats()
	if s.PeerHits != 1 || s.PeerMisses != 0 || s.PeerErrors != 0 || s.PeersDegraded != 0 || s.Misses != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if n := probes.Load(); n != 4 {
		t.Fatalf("peer probed %d times, want 4", n)
	}
	for _, q := range queries {
		if q != "wait=500ms&from=a" {
			t.Fatalf("probe query %q, want wait=500ms&from=a", q)
		}
	}
	// Held answers are not round trips.
	if n := c.m.peerRTT.Count(); n != 0 {
		t.Fatalf("%d held answers observed as round trips", n)
	}
}

// TestPeerKilledMidHold: a peer that dies while holding the probe is a
// peer error at once — not a wait for the flight — and the prober
// computes the key itself.
func TestPeerKilledMidHold(t *testing.T) {
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	go func() {
		<-arrived
		ts.CloseClientConnections()
	}()
	c := New(0, WithSelfID("c"), WithPeers(ts.URL), WithPeerTimeout(10*time.Second))
	started := time.Now()
	got, hit := mustGet(t, c, "k", `"mine"`)
	if hit || string(got) != `"mine"` {
		t.Fatalf("Do = %q, hit %v: want a fresh compute", got, hit)
	}
	if took := time.Since(started); took > 4*time.Second {
		t.Fatalf("the dead peer's probe took %v to fail", took)
	}
	if s := c.Stats(); s.PeerErrors != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestHoldComputesOnceAcrossReplicas: replicas that miss the same keys
// at the same moment compute each key once between them — the lowest
// ID computes, the others wait on it through the peer tier.
func TestHoldComputesOnceAcrossReplicas(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d replicas", n), func(t *testing.T) {
			routes := make([]*holdRoute, n)
			urls := make([]string, n)
			for i := range routes {
				routes[i] = &holdRoute{}
				ts := httptest.NewServer(routes[i])
				t.Cleanup(ts.Close)
				urls[i] = ts.URL
			}
			for i, rt := range routes {
				var peers []string
				for j, u := range urls {
					if j != i {
						peers = append(peers, u)
					}
				}
				rt.c = New(0, WithSelfID(fmt.Sprintf("r%d", i)), WithPeers(peers...), WithPeerTimeout(2*time.Second))
			}
			const keys = 16
			var computes [keys]atomic.Int32
			var wg sync.WaitGroup
			for k := 0; k < keys; k++ {
				for _, rt := range routes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						val, _, err := rt.c.Do(context.Background(), fmt.Sprint("k", k), func(context.Context) ([]byte, error) {
							computes[k].Add(1)
							time.Sleep(5 * time.Millisecond)
							return []byte(fmt.Sprintf(`"v%d"`, k)), nil
						})
						if err != nil || string(val) != fmt.Sprintf(`"v%d"`, k) {
							t.Errorf("key %d: %q, %v", k, val, err)
						}
					}()
				}
			}
			wg.Wait()
			for k := range computes {
				if got := computes[k].Load(); got != 1 {
					t.Errorf("key %d computed %d times across %d replicas", k, got, n)
				}
			}
		})
	}
}

// TestPeerFetchCancelledWithFlight: a peer fetch cut short because
// nobody waits for the key any more is no fault of the peer's: its
// breaker and counters do not see it, and nothing is computed.
func TestPeerFetchCancelledWithFlight(t *testing.T) {
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	// One counted error would open the breaker.
	c := New(0, WithSelfID("a"), WithPeers(ts.URL), WithPeerTimeout(10*time.Second), WithDegrade(1, time.Hour))
	ctx, leave := context.WithCancel(context.Background())
	got := call(c, ctx, "k", func(context.Context) ([]byte, error) {
		t.Error("computed a key nobody waits for")
		return nil, nil
	})
	<-arrived
	done := flightDone(t, c, "k")
	leave()
	expectOutcome(t, "leader", got, outcome{err: context.Canceled})
	<-done
	if s := c.Stats(); s.PeerErrors != 0 || s.PeerMisses != 0 || s.PeersDegraded != 0 || s.Misses != 0 {
		t.Fatalf("stats: %+v", s)
	}
}
