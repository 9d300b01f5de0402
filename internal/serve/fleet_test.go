package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qla/internal/cache"
	"qla/internal/engine"
	"qla/internal/faultinject"
	"qla/internal/jobs"
	"qla/internal/sweep"
)

// newFleetServers starts n replicas that list each other as peers.
// Peer URLs must be known before serve.New runs, so the listeners are
// bound first and handed to unstarted test servers.
func newFleetServers(t testing.TB, n int, mutate func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Peers:       peers,
			SelfID:      fmt.Sprintf("replica-%d", i),
			FleetPoll:   50 * time.Millisecond,
			PeerTimeout: time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srvs[i] = New(cfg)
		ts := httptest.NewUnstartedServer(srvs[i].Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return srvs, urls
}

// TestCacheRouteServesStoredBytes: GET /v1/cache/{hash} returns the
// exact cached Result bytes with the integrity header, and an unknown
// hash is an ordinary 404 — fleet mode not required for either.
func TestCacheRouteServesStoredBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec(70)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hash := resp.Header.Get("X-Spec-Hash")
	if resp.StatusCode != http.StatusOK || hash == "" {
		t.Fatalf("prime run: status %d hash %q", resp.StatusCode, hash)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache route: status %d %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("cache route bytes differ:\n%s\nvs\n%s", got, want)
	}
	if h := resp.Header.Get(cache.HashHeader); h != cache.BodyHash(want) {
		t.Fatalf("integrity header %q, want %q", h, cache.BodyHash(want))
	}
	if n := metric(t, ts.URL, "qla_serve_peer_serves_total"); n != 1 {
		t.Fatalf("peer serves = %v, want 1", n)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/" + strings.Repeat("00", 32))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetPeerCacheHit: a Spec computed on replica A is served on
// replica B from the peer tier — no local compute, visible in both
// replicas' counters.
func TestFleetPeerCacheHit(t *testing.T) {
	srvs, urls := newFleetServers(t, 2, nil)
	if status, xc, raw := postRun(t, urls[0], tinySpec(71)); status != http.StatusOK || xc != "miss" {
		t.Fatalf("run on A: status %d xcache %q %s", status, xc, raw)
	}
	status, xc, _ := postRun(t, urls[1], tinySpec(71))
	if status != http.StatusOK || xc != "hit" {
		t.Fatalf("run on B: status %d xcache %q, want a peer-tier hit", status, xc)
	}
	if n := srvs[1].runsExecuted.Value(); n != 0 {
		t.Fatalf("B executed %d runs, want 0 (peer tier should have served it)", n)
	}
	if n := metric(t, urls[1], "qla_cache_hits_total", `tier="peer"`); n != 1 {
		t.Fatalf("B peer-tier hits = %v, want 1", n)
	}
	if n := srvs[0].peerServes.Value(); n != 1 {
		t.Fatalf("A peer_serves = %d, want 1", n)
	}
}

// TestFleetSweepForwardedAndShared: a sweep submitted to one replica is
// forwarded to the other; both finish it with every point computed
// once between them, and the fleet counters show the peer probes
// waited on each other's computations. Replica 0's only worker slot is
// taken until a hold is seen, so its points cannot land before
// replica 1 asks for them.
func TestFleetSweepForwardedAndShared(t *testing.T) {
	srvs, urls := newFleetServers(t, 2, func(_ int, cfg *Config) { cfg.Workers = 1 })
	_, release, err := srvs[0].pool.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, sb, raw := postSweep(t, urls[0], fleetFig7Sweep(640, 7000))
	if sb.JobID == "" {
		release()
		t.Fatalf("submit failed: %s", raw)
	}
	held := func() float64 {
		return metric(t, urls[0], "qla_fleet_events_total", `event="held"`) +
			metric(t, urls[1], "qla_fleet_events_total", `event="held"`)
	}
	for deadline := time.Now().Add(10 * time.Second); held() == 0; {
		if time.Now().After(deadline) {
			release()
			t.Fatal("no peer probe was held on a computing point")
		}
		time.Sleep(10 * time.Millisecond)
	}
	release()

	snapA := pollJob(t, urls[0], sb.JobID)
	// The forward is fire-and-forget, but replica 1 holds the job by now:
	// a hold needs its probes.
	snapB := pollJob(t, urls[1], sb.JobID)
	if string(snapA.State) != "done" || string(snapB.State) != "done" {
		t.Fatalf("states A=%s B=%s", snapA.State, snapB.State)
	}
	var resA, resB sweep.Result
	getJSON(t, urls[0]+"/v1/jobs/"+sb.JobID+"/result", &resA)
	getJSON(t, urls[1]+"/v1/jobs/"+sb.JobID+"/result", &resB)
	if resA.OK != resA.Total || resB.OK != resB.Total {
		t.Fatalf("incomplete results: A %+v B %+v", resA, resB)
	}
	if computed := (resA.Total - resA.Cached) + (resB.Total - resB.Cached); computed != resA.Total {
		t.Fatalf("fleet computed %d points for a %d-point grid (A cached %d, B cached %d)",
			computed, resA.Total, resA.Cached, resB.Cached)
	}
	if n := metric(t, urls[0], "qla_fleet_events_total", `event="forwarded_sweeps"`); n != 1 {
		t.Fatalf("A forwarded %v sweeps, want 1", n)
	}
	// Settled jobs drop their ledgers.
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/leases/" + sb.JobID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("replica %d still serves the settled ledger: %d", i, resp.StatusCode)
		}
	}
}

// TestFleetLedgerReadsCache: GET /v1/leases/{sweep} lists the points of
// a running sweep that the replica's cache stores, whoever stored them.
// Every point is held on the fault seam, one of them failing
// permanently instead, so no point settles through the runner: the
// ledger lists the one point an earlier POST /v1/run stored, never the
// failed one, reports the grid size as its total, and is gone once the
// job settles.
func TestFleetLedgerReadsCache(t *testing.T) {
	body := fleetFig7Sweep(640, 7100)
	sw, err := sweep.Expand(mustDecodeSpec(t, body))
	if err != nil {
		t.Fatal(err)
	}
	srvs, urls := newFleetServers(t, 2, nil)
	// Replica 0 dispatches the failing point first, so it settles
	// however few points run at once; the run stores the next one.
	first := srvs[0].fleet.offset(sw)
	next := (first + 1) % len(sw.Points)
	failed, stored := sw.Points[first].Canonical.Hash, sw.Points[next].Canonical.Hash
	run := fmt.Sprintf(`{"experiment": "figure7", "params": {"phys-errors": [0.003], "trials": 640, "seed": %d}}`, 7100+next)
	if specHash(t, run) != stored {
		t.Fatal("setup: the run is not a point of the sweep")
	}
	release := make(chan struct{})
	for _, srv := range srvs {
		srv.fault = func(ctx context.Context, hash string) error {
			if hash == failed {
				return &faultinject.Error{Hash: hash, Perm: true}
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if status, _, raw := postRun(t, urls[0], run); status != http.StatusOK {
		t.Fatalf("run: status %d %s", status, raw)
	}
	_, sb, raw := postSweep(t, urls[0], body)
	if sb.JobID != sw.Hash {
		close(release)
		t.Fatalf("submit: %s", raw)
	}
	// Replica 0 has settled the failed point, and the forward has landed
	// on replica 1.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var snap jobs.Snapshot
		if getJSON(t, urls[0]+"/v1/jobs/"+sw.Hash, &snap) == http.StatusOK && snap.Progress.Failed == 1 &&
			getJSON(t, urls[1]+"/v1/jobs/"+sw.Hash, nil) == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("the failed point never settled on replica 0, or the sweep never reached replica 1: %+v", snap)
		}
	}
	var led Ledger
	if status := getJSON(t, urls[0]+"/v1/leases/"+sw.Hash, &led); status != http.StatusOK ||
		led.Sweep != sw.Hash || led.Total != len(sw.Points) || !slices.Equal(led.Done, []string{stored}) {
		close(release)
		t.Fatalf("ledger: status %d %+v, want total %d and done [%s]", status, led, len(sw.Points), stored)
	}
	close(release)
	for i, u := range urls {
		pollJob(t, u, sw.Hash)
		if status := getJSON(t, u+"/v1/leases/"+sw.Hash, nil); status != http.StatusNotFound {
			t.Fatalf("replica %d serves the settled sweep's ledger: status %d", i, status)
		}
	}
}

// TestFleetSelfListedPeer: a replica whose -peers names its own URL
// probes itself like any peer; its own probe is never held and marks
// nothing, so its runs and sweeps finish instead of walking their
// peers forever.
func TestFleetSelfListedPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + l.Addr().String()
	srv := New(Config{Peers: []string{self}, SelfID: "replica-0", PeerTimeout: time.Second})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(self+"/v1/run", "application/json", strings.NewReader(tinySpec(74)))
	if err != nil {
		t.Fatalf("run on a self-listed replica: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("run: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	_, sb, raw := postSweep(t, self, gridSweep)
	if snap := pollJob(t, self, sb.JobID); snap.State != jobs.StateDone {
		t.Fatalf("sweep on a self-listed replica: %+v %s", snap, raw)
	}
}

// TestFleetSyncerObeysCacheBreaker: a fleet peer has one breaker, the
// cache tier's. Three runs whose peer probes fail open it, and from
// then on the ledger syncer of a running sweep leaves the peer alone,
// however short its poll.
func TestFleetSyncerObeysCacheBreaker(t *testing.T) {
	var polls atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, cache.PeerPath):
			http.Error(w, "broken", http.StatusInternalServerError)
		case strings.HasPrefix(r.URL.Path, "/v1/leases/"):
			polls.Add(1)
			http.NotFound(w, r)
		default: // the sweep forward
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer peer.Close()
	srv, ts := newTestServer(t, Config{Peers: []string{peer.URL}, SelfID: "replica-0",
		FleetPoll: 10 * time.Millisecond, PeerTimeout: time.Second})
	for seed := 75; seed < 78; seed++ {
		if status, _, raw := postRun(t, ts.URL, tinySpec(seed)); status != http.StatusOK {
			t.Fatalf("run %d: status %d %s", seed, status, raw)
		}
	}
	if n := metric(t, ts.URL, "qla_cache_peers_degraded"); n != 1 {
		t.Fatalf("qla_cache_peers_degraded = %v after three failed probes, want 1", n)
	}

	release := make(chan struct{})
	srv.fault = func(ctx context.Context, _ string) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	_, sb, raw := postSweep(t, ts.URL, fleetFig7Sweep(64, 7200))
	if sb.JobID == "" {
		close(release)
		t.Fatalf("submit failed: %s", raw)
	}
	time.Sleep(200 * time.Millisecond)
	n := polls.Load()
	close(release)
	if snap := pollJob(t, ts.URL, sb.JobID); snap.State != jobs.StateDone {
		t.Fatalf("sweep: %+v", snap)
	}
	if n != 0 {
		t.Fatalf("the syncer polled a peer the cache tier skips %d times in 200ms, want 0", n)
	}
}

// specHash is the content address POST /v1/run reports for spec.
func specHash(t *testing.T, spec string) string {
	t.Helper()
	sp, err := engine.DecodeSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := engine.MakeCanonical(sp)
	if err != nil {
		t.Fatal(err)
	}
	return canon.Hash
}

// cacheAnswer is one GET /v1/cache/{hash} response.
type cacheAnswer struct {
	status int
	held   string // the cache.HoldHeader value
	body   []byte
	took   time.Duration
}

// getCache fetches GET /v1/cache/{hash} with the given query.
func getCache(t *testing.T, base, hash, query string) cacheAnswer {
	t.Helper()
	started := time.Now()
	resp, err := http.Get(base + "/v1/cache/" + hash + query)
	if err != nil {
		t.Error(err)
		return cacheAnswer{took: time.Since(started)}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return cacheAnswer{resp.StatusCode, resp.Header.Get(cache.HoldHeader), body, time.Since(started)}
}

// TestCacheRouteLongPoll: GET /v1/cache/{hash}?wait=D&from=ID may hold a
// probe on this replica's own flight for the key, for at most the peer
// timeout. A key nobody computes is a 404 at once, without the hold
// header. A POST /v1/run computing the key holds the probe until it
// lands and answers its bytes; a compute that outlasts the hold
// answers a 404 marked "computing" at about the hold. A prober naming
// this replica itself is never held, and a malformed or non-positive
// wait is a 400. The run's compute is kept from landing by taking the
// server's only worker slot.
func TestCacheRouteLongPoll(t *testing.T) {
	srv, ts := newTestServer(t, Config{SelfID: "replica-a", Workers: 1, PeerTimeout: 400 * time.Millisecond})
	spec := tinySpec(72)
	hash := specHash(t, spec)

	if a := getCache(t, ts.URL, strings.Repeat("00", 32), "?wait=1s&from=replica-z"); a.status != http.StatusNotFound || a.held != "" || a.took > 50*time.Millisecond {
		t.Fatalf("unknown key: status %d held %q after %v, want an unheld 404 at once", a.status, a.held, a.took)
	}
	for _, q := range []string{"?wait=abc", "?wait=-1s", "?wait=0s"} {
		if a := getCache(t, ts.URL, hash, q); a.status != http.StatusBadRequest {
			t.Fatalf("%s: status %d %s, want 400", q, a.status, a.body)
		}
	}

	_, release, err := srv.pool.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ran := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Error(err)
			ran <- nil
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ran <- body
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, inflight := srv.cache.Contains(hash); inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the run never started computing")
		}
	}

	// wait=1h is clamped to the 400ms peer timeout.
	if a := getCache(t, ts.URL, hash, "?wait=1h&from=replica-z"); a.status != http.StatusNotFound || a.held != cache.HoldComputing ||
		a.took < 400*time.Millisecond || a.took > 5*time.Second {
		t.Fatalf("compute outlasting the hold: status %d held %q after %v, want a %q 404 at the 400ms peer timeout",
			a.status, a.held, a.took, cache.HoldComputing)
	}
	if a := getCache(t, ts.URL, hash, "?wait=1h&from=replica-a"); a.status != http.StatusNotFound || a.held != "" || a.took > 200*time.Millisecond {
		t.Fatalf("self probe: status %d held %q after %v, want an unheld 404 at once", a.status, a.held, a.took)
	}

	held := make(chan cacheAnswer, 1)
	go func() { held <- getCache(t, ts.URL, hash, "?wait=1h&from=replica-z") }()
	for deadline := time.Now().Add(5 * time.Second); srv.httpInflight.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the probe never reached the server")
		}
	}
	time.Sleep(50 * time.Millisecond) // the probe settles into its hold
	select {
	case a := <-held:
		t.Fatalf("probe answered %d (held %q) while the run was still computing", a.status, a.held)
	default:
	}
	release()
	want := <-ran
	if a := <-held; a.status != http.StatusOK || a.held != cache.HoldLanded || string(a.body) != string(want) {
		t.Fatalf("held probe: status %d held %q body %q, want the run's bytes", a.status, a.held, a.body)
	}
}

// fleetFig7Sweep is a never-seen 8-point figure7 sweep of trials each:
// its seeds start at first, so distinct firsts are distinct sweeps.
func fleetFig7Sweep(trials, first int) string {
	seeds := make([]string, 8)
	for i := range seeds {
		seeds[i] = strconv.Itoa(first + i)
	}
	return fmt.Sprintf(`{
  "base": {"experiment": "figure7", "params": {"phys-errors": [0.003], "trials": %d}},
  "axes": [{"field": "params.seed", "values": [%s]}]
}`, trials, strings.Join(seeds, ", "))
}

// TestFleetHoldComputesOnce: a replica that misses a point a peer is
// computing waits on that peer's computation through its cache route,
// so each point is computed exactly once fleet-wide. With hour-long
// ledger polls no prefetch can settle a point, so a replica that slept
// instead of waiting on the computing peer would stall its sweep. Two
// replicas settle three sweeps submitted to one of them; three replicas
// settle a sweep every one of them receives at the same moment.
func TestFleetHoldComputesOnce(t *testing.T) {
	for _, tc := range []struct {
		replicas, sweeps int
		everywhere       bool
	}{{2, 3, false}, {3, 1, true}} {
		t.Run(fmt.Sprintf("%d replicas", tc.replicas), func(t *testing.T) {
			_, urls := newFleetServers(t, tc.replicas, func(_ int, cfg *Config) { cfg.FleetPoll = time.Hour })
			for k := 0; k < tc.sweeps; k++ {
				body := fleetFig7Sweep(640, 9000+100*tc.replicas+8*k)
				targets := urls[:1]
				if tc.everywhere {
					targets = urls
				}
				var wg sync.WaitGroup
				for _, u := range targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						resp, err := http.Post(u+"/v1/sweeps", "application/json", strings.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode >= 300 {
							t.Errorf("submit to %s: status %d", u, resp.StatusCode)
						}
					}()
				}
				wg.Wait()
				id := sweepID(t, body)
				deadline := time.Now().Add(15 * time.Second)
				computed, total := 0, 0
				for i, u := range urls {
					for {
						var snap jobs.Snapshot
						status := getJSON(t, u+"/v1/jobs/"+id, &snap)
						if status == http.StatusOK && snap.State.Finished() {
							if snap.State != jobs.StateDone {
								t.Fatalf("sweep %d on replica %d: %s", k, i, snap.State)
							}
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("sweep %d on replica %d not done within 15s: status %d %+v", k, i, status, snap)
						}
						time.Sleep(5 * time.Millisecond)
					}
					var res sweep.Result
					getJSON(t, u+"/v1/jobs/"+id+"/result", &res)
					if res.OK != res.Total {
						t.Fatalf("sweep %d on replica %d: ok %d of %d", k, i, res.OK, res.Total)
					}
					computed += res.Total - res.Cached
					total = res.Total
				}
				if computed != total {
					t.Fatalf("sweep %d: %d replicas computed %d points for a %d-point grid", k, tc.replicas, computed, total)
				}
			}
		})
	}
}

// sweepID is the job ID POST /v1/sweeps reports for body.
func sweepID(t *testing.T, body string) string {
	t.Helper()
	sw, err := sweep.Expand(mustDecodeSpec(t, body))
	if err != nil {
		t.Fatal(err)
	}
	return sw.Hash
}
