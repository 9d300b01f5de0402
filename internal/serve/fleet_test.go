package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qla/internal/cache"
	"qla/internal/obs"
	"qla/internal/sweep"
)

// newFleetServers starts n replicas that list each other as peers.
// Peer URLs must be known before serve.New runs, so the listeners are
// bound first and handed to unstarted test servers.
func newFleetServers(t *testing.T, n int, mutate func(i int, cfg *Config)) ([]*Server, []string) {
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
			LeaseTTL:    2 * time.Second,
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
// forwarded to the other; both finish it, the lease protocol keeps
// duplicated compute near zero, and the fleet counters show the
// coordination happened.
func TestFleetSweepForwardedAndShared(t *testing.T) {
	_, urls := newFleetServers(t, 2, nil)
	_, sb, _ := postSweep(t, urls[0], gridSweep)

	// The forward is fire-and-forget; B learns about the job when the
	// replicated POST lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap struct{ ID string }
		if status := getJSON(t, urls[1]+"/v1/jobs/"+sb.JobID, &snap); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never forwarded to B", sb.JobID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	snapA := pollJob(t, urls[0], sb.JobID)
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
	// Every point computes somewhere once; the lease protocol plus the
	// shared cache tier should keep cross-replica duplicates to at most
	// a race or two.
	computed := (resA.Total - resA.Cached) + (resB.Total - resB.Cached)
	if computed < resA.Total || computed > resA.Total+3 {
		t.Fatalf("fleet computed %d points for a %d-point grid (A cached %d, B cached %d)",
			computed, resA.Total, resA.Cached, resB.Cached)
	}
	if n := metric(t, urls[0], "qla_fleet_events_total", `event="forwarded_sweeps"`); n != 1 {
		t.Fatalf("A forwarded %v sweeps, want 1", n)
	}
	claims := metric(t, urls[0], "qla_fleet_events_total", `event="claims_sent"`) +
		metric(t, urls[1], "qla_fleet_events_total", `event="claims_sent"`)
	if claims == 0 {
		t.Fatal("no lease claims were sent; the gate never engaged")
	}
	// Settled jobs drop their lease tables; later claims 404 (no veto).
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/leases/" + sb.JobID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("replica %d still serves the settled lease table: %d", i, resp.StatusCode)
		}
	}
}

// TestFleetClaimProtocol drives the lease state machine directly:
// grant, deny-while-leased, renewal, expiry recovery, done denial, and
// the lowest-ID tie-break.
func TestFleetClaimProtocol(t *testing.T) {
	sw, err := sweep.Expand(mustDecodeSpec(t, gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(Config{
		SelfID:      "b",
		Peers:       []string{"http://127.0.0.1:1"},
		LeaseTTL:    50 * time.Millisecond,
		FleetPoll:   time.Second,
		PeerTimeout: time.Second,
	}, cache.New(1<<20), slog.New(slog.DiscardHandler), obs.NewRegistry())
	pt := sw.Points[0].Canonical.Hash

	if _, _, known := f.claim("nope", pt, "a"); known {
		t.Fatal("unknown sweep claimed")
	}
	f.register(sw)
	if granted, state, known := f.claim(sw.Hash, pt, "a"); !known || !granted || state != "leased" {
		t.Fatalf("fresh claim: granted=%v state=%q known=%v", granted, state, known)
	}
	if granted, _, _ := f.claim(sw.Hash, pt, "z"); granted {
		t.Fatal("live foreign lease granted to a second claimer")
	}
	if granted, _, _ := f.claim(sw.Hash, pt, "a"); !granted {
		t.Fatal("holder's own renewal denied")
	}
	time.Sleep(60 * time.Millisecond) // past the TTL: the dead-lessee path
	if granted, _, _ := f.claim(sw.Hash, pt, "z"); !granted {
		t.Fatal("expired lease not reclaimable")
	}

	// Tie-break: we ("b") hold a live self-lease; a lower ID's claim
	// wins it, a higher ID's does not.
	pt2 := sw.Points[1].Canonical.Hash
	if granted, _, _ := f.claim(sw.Hash, pt2, "b"); !granted {
		t.Fatal("self-lease setup failed")
	}
	if granted, _, _ := f.claim(sw.Hash, pt2, "z"); granted {
		t.Fatal("higher ID won the tie-break")
	}
	if granted, _, _ := f.claim(sw.Hash, pt2, "a"); !granted {
		t.Fatal("lower ID lost the tie-break")
	}

	pt3 := sw.Points[2].Canonical.Hash
	f.markDone(sw.Hash, pt3)
	if granted, state, _ := f.claim(sw.Hash, pt3, "a"); granted || state != "done" {
		t.Fatalf("done point: granted=%v state=%q", granted, state)
	}

	f.unregister(sw.Hash)
	if _, _, known := f.claim(sw.Hash, pt, "a"); known {
		t.Fatal("unregistered sweep still claimable")
	}
}

// TestLeaseRouteErrors: the lease routes 404 without fleet mode or an
// active sweep, and reject claims that name no holder.
func TestLeaseRouteErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no peers: fleet off
	resp, err := http.Post(ts.URL+"/v1/leases/x/y?holder=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("claim without fleet mode: %d, want 404", resp.StatusCode)
	}

	_, urls := newFleetServers(t, 2, nil)
	resp, err = http.Post(urls[0]+"/v1/leases/x/y", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("claim without holder: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(urls[0]+"/v1/leases/x/y?holder=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("claim for unknown sweep: %d, want 404", resp.StatusCode)
	}
}

// TestFleetRenewExtendsOwnLease: renew pushes out the local expiry of
// a lease this replica holds — and only then; foreign, done, and
// unknown leases are left alone.
func TestFleetRenewExtendsOwnLease(t *testing.T) {
	sw, err := sweep.Expand(mustDecodeSpec(t, gridSweep))
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(Config{
		SelfID:      "b",
		Peers:       []string{"http://127.0.0.1:1"},
		LeaseTTL:    time.Minute,
		FleetPoll:   time.Second,
		PeerTimeout: 100 * time.Millisecond,
	}, cache.New(1<<20), slog.New(slog.DiscardHandler), obs.NewRegistry())
	f.register(sw)
	ctx := context.Background()

	mine := sw.Points[0].Canonical.Hash
	if granted, _, _ := f.claim(sw.Hash, mine, "b"); !granted {
		t.Fatal("self-claim failed")
	}
	f.mu.Lock()
	before := f.sweeps[sw.Hash].points[mine].expiry
	f.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	f.renew(ctx, sw.Hash, mine)
	f.mu.Lock()
	after := f.sweeps[sw.Hash].points[mine].expiry
	f.mu.Unlock()
	if !after.After(before) {
		t.Fatalf("renewal did not extend expiry: %v -> %v", before, after)
	}
	if got := f.leaseRenewals.Value(); got != 1 {
		t.Errorf("leaseRenewals = %d, want 1", got)
	}

	// A point held by someone else must not be renewed by us.
	theirs := sw.Points[1].Canonical.Hash
	if granted, _, _ := f.claim(sw.Hash, theirs, "a"); !granted {
		t.Fatal("foreign claim failed")
	}
	f.mu.Lock()
	before = f.sweeps[sw.Hash].points[theirs].expiry
	f.mu.Unlock()
	f.renew(ctx, sw.Hash, theirs)
	f.mu.Lock()
	after = f.sweeps[sw.Hash].points[theirs].expiry
	f.mu.Unlock()
	if !after.Equal(before) {
		t.Error("renewal touched a foreign lease")
	}

	// Done and unknown points are no-ops rather than panics.
	done := sw.Points[2].Canonical.Hash
	f.markDone(sw.Hash, done)
	f.renew(ctx, sw.Hash, done)
	f.renew(ctx, "nope", mine)
	f.renew(ctx, sw.Hash, "nope")
	if got := f.leaseRenewals.Value(); got != 1 {
		t.Errorf("leaseRenewals = %d after no-op renewals, want 1", got)
	}
}
