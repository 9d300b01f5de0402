package serve

// Fleet mode: qlaserve replicas started with -peers cooperate on the
// same workload. Three mechanisms compose, all keyed by content
// addresses (the sweep hash and per-point Spec hashes), so no replica
// needs a coordinator or any shared state beyond HTTP:
//
//   - GET /v1/cache/{hash} serves this replica's stored Result bytes to
//     the others — the peer tier internal/cache probes between a local
//     disk miss and a fresh computation.
//   - POST /v1/sweeps submissions are forwarded to every peer (marked
//     with a header so they are never re-forwarded), and identical
//     submissions collapse by content address, so the whole fleet runs
//     the same job and races through its grid together.
//   - POST /v1/leases/{sweep}/{point} claims a per-point lease before a
//     replica computes a point every cache tier missed. A replica
//     grants a claim unless the point is done locally or leased to
//     someone else; simultaneous cross-claims resolve deterministically
//     (lowest replica ID wins). Leases expire after LeaseTTL and are
//     journaled, so a SIGKILLed lessee's points simply fall back to
//     pending — the surviving replicas' gates admit them once the lease
//     lapses, and crash replay (the journal) re-admits the dead
//     replica's own job on restart.
//
// A point deferred to a peer's lease waits for the holder's bytes, not
// for a timer: the runner long-polls every peer's cache route
// (GET /v1/cache/{hash}?wait=D) and settles the point the moment one
// answers with the validated body.
//
// A syncer goroutine per active sweep polls each peer's lease ledger
// (GET /v1/leases/{sweep}) and prefetches completions into the local
// cache, so the fleet's results converge onto every replica while the
// sweep runs — the property the kill -9 e2e test asserts: the survivor
// finishes the dead replica's points from its own copy of their bytes.
//
// Unreachable peers never veto and never block: per-peer circuit
// breakers (internal/breaker) skip a dead peer after a few consecutive
// errors, and a partitioned fleet degrades to replicas computing
// independently — duplicated work the shared tier absorbs, never a
// stalled sweep.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"qla/internal/breaker"
	"qla/internal/cache"
	"qla/internal/journal"
	"qla/internal/obs"
	"qla/internal/sweep"
)

// forwardHeader marks a replicated sweep submission with the sender's
// replica ID so receivers admit it without re-forwarding — the fleet's
// loop-prevention bit.
const forwardHeader = "X-QLA-Forwarded"

// Per-peer breaker knobs: skip a peer after a few consecutive errors,
// probe it occasionally.
const (
	fleetDegradeAfter = 3
	fleetProbeEvery   = 5 * time.Second
)

// fleet is the per-server coordination state of fleet mode.
type fleet struct {
	self   string
	peers  []string
	ttl    time.Duration
	poll   time.Duration
	cache  *cache.Cache
	client *http.Client
	log    *slog.Logger

	// breakers holds one breaker per peer; the map is fixed at
	// construction.
	breakers map[string]*breaker.Breaker

	mu     sync.Mutex
	sweeps map[string]*fleetSweep

	// Protocol event counts, children of qla_fleet_events_total{event}:
	// the only place they live.
	forwarded, claimsSent, claimsDenied, claimErrors       *obs.Counter
	leasesGranted, leaseDenials, prefetched, leaseRenewals *obs.Counter
	awaited, awaitMisses                                   *obs.Counter
}

// fleetSweep tracks one active sweep's per-point lease table.
type fleetSweep struct {
	points map[string]*pointLease
}

// pointLease is one point's coordination state: free (zero value),
// leased (holder + expiry), or done.
type pointLease struct {
	holder string
	expiry time.Time
	done   bool
}

func newFleet(cfg Config, c *cache.Cache, logger *slog.Logger, reg *obs.Registry) *fleet {
	f := &fleet{
		self:     cfg.SelfID,
		peers:    cfg.Peers,
		ttl:      cfg.LeaseTTL,
		poll:     cfg.FleetPoll,
		cache:    c,
		client:   &http.Client{Timeout: cfg.PeerTimeout},
		log:      logger.With("subsystem", "fleet", "self", cfg.SelfID),
		breakers: make(map[string]*breaker.Breaker, len(cfg.Peers)),
		sweeps:   make(map[string]*fleetSweep),
	}
	for _, p := range cfg.Peers {
		f.breakers[p] = breaker.New(fleetDegradeAfter, fleetProbeEvery)
	}
	ev := reg.CounterVec("qla_fleet_events_total",
		"Fleet protocol events: sweeps forwarded, lease claims sent/denied/failed, claims granted/denied to peers, completions prefetched, lease renewals, deferred points whose long-poll brought the bytes or ended empty.",
		"event")
	f.forwarded, f.claimsSent = ev.With("forwarded_sweeps"), ev.With("claims_sent")
	f.claimsDenied, f.claimErrors = ev.With("claims_denied"), ev.With("claim_errors")
	f.leasesGranted, f.leaseDenials = ev.With("leases_granted"), ev.With("lease_denials")
	f.prefetched, f.leaseRenewals = ev.With("prefetched"), ev.With("lease_renewals")
	f.awaited, f.awaitMisses = ev.With("awaited"), ev.With("await_misses")
	return f
}

// register builds the lease table for sw; idempotent so a resubmission
// joining the running job never resets live leases.
func (f *fleet) register(sw *sweep.Sweep) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if _, ok := f.sweeps[sw.Hash]; !ok {
		pts := make(map[string]*pointLease, len(sw.Points))
		for _, pt := range sw.Points {
			pts[pt.Canonical.Hash] = &pointLease{}
		}
		f.sweeps[sw.Hash] = &fleetSweep{points: pts}
	}
	f.mu.Unlock()
}

// unregister drops the lease table once the local job settles. Later
// claims 404, which claimers read as "no veto" — correct, because every
// result this replica produced is in the shared cache tier by then.
func (f *fleet) unregister(sweepHash string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.sweeps, sweepHash)
	f.mu.Unlock()
}

// markDone records a locally settled point, clearing any lease on it.
func (f *fleet) markDone(sweepHash, pointHash string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if fs := f.sweeps[sweepHash]; fs != nil {
		if pl := fs.points[pointHash]; pl != nil {
			pl.done = true
			pl.holder = ""
		}
	}
	f.mu.Unlock()
}

// offset is this replica's deterministic starting rotation for sw:
// different replicas drain the grid from different offsets so they
// meet in the middle instead of contending on every point in order.
func (f *fleet) offset(sw *sweep.Sweep) int {
	if f == nil || len(sw.Points) == 0 {
		return 0
	}
	h := fnv.New32a()
	io.WriteString(h, f.self)
	io.WriteString(h, sw.Hash)
	return int(h.Sum32() % uint32(len(sw.Points)))
}

// claim decides an inbound lease claim from holder. known=false means
// this replica is not tracking the sweep/point (the handler 404s and
// the claimer proceeds without a veto).
func (f *fleet) claim(sweepHash, pointHash, holder string) (granted bool, state string, known bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.sweeps[sweepHash]
	if fs == nil {
		return false, "", false
	}
	pl := fs.points[pointHash]
	if pl == nil {
		return false, "", false
	}
	now := time.Now()
	switch {
	case pl.done:
		// Already computed here: the claimer's next cache probe will
		// find the bytes, so denying is cheaper than letting it run.
		f.leaseDenials.Inc()
		return false, "done", true
	case pl.holder == holder:
		// Renewal of the claimer's own lease.
		pl.expiry = now.Add(f.ttl)
		return true, "leased", true
	case pl.holder == f.self && now.Before(pl.expiry) && holder < f.self:
		// Simultaneous cross-claim: both replicas tentatively
		// self-leased the point and claimed each other in the same
		// instant. Lowest ID wins, deterministically, in one round —
		// we yield here while the peer denies our in-flight claim.
		// (A committed local compute never reaches this arm: once our
		// own claim round succeeded, the peer's table holds our lease
		// and its gate defers instead of claiming.)
		pl.holder, pl.expiry = holder, now.Add(f.ttl)
		f.leasesGranted.Inc()
		return true, "leased", true
	case pl.holder != "" && now.Before(pl.expiry):
		f.leaseDenials.Inc()
		return false, "leased", true
	default:
		// Free, or an expired lease — the dead-lessee recovery path.
		pl.holder, pl.expiry = holder, now.Add(f.ttl)
		f.leasesGranted.Inc()
		return true, "leased", true
	}
}

// gate implements sweep.GateFunc for one sweep: may this replica
// compute pointHash now? The local table is the fast path (a live
// foreign lease defers without network); otherwise the point is
// tentatively self-leased — so concurrent inbound claims are denied or
// tie-broken while we ask — and every reachable peer must grant.
// Unreachable peers and peers not tracking the sweep have no veto:
// availability wins, and the worst case is duplicated work the shared
// cache tier dedups. Granted leases are journaled so crash replay
// knows which points this replica had claimed.
func (f *fleet) gate(ctx context.Context, entry *journal.Entry, sweepHash, pointHash string) sweep.GateDecision {
	f.mu.Lock()
	fs := f.sweeps[sweepHash]
	if fs == nil {
		f.mu.Unlock()
		return sweep.GateProceed
	}
	pl := fs.points[pointHash]
	if pl == nil || pl.done {
		f.mu.Unlock()
		return sweep.GateProceed
	}
	now := time.Now()
	if pl.holder != "" && pl.holder != f.self && now.Before(pl.expiry) {
		f.mu.Unlock()
		return sweep.GateDefer
	}
	pl.holder, pl.expiry = f.self, now.Add(f.ttl)
	f.mu.Unlock()

	for _, peer := range f.peers {
		granted, err := f.claimFrom(ctx, peer, sweepHash, pointHash)
		if err != nil {
			f.claimErrors.Inc()
			continue
		}
		if !granted {
			f.claimsDenied.Inc()
			f.mu.Lock()
			// Release only our own tentative claim — a concurrent
			// tie-break may already have reassigned the lease.
			if cur := fs.points[pointHash]; cur != nil && cur.holder == f.self {
				cur.holder = ""
			}
			f.mu.Unlock()
			return sweep.GateDefer
		}
	}
	entry.Lease(pointHash, f.self)
	return sweep.GateProceed
}

// renew re-asserts this replica's lease on a point still computing:
// the local expiry is pushed out and every peer is re-claimed (a
// same-holder claim is a renewal at the grantor, extending its table's
// expiry too). Called by the sweep runner at half the lease TTL, so a
// slow point never outlives its lease and gets duplicated by a peer
// that mistook the TTL for a death certificate. Every failure is
// ignored: a missed renewal just falls back to expiry semantics.
func (f *fleet) renew(ctx context.Context, sweepHash, pointHash string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	fs := f.sweeps[sweepHash]
	var pl *pointLease
	if fs != nil {
		pl = fs.points[pointHash]
	}
	if pl == nil || pl.done || pl.holder != f.self {
		// Not ours (anymore): a tie-break may have reassigned it while
		// we computed. Renewing would re-steal it — leave it alone.
		f.mu.Unlock()
		return
	}
	pl.expiry = time.Now().Add(f.ttl)
	f.mu.Unlock()
	f.leaseRenewals.Inc()
	for _, peer := range f.peers {
		if _, err := f.claimFrom(ctx, peer, sweepHash, pointHash); err != nil {
			f.claimErrors.Inc()
		}
	}
}

// await is the sweep runner's deferral wait: a point deferred to a
// peer's lease long-polls every peer's cache route for its bytes
// instead of sleeping. The holder answers the moment the point lands in
// its memory tier — and keeps answering after it retires the sweep, so
// a waiter never sits out a lease whose holder is done. The cache
// clamps the wait to half the peer timeout, so an empty long-poll is a
// clean 404 rather than a client timeout that feeds the peer breaker.
func (f *fleet) await(ctx context.Context, pointHash string, wait time.Duration) bool {
	if f.cache.PrefetchWait(ctx, pointHash, wait) {
		f.awaited.Inc()
		return true
	}
	f.awaitMisses.Inc()
	return false
}

// leaseBody is the POST /v1/leases/{sweep}/{point} response payload.
type leaseBody struct {
	// Granted says the claim succeeded; State is the point's standing
	// at the grantor ("leased" or "done").
	Granted bool   `json:"granted"`
	State   string `json:"state"`
}

// claimFrom posts one lease claim to one peer, through its breaker.
func (f *fleet) claimFrom(ctx context.Context, peer, sweepHash, pointHash string) (bool, error) {
	if !f.breakers[peer].Allow() {
		return false, fmt.Errorf("fleet: peer %s circuit open", peer)
	}
	f.claimsSent.Inc()
	granted, err := f.postClaim(ctx, peer, sweepHash, pointHash)
	f.record(peer, err)
	return granted, err
}

// record feeds one request's outcome to peer's breaker, logging once
// per episode: the steady state of a dead peer is silent skips.
func (f *fleet) record(peer string, err error) {
	switch f.breakers[peer].Record(err) {
	case breaker.Opened:
		f.log.Warn("fleet peer skipped", "peer", peer, "consecutive_errors", fleetDegradeAfter,
			"err", err, "probe_every", fleetProbeEvery)
	case breaker.Closed:
		f.log.Info("fleet peer reachable again", "peer", peer)
	}
}

func (f *fleet) postClaim(ctx context.Context, peer, sweepHash, pointHash string) (bool, error) {
	u := peer + "/v1/leases/" + sweepHash + "/" + pointHash + "?holder=" + url.QueryEscape(f.self)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return false, err
	}
	// The claim carries the sweep's trace, so the grantor's log line
	// joins the same story as the origin's admission.
	if id := obs.TraceFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		// The peer is not tracking the sweep (not forwarded yet, or its
		// job already settled): it has no veto.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return true, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return false, fmt.Errorf("fleet: peer %s: claim status %d", peer, resp.StatusCode)
	}
	var body leaseBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return false, err
	}
	return body.Granted, nil
}

// forward replicates a freshly admitted sweep to every peer,
// fire-and-forget: content addressing makes the POST idempotent, the
// forward header stops re-forwarding, and a peer that misses it only
// loses the chance to help (its cache still converges via the others).
func (f *fleet) forward(sw *sweep.Sweep, timeout time.Duration, tenant, trace string) {
	if f == nil {
		return
	}
	log := f.log
	if trace != "" {
		log = log.With("trace", trace)
	}
	for _, peer := range f.peers {
		go func(peer string) {
			u := peer + "/v1/sweeps?timeout=" + url.QueryEscape(timeout.String())
			req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(sw.JSON))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(forwardHeader, f.self)
			if tenant != "" {
				// The owner travels with the forward, so every replica
				// quota-accounts and fair-shares the sweep identically.
				req.Header.Set(TenantHeader, tenant)
			}
			if trace != "" {
				// The goroutine outlives the submitting request, so the
				// trace travels by value, not context: the peer's
				// admission logs under the same ID as ours.
				req.Header.Set(obs.TraceHeader, trace)
			}
			resp, err := f.client.Do(req)
			if err != nil {
				log.Warn("sweep forward failed", "sweep", sw.Hash[:12], "peer", peer, "err", err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				log.Warn("sweep forward refused", "sweep", sw.Hash[:12], "peer", peer, "status", resp.StatusCode)
				return
			}
			f.forwarded.Inc()
		}(peer)
	}
}

// sync polls each peer's lease ledger for sweepHash until done closes,
// prefetching completions this replica does not hold into the local
// cache tiers. This is what bounds the damage of a SIGKILLed replica:
// its finished points are already local (or one peer-tier probe away)
// on every survivor.
func (f *fleet) sync(sweepHash string, done <-chan struct{}) {
	if f == nil {
		return
	}
	t := time.NewTicker(f.poll)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		for _, peer := range f.peers {
			for _, h := range f.peerDone(peer, sweepHash) {
				if stored, inflight := f.cache.Contains(h); stored || inflight {
					continue
				}
				if f.cache.Prefetch(h) {
					f.prefetched.Inc()
				}
			}
		}
	}
}

// peerDone fetches the point hashes peer has completed for sweepHash;
// every failure is just an empty answer (and breaker food).
func (f *fleet) peerDone(peer, sweepHash string) []string {
	if !f.breakers[peer].Allow() {
		return nil
	}
	resp, err := f.client.Get(peer + "/v1/leases/" + sweepHash)
	f.record(peer, err)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil
	}
	var led LeaseLedger
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&led); err != nil {
		return nil
	}
	return led.Done
}

// LeaseLedger is the GET /v1/leases/{sweep} payload: this replica's
// view of one active sweep — which points it has settled and which are
// under a live lease (point hash → holder ID).
type LeaseLedger struct {
	Sweep  string            `json:"sweep"`
	Total  int               `json:"total"`
	Done   []string          `json:"done"`
	Leased map[string]string `json:"leased,omitempty"`
}

// ledger snapshots the lease table for the polling route.
func (f *fleet) ledger(sweepHash string) (LeaseLedger, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.sweeps[sweepHash]
	if fs == nil {
		return LeaseLedger{}, false
	}
	led := LeaseLedger{Sweep: sweepHash, Total: len(fs.points), Done: make([]string, 0, len(fs.points))}
	now := time.Now()
	for h, pl := range fs.points {
		switch {
		case pl.done:
			led.Done = append(led.Done, h)
		case pl.holder != "" && now.Before(pl.expiry):
			if led.Leased == nil {
				led.Leased = make(map[string]string)
			}
			led.Leased[h] = pl.holder
		}
	}
	sort.Strings(led.Done)
	return led, true
}

// handleCacheGet is GET /v1/cache/{hash}: the peer cache route — the
// raw cached Result bytes for one content address, from this replica's
// local tiers only (memory, then disk; never a transitive peer fetch,
// never a computation). The body's SHA-256 rides in a header so the
// receiver can reject corruption. 404 is an ordinary miss.
//
// ?wait=D makes a miss a long-poll: the request is held until the bytes
// land in the memory tier — a replica that deferred a point to this
// one's lease hears of the result the moment it is stored — or until
// min(D, PeerTimeout) passes, and then answers 200 or the usual 404.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var hold time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid wait %q (want a positive Go duration, e.g. 250ms)", q))
			return
		}
		hold = min(d, s.cfg.PeerTimeout)
	}
	val, ok := s.cache.Peek(hash)
	if !ok && hold > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), hold)
		val, ok = s.cache.Await(ctx, hash)
		cancel()
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", hash))
		return
	}
	s.peerServes.Add(1)
	obs.L(r.Context(), s.log).Info("peer cache fetch served", "hash", hash, "bytes", len(val))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cache.HashHeader, cache.BodyHash(val))
	// The declared length lets the fetching replica read into a buffer
	// of exactly the value's size.
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Write(val)
}

// handleLeaseClaim is POST /v1/leases/{sweep}/{point}?holder=ID: a
// peer asks to compute one point. 404 when fleet mode is off or this
// replica is not tracking the sweep — which a claimer reads as "no
// veto", so an untracked sweep is never blocked, merely uncoordinated.
func (s *Server) handleLeaseClaim(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet mode disabled (start with -peers)"))
		return
	}
	holder := r.URL.Query().Get("holder")
	if holder == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?holder= replica ID"))
		return
	}
	sweepHash, pointHash := r.PathValue("sweep"), r.PathValue("point")
	granted, state, known := s.fleet.claim(sweepHash, pointHash, holder)
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("not tracking sweep %q point %q", sweepHash, pointHash))
		return
	}
	if granted {
		obs.L(r.Context(), s.log).Info("lease granted", "sweep", sweepHash, "point", pointHash, "holder", holder)
	}
	writeJSON(w, http.StatusOK, leaseBody{Granted: granted, State: state})
}

// handleLeaseLedger is GET /v1/leases/{sweep}: the lease table — done
// points and live leases — that peers' syncers poll to prefetch this
// replica's completions.
func (s *Server) handleLeaseLedger(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet mode disabled (start with -peers)"))
		return
	}
	led, ok := s.fleet.ledger(r.PathValue("sweep"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no active lease table for sweep %q", r.PathValue("sweep")))
		return
	}
	writeJSON(w, http.StatusOK, led)
}
