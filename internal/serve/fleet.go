package serve

// Fleet mode: qlaserve replicas started with -peers cooperate on the
// same workload. Two mechanisms compose, both keyed by content
// addresses (the sweep hash and per-point Spec hashes), so no replica
// needs a coordinator or any shared state beyond HTTP:
//
//   - GET /v1/cache/{hash} serves this replica's stored Result bytes to
//     the others — the peer tier internal/cache probes between a local
//     disk miss and a fresh computation. A probe that asks to wait
//     (?wait=D&from=<id>) may be held on this replica's own flight for
//     the key (cache.Hold), so the cache's singleflight spans the
//     fleet: a point several replicas miss at once is computed once,
//     by the lowest replica ID, and the others wait for its bytes.
//   - POST /v1/sweeps submissions are forwarded to every peer (marked
//     with a header so they are never re-forwarded), and identical
//     submissions collapse by content address, so the whole fleet runs
//     the same job. Each replica starts the grid at its own rotation,
//     so the replicas split it instead of racing point by point.
//
// A syncer goroutine per active sweep polls each peer's ledger
// (GET /v1/leases/{sweep}) and prefetches the points it lists into the
// local cache, so the fleet's results converge onto every replica while
// the sweep runs — the property the kill -9 e2e test asserts: the
// survivor finishes the dead replica's points from its own copy of
// their bytes. The ledger is read from the cache, the one record of a
// settled point: it lists the sweep's points the replica stores,
// whoever computed them.
//
// Unreachable peers never block. Each peer has one circuit breaker,
// the cache tier's (internal/breaker): the tier's probes feed it, it
// skips a dead peer after a few consecutive errors, and the syncer
// skips that peer's ledger while it is open. A peer that dies mid-hold
// fails the probe at once, and a partitioned fleet degrades to replicas
// computing independently — duplicated work the shared tier absorbs,
// never a stalled sweep.

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
	"strconv"
	"sync"
	"time"

	"qla/internal/cache"
	"qla/internal/obs"
	"qla/internal/sweep"
)

// forwardHeader marks a replicated sweep submission with the sender's
// replica ID so receivers admit it without re-forwarding — the fleet's
// loop-prevention bit.
const forwardHeader = "X-QLA-Forwarded"

// fleet is the per-server coordination state of fleet mode.
type fleet struct {
	self   string
	peers  []string
	poll   time.Duration
	cache  *cache.Cache
	client *http.Client
	log    *slog.Logger

	// sweeps holds the active sweeps by hash: the ledgers peers'
	// syncers poll.
	mu     sync.Mutex
	sweeps map[string]*sweep.Sweep

	// Event counts, children of qla_fleet_events_total{event}: the only
	// place they live.
	forwarded, prefetched, held *obs.Counter
}

func newFleet(cfg Config, c *cache.Cache, logger *slog.Logger, reg *obs.Registry) *fleet {
	f := &fleet{
		self:   cfg.SelfID,
		peers:  cfg.Peers,
		poll:   cfg.FleetPoll,
		cache:  c,
		client: &http.Client{Timeout: cfg.PeerTimeout},
		log:    logger.With("subsystem", "fleet", "self", cfg.SelfID),
		sweeps: make(map[string]*sweep.Sweep),
	}
	ev := reg.CounterVec("qla_fleet_events_total",
		"Fleet events: sweeps forwarded to peers, peer completions prefetched, peer probes the cache route held on this replica's own flight.",
		"event")
	f.forwarded, f.prefetched, f.held = ev.With("forwarded_sweeps"), ev.With("prefetched"), ev.With("held")
	return f
}

// register opens the ledger of sw while its job runs.
func (f *fleet) register(sw *sweep.Sweep) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.sweeps[sw.Hash] = sw
	f.mu.Unlock()
}

// unregister drops the ledger once the local job settles: every result
// this replica produced is in its cache by then, where peers' probes
// find it.
func (f *fleet) unregister(sweepHash string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.sweeps, sweepHash)
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

// sync polls each peer's ledger for sweepHash until done closes,
// prefetching points this replica does not hold into the local cache
// tiers. This is what bounds the damage of a SIGKILLed replica:
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

// peerDone fetches the point hashes peer's ledger lists for sweepHash;
// every failure is just an empty answer. A peer the cache tier's
// breaker skips is not polled: the tier's own probes, which every
// sweep-point miss makes, find out when it is back.
func (f *fleet) peerDone(peer, sweepHash string) []string {
	if f.cache.PeerDegraded(peer) {
		return nil
	}
	resp, err := f.client.Get(peer + "/v1/leases/" + sweepHash)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil
	}
	var led Ledger
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&led); err != nil {
		return nil
	}
	return led.Done
}

// Ledger is the GET /v1/leases/{sweep} payload: the points of one
// active sweep this replica's cache stores.
type Ledger struct {
	Sweep string   `json:"sweep"`
	Total int      `json:"total"`
	Done  []string `json:"done"`
}

// ledger lists, in grid order, the points of one active sweep that the
// cache stores, in memory or on disk. A point counts whoever stored it
// — this sweep, an earlier run or a peer prefetch — and a failed point,
// which stores nothing, never does.
func (f *fleet) ledger(sweepHash string) (Ledger, bool) {
	f.mu.Lock()
	sw := f.sweeps[sweepHash]
	f.mu.Unlock()
	if sw == nil {
		return Ledger{}, false
	}
	led := Ledger{Sweep: sweepHash, Total: len(sw.Points), Done: []string{}}
	for i := range sw.Points {
		h := sw.Points[i].Canonical.Hash
		if stored, _ := f.cache.Contains(h); stored {
			led.Done = append(led.Done, h)
		}
	}
	return led, true
}

// handleCacheGet is GET /v1/cache/{hash}: the peer cache route — the
// raw cached Result bytes for one content address, from this replica's
// local tiers only (memory, then disk; never a transitive peer fetch,
// never a computation). The body's SHA-256 rides in a header so the
// receiver can reject corruption. 404 is an ordinary miss.
//
// ?wait=D&from=<id> is a peer's probe that may wait on this replica's
// own flight for the key, for up to min(D, PeerTimeout) — cache.Hold
// decides: a computing flight holds it, a flight still looking up holds
// it only when this replica's ID sorts before from. An answer that
// waited carries cache.HoldHeader, and a 404 whose hold ended with the
// flight still running is marked so the prober asks again.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var (
		val  []byte
		ok   bool
		held string
	)
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid wait %q (want a positive Go duration, e.g. 250ms)", q))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(d, s.cfg.PeerTimeout))
		val, ok, held = s.cache.Hold(ctx, hash, r.URL.Query().Get("from"))
		cancel()
	} else {
		val, ok = s.cache.Peek(hash)
	}
	if held != "" {
		s.fleet.noteHeld()
		w.Header().Set(cache.HoldHeader, held)
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", hash))
		return
	}
	s.peerServes.Add(1)
	log := obs.L(r.Context(), s.log)
	if held != "" {
		log = log.With("held", held)
	}
	log.Info("peer cache fetch served", "hash", hash, "bytes", len(val))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cache.HashHeader, cache.BodyHash(val))
	// The declared length lets the fetching replica read into a buffer
	// of exactly the value's size.
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Write(val)
}

// noteHeld counts one probe the cache route held on this replica's own
// flight; nil-safe, since the route serves outside fleet mode too.
func (f *fleet) noteHeld() {
	if f != nil {
		f.held.Inc()
	}
}

// handleLeaseLedger is GET /v1/leases/{sweep}: the ledger of stored
// points that peers' syncers poll to prefetch this replica's results.
func (s *Server) handleLeaseLedger(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet mode disabled (start with -peers)"))
		return
	}
	led, ok := s.fleet.ledger(r.PathValue("sweep"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no active ledger for sweep %q", r.PathValue("sweep")))
		return
	}
	writeJSON(w, http.StatusOK, led)
}
