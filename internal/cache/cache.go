// Package cache is a content-addressed result cache for the QLA
// serving layer. Keys are canonical-Spec hashes (engine.SpecHash) and
// values are the marshaled Result bytes of the run — legal to replay
// verbatim because fixed-seed Monte Carlo results are bit-identical at
// any parallelism, so a cached body is indistinguishable from a fresh
// execution. Values read back from disk or fetched from a peer must be
// valid JSON to enter the memory tier; anything else is a miss, so a
// stored value can be spliced into a sweep aggregate unchecked. The
// cache bounds itself by a byte budget with LRU eviction, and
// de-duplicates concurrent identical requests (singleflight): N
// callers asking for the same key while it computes share one
// execution and receive the same bytes.
//
// WithDir adds an optional file persistence tier: stored values are
// also written through to one file per key, and a memory miss consults
// the directory before computing, so content-addressed results — sweep
// points included — survive a process restart. The disk tier is not
// LRU-bounded (content addresses never go stale; the operator owns the
// directory) and all disk failures degrade to recomputation, never to
// request failures. A persistently failing disk (full, unmounted,
// yanked) downgrades the tier to memory-only after a few consecutive
// persist errors — a circuit breaker (internal/breaker), logged once
// per episode — and a periodic probe write re-enables it when the disk
// recovers.
//
// WithPeers adds a third, fleet-wide tier: other replicas' caches
// reached over HTTP, consulted after a disk miss and before computing.
// See peer.go.
//
// Await blocks until a key lands in the memory tier — whichever path
// stores it: a computation, a disk load, a peer fetch or a prefetch —
// so a caller that knows the bytes are coming (the peer route holding a
// long-poll for a replica that deferred to this one) hears of them the
// moment they exist instead of polling.
package cache

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qla/internal/breaker"
	"qla/internal/obs"
)

// Cache is a byte-budgeted LRU keyed by content hash, safe for
// concurrent use. Construct with New; the zero Cache is not usable.
// Stored byte slices are shared between the cache and its callers and
// must be treated as immutable.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	dir      string // "" = no persistence tier
	bytes    int64
	entries  map[string]*entry
	head     *entry // the LRU list runs from head (most recently used)
	tail     *entry // to tail (next to evict)
	inflight map[string]*flight
	arrivals map[string]*arrival // Await callers per key not yet stored

	// Disk-tier degradation: after degradeAfter consecutive persist
	// errors the disk breaker opens and the tier downgrades to
	// memory-only (writes skipped) until a probe write — one attempt
	// per probeInterval — succeeds again. Each peer's breaker uses the
	// same knobs.
	degradeAfter  int
	probeInterval time.Duration
	disk          *breaker.Breaker
	logf          func(format string, args ...any)

	// Peer tier (see peer.go): other replicas consulted between a disk
	// miss and a fresh computation, each with its own breaker.
	peers       []*peer
	peerTimeout time.Duration
	peerClient  *http.Client

	reg *obs.Registry
	m   metrics
}

// metrics are the cache's instruments — the only place its counts
// live. Stats reads them back for in-process callers.
type metrics struct {
	memoryHits, diskHits, peerHits, inflightHits *obs.Counter
	misses, evictions, diskWrites, persistErrors *obs.Counter
	degradeEvents, skippedWrites                 *obs.Counter
	peerMisses, peerErrors                       *obs.Counter
	peerRTT                                      *obs.Histogram
}

// entry is one stored value and its links in the LRU list; keeping
// the links in the entry costs one allocation per stored key.
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// flight is one in-progress computation. The leader writes val/err and
// then closes done; followers read them only after done is closed.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// arrival is the rendezvous of the Await callers on one key: the store
// that lands the key sets val and closes done; n counts the callers
// still registered, so the last one to give up removes the entry.
type arrival struct {
	done chan struct{}
	val  []byte
	n    int
}

// Option configures a Cache.
type Option func(*Cache)

// WithDir enables the file persistence tier rooted at dir: every
// stored value is written through to dir/<key> (atomically, via a
// temp-file rename) and a memory miss reads the file back before
// computing, so entries written by an earlier process are served
// without re-execution. Keys must be filesystem-safe names — the
// serving layer's keys are hex content hashes — and unsafe keys simply
// skip the tier.
func WithDir(dir string) Option {
	return func(c *Cache) { c.dir = dir }
}

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

// WithLogger routes the cache's rare episode logs (tier degradation
// and recovery) through logf instead of the standard library default.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(c *Cache) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// WithMetrics registers the cache's instruments on reg instead of a
// private registry: tier resolution outcomes as
// qla_cache_hits_total{tier=...} (memory, disk, peer, inflight), the
// miss/eviction/write/error counters, the disk tier's degrade state
// and a qla_cache_peer_rtt_seconds histogram observed per peer round
// trip.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Cache) { c.reg = reg }
}

func (c *Cache) instrument(reg *obs.Registry) {
	// The tier children are created here, so every tier renders (at
	// zero) from the first scrape and a hit costs one atomic add.
	hits := reg.CounterVec("qla_cache_hits_total",
		"Cache lookups resolved per tier (inflight = collapsed onto an in-progress compute).", "tier")
	c.m = metrics{
		memoryHits:    hits.With("memory"),
		diskHits:      hits.With("disk"),
		peerHits:      hits.With("peer"),
		inflightHits:  hits.With("inflight"),
		misses:        reg.Counter("qla_cache_misses_total", "Lookups that fell through every tier to a fresh compute."),
		evictions:     reg.Counter("qla_cache_evictions_total", "Entries evicted by the LRU byte budget."),
		diskWrites:    reg.Counter("qla_cache_disk_writes_total", "Successful write-throughs to the disk tier."),
		persistErrors: reg.Counter("qla_cache_persist_errors_total", "Failed disk-tier writes."),
		degradeEvents: reg.Counter("qla_cache_degrade_events_total", "Disk-tier downgrades to memory-only, one per episode."),
		skippedWrites: reg.Counter("qla_cache_skipped_writes_total", "Disk-tier writes skipped while the tier was degraded."),
		peerMisses:    reg.Counter("qla_cache_peer_misses_total", "Clean 404 peer probes."),
		peerErrors:    reg.Counter("qla_cache_peer_errors_total", "Failed peer fetches (transport, status, or hash mismatch)."),
		peerRTT: reg.Histogram("qla_cache_peer_rtt_seconds",
			"Round-trip latency of one peer cache fetch (any response, including 404).", obs.LatencyBuckets),
	}
	reg.GaugeFunc("qla_cache_disk_degraded", "1 while the disk tier is degraded to memory-only.", nil, func() float64 {
		if c.disk.Open() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("qla_cache_peers_degraded", "Peers currently skipped by their breaker.", nil, func() float64 {
		return float64(c.peersDegraded())
	})
	reg.GaugeFunc("qla_cache_bytes", "Bytes currently held by the memory tier.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.bytes)
	})
	reg.GaugeFunc("qla_cache_entries", "Entries currently held by the memory tier.", nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
}

// New builds a Cache bounded to maxBytes of stored values (keys charged
// against the budget too). maxBytes <= 0 means unbounded.
func New(maxBytes int64, opts ...Option) *Cache {
	c := &Cache{
		maxBytes:      maxBytes,
		entries:       make(map[string]*entry),
		inflight:      make(map[string]*flight),
		arrivals:      make(map[string]*arrival),
		degradeAfter:  3,
		probeInterval: 30 * time.Second,
		peerTimeout:   defaultPeerTimeout,
		logf:          log.Printf,
	}
	for _, o := range opts {
		o(c)
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.disk = breaker.New(c.degradeAfter, c.probeInterval)
	for _, p := range c.peers {
		p.br = breaker.New(c.degradeAfter, c.probeInterval)
	}
	if len(c.peers) > 0 {
		c.peerClient = &http.Client{Timeout: c.peerTimeout}
	}
	c.instrument(c.reg)
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			// An unusable directory disables the tier; the in-memory
			// cache keeps working and the error counter shows it.
			c.dir = ""
			c.m.persistErrors.Inc()
		}
	}
	return c
}

// GetOrCompute returns the cached bytes for key, or runs compute to
// produce them. Concurrent calls for the same key collapse onto one
// compute (the first caller's); the rest wait and share its outcome,
// reported as hits. Errors are never cached — a later call recomputes —
// and the error of a collapsed flight is delivered to every waiter.
// The context governs only the caller's own wait; it does not cancel a
// computation other callers may still be waiting on.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if val, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		c.m.memoryHits.Inc()
		return val, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.m.inflightHits.Inc()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, false, f.err
			}
			return f.val, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// Persistence tier: a value written by an earlier process (or
	// evicted from memory since) replays without recomputation. The
	// probe runs as the flight leader, so concurrent callers still
	// collapse onto one disk read.
	if val, ok := c.loadFile(key); ok {
		c.m.diskHits.Inc()
		c.mu.Lock()
		delete(c.inflight, key)
		c.storeLocked(key, val)
		c.mu.Unlock()
		f.val = val
		close(f.done)
		return val, true, nil
	}

	// Peer tier: another replica may already hold the bytes — still as
	// the flight leader, so N concurrent callers cost one peer walk. A
	// peer hit is written through to the local disk (after releasing the
	// followers, like the compute path): the peer can die, and the whole
	// point of the fleet is that its results survive anywhere.
	if val, ok := c.loadPeers(ctx, key); ok {
		c.mu.Lock()
		delete(c.inflight, key)
		c.storeLocked(key, val)
		c.mu.Unlock()
		f.val = val
		close(f.done)
		c.writeFile(key, val)
		return val, true, nil
	}

	c.m.misses.Inc()

	// A panic escaping compute must not strand the flight: waiters
	// would block on done forever and the key would be poisoned until
	// process restart. Resolve the flight with an error and let the
	// panic continue to the caller.
	completed := false
	defer func() {
		if completed {
			return
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		f.err = fmt.Errorf("cache: computation for key %s panicked", key)
		close(f.done)
	}()
	val, err = compute()
	completed = true

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.storeLocked(key, val)
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	// Persist only after releasing the followers: the value is already
	// in memory, and a slow disk must not add latency to requests that
	// collapsed onto this flight.
	if err == nil {
		c.writeFile(key, val)
	}
	return val, false, err
}

// Await returns the bytes stored under key, blocking until a store
// lands them in the memory tier or ctx ends. It never computes, reads
// the disk or a peer, or joins a flight: it only watches the memory
// tier, and every store path — a finished computation, a disk load, a
// peer fetch, a prefetch — wakes it. A caller whose ctx ends first is
// unregistered before Await returns, so an abandoned wait leaves
// nothing behind.
func (c *Cache) Await(ctx context.Context, key string) ([]byte, bool) {
	c.mu.Lock()
	if val, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		return val, true
	}
	w := c.arrivals[key]
	if w == nil {
		w = &arrival{done: make(chan struct{})}
		c.arrivals[key] = w
	}
	w.n++
	c.mu.Unlock()
	select {
	case <-w.done:
		return w.val, true
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-w.done:
		// The store won the race with the deadline: take the bytes.
		return w.val, true
	default:
	}
	if w.n--; w.n == 0 {
		delete(c.arrivals, key)
	}
	return nil, false
}

// safeKey reports whether key can name a file in the persistence
// directory (hex hashes always can).
func safeKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, "/\\") && key != "." && key != ".." && filepath.Base(key) == key
}

// loadFile reads the persisted value for key, if the tier is enabled
// and holds a valid one. A file that is not JSON (a foreign or torn
// write, bit rot) is a miss and is removed: left in place, Contains
// would keep reporting the key as stored until a compute overwrote it.
func (c *Cache) loadFile(key string) ([]byte, bool) {
	if c.dir == "" || !safeKey(key) {
		return nil, false
	}
	path := filepath.Join(c.dir, key)
	val, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if !json.Valid(val) {
		c.logf("cache: removing %s from the disk tier: not valid JSON", key)
		// A file that will not go away is still a miss; the next
		// write-through replaces it.
		_ = os.Remove(path)
		return nil, false
	}
	return val, true
}

// writeFile persists val under key, atomically (temp file + rename) so
// a crash mid-write never leaves a truncated entry to replay. Failures
// only bump a counter: persistence is best-effort. Repeated failures
// open the disk breaker, degrading the tier to memory-only — writes
// are skipped instead of hammering a dead disk on every store — with
// one probe write allowed per probe interval to detect recovery.
func (c *Cache) writeFile(key string, val []byte) {
	if c.dir == "" || !safeKey(key) {
		return
	}
	if !c.disk.Allow() {
		c.m.skippedWrites.Inc()
		return
	}
	err := func() error {
		tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if _, err := tmp.Write(val); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), filepath.Join(c.dir, key))
	}()
	if err != nil {
		c.m.persistErrors.Inc()
	} else {
		c.m.diskWrites.Inc()
	}
	// Logged once per episode: the steady state is silent skips.
	switch c.disk.Record(err) {
	case breaker.Opened:
		c.m.degradeEvents.Inc()
		c.logf("cache: disk tier degraded to memory-only after %d consecutive persist errors (last: %v); probing every %v",
			c.degradeAfter, err, c.probeInterval)
	case breaker.Closed:
		c.logf("cache: disk tier restored after successful probe write")
	}
}

// Contains reports whether key would be served without computing:
// stored says the value is in memory or on disk, inflight that an
// identical computation is running (a caller would join it). It is a
// pure probe — no counters move and nothing is promoted — sized for
// the serving layer's load-shed check, which must not 503 requests the
// cache can answer. It never consults peers (a network round-trip in
// an admission decision is the same bug class as a hung disk stat) and
// skips the disk stat while the tier is degraded.
func (c *Cache) Contains(key string) (stored, inflight bool) {
	c.mu.Lock()
	_, stored = c.entries[key]
	_, inflight = c.inflight[key]
	c.mu.Unlock()
	// A degraded disk may be hung, not just full: the admission probe
	// must never block on it. Get keeps reading the tier (a hit is
	// still worth a slow read); the probe just stops promising one, so
	// an affected request is shed instead of stalled.
	if !stored && c.dir != "" && safeKey(key) && !c.disk.Open() {
		if _, err := os.Stat(filepath.Join(c.dir, key)); err == nil {
			stored = true
		}
	}
	return stored, inflight
}

// getLocked returns the stored value for key, marking it most
// recently used.
func (c *Cache) getLocked(key string) ([]byte, bool) {
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.touchLocked(e)
	return e.val, true
}

// touchLocked moves e to the head of the LRU list.
func (c *Cache) touchLocked(e *entry) {
	if c.head != e {
		c.unlinkLocked(e)
		c.pushFrontLocked(e)
	}
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// storeLocked inserts the value at the head of the LRU list, wakes the
// key's Await callers, and evicts from the tail until the byte budget
// holds. A value larger than the whole budget is not cached at all.
func (c *Cache) storeLocked(key string, val []byte) {
	cost := int64(len(val)) + int64(len(key))
	if c.maxBytes > 0 && cost > c.maxBytes {
		return
	}
	if e, ok := c.entries[key]; ok {
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.touchLocked(e)
	} else {
		e := &entry{key: key, val: val}
		c.entries[key] = e
		c.pushFrontLocked(e)
		c.bytes += cost
	}
	if w := c.arrivals[key]; w != nil {
		w.val = val
		close(w.done)
		delete(c.arrivals, key)
	}
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.tail != nil {
		e := c.tail
		c.unlinkLocked(e)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val)) + int64(len(e.key))
		c.m.evictions.Inc()
	}
}

// Stats is a point-in-time snapshot of the cache for in-process
// readers: the counters are read back from the cache's instruments,
// the rest is live state.
type Stats struct {
	// Hits counts lookups served from the memory tier; Dedups lookups
	// that joined an in-flight computation; Misses computations
	// actually executed; Evictions entries dropped to hold the budget.
	Hits, Misses, Dedups, Evictions uint64
	// Entries and Bytes describe the stored set; Inflight is the number
	// of computations currently executing.
	Entries  int
	Bytes    int64
	Inflight int
	// Persistent reports whether the file tier is enabled; DiskHits
	// counts memory misses served from it, DiskWrites successful
	// write-throughs, and PersistErrors best-effort failures.
	Persistent                          bool
	DiskHits, DiskWrites, PersistErrors uint64
	// Degraded reports the disk breaker is open; DegradeEvents counts
	// episodes and SkippedWrites the writes not attempted meanwhile.
	Degraded                     bool
	DegradeEvents, SkippedWrites uint64
	// PeersDegraded is how many peers their breaker currently skips.
	// PeerHits counts local misses served from a peer, PeerMisses clean
	// peer 404s, PeerErrors failed or hash-rejected fetches.
	PeersDegraded                    int
	PeerHits, PeerMisses, PeerErrors uint64
}

// Stats returns a snapshot of the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes, inflight := len(c.entries), c.bytes, len(c.inflight)
	c.mu.Unlock()
	m := &c.m
	return Stats{
		Hits:          m.memoryHits.Value(),
		Misses:        m.misses.Value(),
		Dedups:        m.inflightHits.Value(),
		Evictions:     m.evictions.Value(),
		Entries:       entries,
		Bytes:         bytes,
		Inflight:      inflight,
		Persistent:    c.dir != "",
		DiskHits:      m.diskHits.Value(),
		DiskWrites:    m.diskWrites.Value(),
		PersistErrors: m.persistErrors.Value(),
		Degraded:      c.disk.Open(),
		DegradeEvents: m.degradeEvents.Value(),
		SkippedWrites: m.skippedWrites.Value(),
		PeersDegraded: c.peersDegraded(),
		PeerHits:      m.peerHits.Value(),
		PeerMisses:    m.peerMisses.Value(),
		PeerErrors:    m.peerErrors.Value(),
	}
}
