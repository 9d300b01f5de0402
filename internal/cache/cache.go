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
// execution and receive the same bytes. A shared computation runs
// while anyone waits for it: each caller's context ends only that
// caller's wait, and a computation nobody waits for any more is
// cancelled and caches nothing (see Do).
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
// The singleflight spans that tier too: a peer probe may wait on the
// peer's own flight for the key (Hold), so a fleet computes a key once
// however many replicas ask for it at the same moment. See peer.go.
package cache

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
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
	self        string // this replica's ID in peer probes (WithSelfID)

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

// flight is one lookup-then-computation, run by fly under ctx. fly
// writes val, err and computed, then closes done. Cache.mu guards the
// rest: waiters counts the callers and held peer probes waiting on it,
// computing is set once every tier has missed, and again by Hold when
// it refused to hold a lower-ranked peer's probe during the lookup —
// fly then walks the peers once more before it computes.
type flight struct {
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	val       []byte
	err       error
	computed  bool
	waiters   int
	computing bool
	again     bool
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
			// cache keeps working.
			c.logf("cache: disk tier disabled, running memory-only: %v", err)
			c.dir = ""
			c.m.persistErrors.Inc()
		}
	}
	return c
}

// Do returns the cached bytes for key, or runs compute to produce them.
// Concurrent calls for a key collapse onto one flight, which the rest
// join as hits. A flight runs the disk probe, the peer walk and compute
// on its own goroutine, under a context with the first caller's values
// (tenant identity, trace ID) that is cancelled when its last waiter —
// a caller or a probe Hold holds — stops waiting. Each waiter returns
// when its own context ends; a cancelled flight leaves the in-flight
// table at once and caches nothing, and a caller whose context has
// ended starts and joins nothing. Errors, a panic in compute included,
// reach every waiter and are never cached.
func (c *Cache) Do(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if val, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		c.m.memoryHits.Inc()
		return val, true, nil
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	f, joined := c.inflight[key]
	if !joined {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		f = &flight{ctx: fctx, cancel: cancel, done: make(chan struct{})}
		c.inflight[key] = f
		go c.fly(key, f, compute)
	}
	f.waiters++
	c.mu.Unlock()
	if joined {
		c.m.inflightHits.Inc()
	}
	if val, err = c.wait(ctx, key, f); err != nil {
		return nil, false, err
	}
	return val, joined || !f.computed, nil
}

// GetOrCompute is Do for a compute that takes no context.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	return c.Do(ctx, key, func(context.Context) ([]byte, error) { return compute() })
}

// wait blocks one waiter of f until the flight lands or ctx ends,
// whichever comes first. A waiter whose context ends stops waiting;
// the last one to stop cancels the flight.
func (c *Cache) wait(ctx context.Context, key string, f *flight) ([]byte, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.waiters--; f.waiters == 0 {
		if c.inflight[key] == f {
			delete(c.inflight, key)
		}
		f.cancel()
	}
	return nil, ctx.Err()
}

// fly runs flight f for key to its end: the disk tier, the peer tier,
// then compute, each only while the flight's context lives.
func (c *Cache) fly(key string, f *flight, compute func(context.Context) ([]byte, error)) {
	defer f.cancel()
	// Persistence tier: a value written by an earlier process (or
	// evicted from memory since) replays without recomputation.
	if val, ok := c.loadFile(key); ok {
		c.m.diskHits.Inc()
		c.land(key, f, val, nil, false)
		return
	}
	// Peer tier: another replica may already hold the bytes, or be
	// computing them. If Hold turned a peer's probe away while this
	// flight was looking up, it marked the flight: walk the peers once
	// more before computing, and find that peer computing. A peer hit is
	// written through to the local disk: the peer can die, and the whole
	// point of the fleet is that its results survive anywhere.
	for {
		if val, ok := c.loadPeers(f.ctx, key, true); ok {
			c.land(key, f, val, nil, true)
			return
		}
		c.mu.Lock()
		again := f.again
		f.again, f.computing = false, !again
		c.mu.Unlock()
		if !again {
			break
		}
	}
	if err := f.ctx.Err(); err != nil {
		c.land(key, f, nil, err, false)
		return
	}
	c.m.misses.Inc()
	f.computed = true
	val, err := func() (val []byte, err error) {
		// A panic here would take the process down: it becomes the
		// flight's error instead.
		defer func() {
			if r := recover(); r != nil {
				c.logf("cache: computation for key %s panicked: %v\n%s", key, r, debug.Stack())
				val, err = nil, fmt.Errorf("cache: computation for key %s panicked: %v", key, r)
			}
		}()
		return compute(f.ctx)
	}()
	c.land(key, f, val, err, err == nil)
}

// land resolves f with val or err and releases its waiters; a flight
// nobody waits for stores nothing. persist writes a stored value
// through to disk first, so a caller that got the bytes (a sweep
// reporting a point done) can count on them surviving a restart.
func (c *Cache) land(key string, f *flight, val []byte, err error, persist bool) {
	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	store := err == nil && f.ctx.Err() == nil
	if store {
		c.storeLocked(key, val)
	}
	c.mu.Unlock()
	if store && persist {
		c.writeFile(key, val)
	}
	f.val, f.err = val, err
	close(f.done)
}

// Get returns the bytes the memory tier holds for key, marking them
// most recently used and counting a memory hit. It never waits, reads
// the disk or consults peers: a caller answers a hit with it before
// setting up anything a miss needs.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	val, ok := c.getLocked(key)
	c.mu.Unlock()
	if ok {
		c.m.memoryHits.Inc()
	}
	return val, ok
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

// Contains reports whether this replica holds key: stored says the
// value is in memory or on disk, inflight that an identical computation
// is running (a caller would join it). It is a pure probe — no counters
// move and nothing is promoted — sized for the fleet's ledger, which
// lists the points a replica stores, and its syncer, which prefetches
// only what the replica lacks. It never consults peers and skips the
// disk stat while the tier is degraded.
func (c *Cache) Contains(key string) (stored, inflight bool) {
	c.mu.Lock()
	_, stored = c.entries[key]
	_, inflight = c.inflight[key]
	c.mu.Unlock()
	// A degraded disk may be hung, not just full: the probe must never
	// block on it. Get keeps reading the tier (a hit is still worth a
	// slow read); the probe just stops promising one.
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

// storeLocked inserts the value at the head of the LRU list and evicts
// from the tail until the byte budget holds. A value larger than the
// whole budget is not cached at all.
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
	// of flights someone still waits for.
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
