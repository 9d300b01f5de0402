// The peer tier: a fleet of qlaserve replicas shares its
// content-addressed results over HTTP. Each replica serves its own
// stored bytes under GET /v1/cache/{hash} and, configured with
// WithPeers, consults the others' routes between a local disk miss and
// a fresh computation — probe order memory → disk → peers → compute.
// Content addressing makes the tier trivially coherent: a key's bytes
// are bit-identical wherever they were computed, so a peer's body is
// legal to store and replay verbatim once its hash header checks out
// and it parses as JSON. Bodies are read into a buffer sized by their
// Content-Length, and a body the memory tier's budget could never hold
// is refused unread.
//
// A peer may also be asked to hold the request (GET
// /v1/cache/{hash}?wait=D): it answers as soon as the key lands in its
// memory tier, or 404s once D passes. PrefetchWait long-polls every
// peer this way at once, for a key a peer is still computing.
//
// Peers fail independently of the local disk, so each carries its own
// circuit breaker with the WithDegrade knobs: after degradeAfter
// consecutive errors the peer is skipped (one probe request allowed
// per probeInterval to detect recovery) instead of adding a timeout's
// worth of latency to every miss. Peer fetches are
// strictly best-effort — every failure degrades to the next tier,
// never to a request failure.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"qla/internal/breaker"
	"qla/internal/obs"
)

// PeerPath is the route prefix peers serve cached bytes under; the
// serving layer registers its handler to match.
const PeerPath = "/v1/cache/"

// HashHeader names the response header carrying the hex SHA-256 of the
// served body. Receivers recompute it and reject mismatches — a
// truncated proxy response or corrupt peer must not poison the local
// tiers.
const HashHeader = "X-Content-SHA256"

// defaultPeerTimeout bounds one peer fetch end to end.
const defaultPeerTimeout = 2 * time.Second

// peer is one configured peer and its breaker.
type peer struct {
	url string
	br  *breaker.Breaker
}

// WithPeers enables the peer tier: each URL is the base address of
// another replica serving GET /v1/cache/{hash}. Peers are consulted in
// the given order after a memory and disk miss, before computing.
func WithPeers(urls ...string) Option {
	return func(c *Cache) {
		for _, u := range urls {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			c.peers = append(c.peers, &peer{url: u})
		}
	}
}

// WithPeerTimeout bounds one peer fetch (0 keeps the 2s default). The
// timeout is per peer, not per key: a miss that walks N slow peers can
// spend N timeouts before computing, which is why the breaker exists.
func WithPeerTimeout(d time.Duration) Option {
	return func(c *Cache) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// BodyHash returns the hex SHA-256 a peer response's HashHeader must
// carry for val.
func BodyHash(val []byte) string {
	sum := sha256.Sum256(val)
	return hex.EncodeToString(sum[:])
}

// loadPeers fetches key from the first peer that holds it. ctx
// contributes only values (the trace ID forwarded to peers), not
// cancellation: followers collapsed onto this flight may outlive the
// leader's request, so the fetch is bounded by the client timeout
// alone, as before.
func (c *Cache) loadPeers(ctx context.Context, key string) ([]byte, bool) {
	if len(c.peers) == 0 || !safeKey(key) {
		return nil, false
	}
	ctx = context.WithoutCancel(ctx)
	for _, p := range c.peers {
		if !p.br.Allow() {
			continue
		}
		val, ok, err := c.fetchPeer(ctx, p.url, key, 0)
		if c.recordPeer(p, ok, err) {
			return val, true
		}
	}
	return nil, false
}

// recordPeer feeds one fetch's outcome to the peer's breaker and the
// tier counters, and reports whether it was a hit.
func (c *Cache) recordPeer(p *peer, ok bool, err error) bool {
	// Logged once per episode: the steady state is silent skips.
	switch p.br.Record(err) {
	case breaker.Opened:
		c.logf("cache: peer %s skipped after %d consecutive errors (last: %v); probing every %v",
			p.url, c.degradeAfter, err, c.probeInterval)
	case breaker.Closed:
		c.logf("cache: peer %s restored after successful probe", p.url)
	}
	switch {
	case err != nil:
		c.m.peerErrors.Inc()
	case !ok:
		c.m.peerMisses.Inc()
	default:
		c.m.peerHits.Inc()
		return true
	}
	return false
}

// peersDegraded counts the peers their breaker currently skips.
func (c *Cache) peersDegraded() int {
	n := 0
	for _, p := range c.peers {
		if p.br.Open() {
			n++
		}
	}
	return n
}

// fetchPeer performs one GET against one peer: (val, true, nil) on a
// validated hit, (nil, false, nil) on a clean 404 miss, an error for
// everything else — transport failures, unexpected statuses, bodies
// over the cache budget or shorter than declared, bodies whose hash
// header does not match, and bodies that are not JSON. A positive wait
// asks the peer to hold the request that long for the key to land;
// such a long-poll's latency is the holder's, so it is not observed as
// a round trip.
func (c *Cache) fetchPeer(ctx context.Context, base, key string, wait time.Duration) ([]byte, bool, error) {
	u := base + PeerPath + key
	if wait > 0 {
		u += "?wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	if id := obs.TraceFrom(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	start := time.Now()
	resp, err := c.peerClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	if wait <= 0 {
		c.m.peerRTT.Observe(time.Since(start).Seconds())
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("peer %s: status %d for %s", base, resp.StatusCode, key)
	}
	// The largest value the memory tier could store under key: an entry
	// is charged its key and value lengths.
	limit := int64(-1)
	if c.maxBytes > 0 {
		limit = c.maxBytes - int64(len(key))
	}
	val, err := readBody(resp, limit)
	if err != nil {
		return nil, false, fmt.Errorf("peer %s: %s: %w", base, key, err)
	}
	if got, want := resp.Header.Get(HashHeader), BodyHash(val); got != want {
		return nil, false, fmt.Errorf("peer %s: body hash mismatch for %s (header %q)", base, key, got)
	}
	if !json.Valid(val) {
		return nil, false, fmt.Errorf("peer %s: body for %s is not valid JSON", base, key)
	}
	return val, true, nil
}

// readBody reads a response body of at most limit bytes (limit < 0:
// unbounded). A declared Content-Length over the limit is refused
// unread, one within it sizes the buffer exactly, and a body that ends
// before its declared length is an error; without a declared length the
// read stops one byte past the limit. An unbounded read never trusts a
// declared length to size its buffer: it grows with what arrives.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if limit < 0 {
		return io.ReadAll(resp.Body)
	}
	n := resp.ContentLength
	if n > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte cache budget", n, limit)
	}
	if n >= 0 {
		val := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, val); err != nil {
			return nil, fmt.Errorf("body shorter than its %d-byte length: %w", n, err)
		}
		return val, nil
	}
	val, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(val)) > limit {
		err = fmt.Errorf("body exceeds the %d-byte cache budget", limit)
	}
	return val, err
}

// Peek returns the locally stored bytes for key — memory first (with
// LRU promotion), then the disk tier — without computing, joining a
// flight, or consulting peers. It backs the GET /v1/cache/{hash} route:
// peer requests must see only what this replica holds, never trigger
// transitive fetches, and never block on another replica.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	val, ok := c.getLocked(key)
	c.mu.Unlock()
	if ok {
		return val, true
	}
	if val, ok := c.loadFile(key); ok {
		c.m.diskHits.Inc()
		c.mu.Lock()
		c.storeLocked(key, val)
		c.mu.Unlock()
		return val, true
	}
	return nil, false
}

// Prefetch pulls key into the local tiers from disk or a peer, never
// computing, and reports whether the value is now stored locally. It
// deliberately skips the singleflight machinery: a prefetch that finds
// nothing must not register a flight that /v1/run callers would join
// and fail with. A peer-sourced value is written through to the local
// disk — the peer may die; that is the point of prefetching.
func (c *Cache) Prefetch(key string) bool {
	c.mu.Lock()
	_, stored := c.entries[key]
	_, inflight := c.inflight[key]
	c.mu.Unlock()
	if stored {
		return true
	}
	if inflight {
		// A local computation is already producing the value.
		return false
	}
	if val, ok := c.loadFile(key); ok {
		c.m.diskHits.Inc()
		c.mu.Lock()
		c.storeLocked(key, val)
		c.mu.Unlock()
		return true
	}
	val, ok := c.loadPeers(context.Background(), key)
	if ok {
		c.storePeerValue(key, val)
	}
	return ok
}

// PrefetchWait is Prefetch for a key a peer is still computing: after
// the local tiers miss, it long-polls every peer at once — each is asked
// to hold the request until the key lands in its memory tier or wait
// passes — and stores the first validated body exactly as Prefetch
// does. The wait is clamped to half the peer timeout, so a peer that
// never gets the key answers a clean 404 well inside the client's
// timeout: an empty long-poll is a peer miss, never an error for the
// breaker. ctx cancels the polls, and once one body lands the rest are
// cancelled; a cancelled poll is no peer's fault. It returns after
// every poll has, reporting whether the value is now stored locally.
func (c *Cache) PrefetchWait(ctx context.Context, key string, wait time.Duration) bool {
	if _, ok := c.Peek(key); ok {
		return true
	}
	wait = min(wait, c.peerTimeout/2)
	if len(c.peers) == 0 || !safeKey(key) || wait <= 0 {
		return false
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	bodies := make(chan []byte, len(c.peers))
	polls := 0
	for _, p := range c.peers {
		if !p.br.Allow() {
			continue
		}
		polls++
		go func() {
			val, ok, err := c.fetchPeer(ctx, p.url, key, wait)
			if err != nil && ctx.Err() != nil {
				bodies <- nil
				return
			}
			if !c.recordPeer(p, ok, err) {
				val = nil
			}
			bodies <- val
		}()
	}
	stored := false
	for ; polls > 0; polls-- {
		if val := <-bodies; val != nil && !stored {
			c.storePeerValue(key, val)
			stored = true
			cancel()
		}
	}
	return stored
}

// storePeerValue stores a validated peer body in memory and writes it
// through to the local disk.
func (c *Cache) storePeerValue(key string, val []byte) {
	c.mu.Lock()
	c.storeLocked(key, val)
	c.mu.Unlock()
	c.writeFile(key, val)
}
