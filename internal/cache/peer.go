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
// The same probe deduplicates work across replicas: the singleflight
// reaches over the peer tier. A flight leader asks each peer to hold
// its probe (GET /v1/cache/{hash}?wait=D&from=<self>, D half the peer
// timeout), and the peer's route answers through Hold:
//
//   - the key is stored: the bytes, at once;
//   - the peer's own flight for the key is computing: held until the
//     flight lands; a hold that ends first is a 404 marked "computing",
//     and the prober asks the same peer again;
//   - the flight is still looking up (disk or peer walk): held only if
//     the peer's ID sorts before the prober's; otherwise a 404 at once,
//     and the flight is marked so its leader walks the peers again
//     before it computes — and finds the lower-ID prober computing;
//   - no flight: a 404 at once.
//
// No cycle can form: a computing flight waits on nobody, and a lookup
// holds only probes from higher IDs. Of replicas that miss the same key
// at the same moment, the lowest ID computes it and the rest wait on
// it. A peer that dies mid-hold fails the probe at once, like any
// other peer error.
//
// Peers fail independently of the local disk, so each carries its own
// circuit breaker with the WithDegrade knobs: after degradeAfter
// consecutive errors the peer is skipped (one probe request allowed
// per probeInterval to detect recovery) instead of adding a timeout's
// worth of latency to every miss. It is the peer's one breaker: the
// serving layer's other peer traffic asks PeerDegraded instead of
// keeping a breaker of its own. Peer fetches are strictly best-effort
// — every failure degrades to the next tier, never to a request
// failure.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// HoldHeader marks an answer the peer route held on its own flight;
// its value is the Hold outcome. A held answer's latency is the
// flight's, so it is not observed as a round trip.
const HoldHeader = "X-QLA-Hold"

// Hold outcomes, as HoldHeader carries them.
const (
	// HoldLanded: the flight stored the key, and the answer is its bytes.
	HoldLanded = "landed"
	// HoldFailed: the flight failed, and the answer is a plain miss.
	HoldFailed = "failed"
	// HoldComputing: the hold ended with the flight still running; the
	// 404 asks the prober to ask again.
	HoldComputing = "computing"
)

// defaultPeerTimeout bounds one peer fetch end to end.
const defaultPeerTimeout = 2 * time.Second

// errComputing is a fetch's answer when the peer's 404 is marked
// HoldComputing: the peer is still computing the key.
var errComputing = errors.New("peer still computing")

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

// WithSelfID names this replica in its peer probes (?from=) and ranks it
// against probers in Hold. IDs must be unique across the fleet: the
// lowest one computes a key several replicas miss at once.
func WithSelfID(id string) Option {
	return func(c *Cache) { c.self = id }
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

// loadPeers fetches key from the first peer that holds it. With hold,
// each probe asks the peer to hold it on the peer's own flight for up
// to half the peer timeout (see Hold), and a peer still computing the
// key is asked again for as long as ctx lives. A flight passes its own
// context, which ends only when nobody waits for the key any more, and
// each fetch carries its values (the trace ID forwarded to peers). A
// fetch cut short by ctx ends the walk and is no fault of the peer's:
// its breaker and counters do not see it.
func (c *Cache) loadPeers(ctx context.Context, key string, hold bool) ([]byte, bool) {
	if len(c.peers) == 0 || !safeKey(key) {
		return nil, false
	}
	var wait time.Duration
	if hold {
		wait = c.peerTimeout / 2
	}
	for _, p := range c.peers {
		if !p.br.Allow() {
			continue
		}
		for {
			val, ok, err := c.fetchPeer(ctx, p.url, key, wait)
			if ctx.Err() != nil {
				return nil, false
			}
			if errors.Is(err, errComputing) {
				continue
			}
			if c.recordPeer(p, ok, err) {
				return val, true
			}
			break
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

// PeerDegraded reports whether the peer at url — as WithPeers
// normalized it — is skipped by its breaker for now. It claims no
// probe slot, so a caller that obeys it never stands in for the tier's
// own recovery probes; a url the tier does not know is never degraded.
func (c *Cache) PeerDegraded(url string) bool {
	for _, p := range c.peers {
		if p.url == url {
			return p.br.Open()
		}
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
// validated hit, (nil, false, nil) on a clean 404 miss, errComputing on
// a 404 marked HoldComputing, an error for everything else — transport
// failures, unexpected statuses, bodies over the cache budget or
// shorter than declared, bodies whose hash header does not match, and
// bodies that are not JSON. A positive wait asks the peer to hold the
// probe on its own flight for up to that long.
func (c *Cache) fetchPeer(ctx context.Context, base, key string, wait time.Duration) ([]byte, bool, error) {
	u := base + PeerPath + key
	if wait > 0 {
		u += "?wait=" + wait.String() + "&from=" + url.QueryEscape(c.self)
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
	held := resp.Header.Get(HoldHeader)
	if held == "" {
		c.m.peerRTT.Observe(time.Since(start).Seconds())
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if held == HoldComputing {
			return nil, false, errComputing
		}
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

// Hold answers a peer's probe for key that asked to wait (the
// ?wait=D&from= form of GET /v1/cache/{hash}), from this replica alone:
// its stored bytes, or — when its own flight for the key qualifies —
// the flight's bytes once it lands. from is the prober's ID. A
// computing flight holds any prober; one still looking up holds only a
// prober whose ID sorts after this replica's, and otherwise is marked
// to walk the peers again before it computes. A prober that names this
// replica itself is never held and marks nothing. ctx bounds the hold.
// held is "" for an answer given at once, else the outcome: HoldLanded,
// HoldFailed, or HoldComputing when ctx ended first. Hold never
// computes or consults peers. A held probe is one of the flight's
// waiters, like a local caller of Do: the flight runs on while it is
// held, even if every local caller has left, and a hold that ends
// leaves as the callers do.
func (c *Cache) Hold(ctx context.Context, key, from string) (val []byte, ok bool, held string) {
	if val, ok := c.Peek(key); ok {
		return val, true, ""
	}
	c.mu.Lock()
	if val, ok := c.getLocked(key); ok { // landed since the peek
		c.mu.Unlock()
		return val, true, ""
	}
	f := c.inflight[key]
	switch {
	case f == nil || from == c.self:
		c.mu.Unlock()
		return nil, false, ""
	case !f.computing && c.self >= from:
		f.again = true
		c.mu.Unlock()
		return nil, false, ""
	}
	f.waiters++
	c.mu.Unlock()
	switch val, err := c.wait(ctx, key, f); {
	case err == nil:
		return val, true, HoldLanded
	case ctx.Err() != nil:
		return nil, false, HoldComputing
	default:
		return nil, false, HoldFailed
	}
}

// Prefetch pulls key into the local tiers from disk or a peer, never
// computing, and reports whether the value is now stored locally. It
// deliberately skips the singleflight machinery: a prefetch that finds
// nothing must not register a flight that /v1/run callers would join
// and fail with. Its peer probes never ask to be held. A peer-sourced
// value is written through to the local disk — the peer may die; that
// is the point of prefetching.
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
	val, ok := c.loadPeers(context.Background(), key, false)
	if ok {
		c.mu.Lock()
		c.storeLocked(key, val)
		c.mu.Unlock()
		c.writeFile(key, val)
	}
	return ok
}
