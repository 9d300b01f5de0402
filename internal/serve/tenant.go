package serve

// Multi-tenant admission: every request carries a tenant identity
// (X-QLA-Tenant header, "default" otherwise) that the serving stack
// threads through rate limiting, job quotas, the fair scheduler and
// the tenant-labelled metrics. Throttling responses are unified here:
// 429s (per-tenant rate/quota limits) and 503s (global queue bounds)
// share one JSON error envelope, one backlog-scaled Retry-After
// policy, headers naming the refused tenant and the deciding limit,
// and one qla_serve_throttled_total{tenant,limit} counter.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qla/internal/sched"
)

const (
	// TenantHeader carries the caller's tenant identity. Absent means
	// sched.DefaultTenant; fleet-forwarded sweeps carry the
	// originating caller's tenant in it.
	TenantHeader = "X-QLA-Tenant"
	// ThrottleHeader names the limit that refused a throttled request:
	// "rate" (per-tenant token bucket), "quota" (per-tenant job
	// quota), or "queue" (global backlog / queue-wait bounds).
	ThrottleHeader = "X-QLA-Throttle"
)

const (
	throttleRate  = "rate"
	throttleQuota = "quota"
	throttleQueue = "queue"
)

// tenantFrom resolves and validates the request's tenant identity. An
// absent header means the default tenant; a malformed one is a client
// error, not a new tenant — names land in metric labels and scheduler
// queues, so their alphabet and length stay bounded.
func tenantFrom(r *http.Request) (string, error) {
	t := strings.TrimSpace(r.Header.Get(TenantHeader))
	if t == "" {
		return sched.DefaultTenant, nil
	}
	if len(t) > 64 {
		return "", fmt.Errorf("invalid %s %q: longer than 64 bytes", TenantHeader, t[:64]+"…")
	}
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("invalid %s %q: want [A-Za-z0-9._-]{1,64}", TenantHeader, t)
		}
	}
	return t, nil
}

// tenantTableCap bounds the rate-limiter table; past it the least
// recently seen tenant's bucket is recycled.
const tenantTableCap = 4096

// tenantTable holds the per-tenant token buckets. One table is safe
// for concurrent use.
type tenantTable struct {
	rps   float64 // tokens accrued per second; <= 0 disables limiting
	burst float64 // bucket depth

	mu      sync.Mutex
	entries map[string]*tenantEntry
}

// tenantEntry is one tenant's bucket; last is when it was last
// refilled, which is also when the tenant was last seen.
type tenantEntry struct {
	tokens float64
	last   time.Time
}

func newTenantTable(rps, burst float64) *tenantTable {
	if burst <= 0 {
		burst = math.Max(1, 2*rps)
	}
	return &tenantTable{rps: rps, burst: burst, entries: make(map[string]*tenantEntry)}
}

// entryLocked finds or creates a tenant's bucket, recycling the least
// recently seen one when the table is full.
func (t *tenantTable) entryLocked(tenant string, now time.Time) *tenantEntry {
	e := t.entries[tenant]
	if e == nil {
		if len(t.entries) >= tenantTableCap {
			var victim string
			var oldest time.Time
			for name, v := range t.entries {
				if victim == "" || v.last.Before(oldest) {
					victim, oldest = name, v.last
				}
			}
			delete(t.entries, victim)
		}
		e = &tenantEntry{tokens: t.burst, last: now}
		t.entries[tenant] = e
	}
	return e
}

// admit spends one rate-limit token for tenant. When refused it
// returns the whole seconds until the bucket accrues a token — the
// client-facing wait the 429 quotes. With limiting off it takes no
// lock at all.
func (t *tenantTable) admit(tenant string) (ok bool, tokenWait int) {
	if t.rps <= 0 {
		return true, 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entryLocked(tenant, now)
	e.tokens = math.Min(t.burst, e.tokens+now.Sub(e.last).Seconds()*t.rps)
	e.last = now
	if e.tokens >= 1 {
		e.tokens--
		return true, 0
	}
	return false, int(math.Ceil((1 - e.tokens) / t.rps))
}

// throttle writes one unified refusal — the single path every 429 and
// throttling 503 goes through: the JSON error envelope, Retry-After,
// and the tenant/limit headers clients use to tell limits apart.
func (s *Server) throttle(w http.ResponseWriter, status int, tenant, limit string, retryAfter int, err error) {
	s.throttled.With(tenant, limit).Inc()
	w.Header().Set(TenantHeader, tenant)
	w.Header().Set(ThrottleHeader, limit)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, status, err)
}

// rateLimit runs the per-tenant token bucket for one submission,
// writing the 429 itself when the tenant is over. The Retry-After is
// backlog-consistent: at least the bucket's token wait, never less
// than what a 503 would quote right now, capped like every
// retryAfterSeconds answer.
func (s *Server) rateLimit(w http.ResponseWriter, tenant string) bool {
	ok, tokenWait := s.tenants.admit(tenant)
	if ok {
		return true
	}
	ra := s.retryAfterSeconds()
	if tokenWait > ra {
		ra = tokenWait
	}
	if ra > 30 {
		ra = 30
	}
	s.throttle(w, http.StatusTooManyRequests, tenant, throttleRate, ra,
		fmt.Errorf("tenant %q over rate limit (%g req/s, burst %g); retry after %ds",
			tenant, s.tenants.rps, s.tenants.burst, ra))
	return false
}
