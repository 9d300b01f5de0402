// Package breaker is the serving stack's one circuit breaker: a
// consecutive-failure breaker with a single probe per interval. After
// a threshold of consecutive failures it opens, and callers skip the
// dependency instead of paying a timeout (or a dead disk's error) on
// every request; while open it admits one probe call per interval to
// detect recovery, and the first success closes it again.
//
// Record reports the open and close transitions, so each caller logs
// once per episode — the steady state of a dead dependency is silent
// skips, not a log line per request.
package breaker

import (
	"sync"
	"time"
)

// Transition is what one recorded outcome did to the breaker.
type Transition int

const (
	// Unchanged means the breaker kept its state.
	Unchanged Transition = iota
	// Opened means this failure tripped the breaker.
	Opened
	// Closed means this success ended an open episode.
	Closed
)

// Breaker is safe for concurrent use. Construct with New.
type Breaker struct {
	after int
	probe time.Duration

	mu        sync.Mutex
	failures  int
	open      bool
	nextProbe time.Time
}

// New returns a closed breaker that opens after `after` consecutive
// failures and, while open, allows one probe per `probe` interval.
func New(after int, probe time.Duration) *Breaker {
	return &Breaker{after: after, probe: probe}
}

// Allow reports whether a call may proceed now. A closed breaker
// always allows; an open one allows a single probe per interval,
// claiming the slot so concurrent callers don't stampede a dead
// dependency together.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	now := time.Now()
	if now.Before(b.nextProbe) {
		return false
	}
	b.nextProbe = now.Add(b.probe)
	return true
}

// Record notes the outcome of an allowed call (err == nil is a
// success) and reports the transition it caused.
func (b *Breaker) Record(err error) Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		wasOpen := b.open
		b.open, b.failures = false, 0
		if wasOpen {
			return Closed
		}
		return Unchanged
	}
	b.failures++
	if !b.open && b.failures >= b.after {
		b.open = true
		b.nextProbe = time.Now().Add(b.probe)
		return Opened
	}
	return Unchanged
}

// Open reports whether the breaker is currently open, without claiming
// a probe slot.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
