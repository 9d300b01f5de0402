// Package sched is a process-wide worker-budget scheduler for the QLA
// engine. Engine.WithParallelism bounds one run's Monte Carlo fanout,
// but a serving deployment executes many runs concurrently, and if each
// takes GOMAXPROCS workers the process oversubscribes its cores by the
// number of in-flight requests. A Pool holds the one global budget:
// every run asks for the width it wants and is granted a share of
// whatever is free (always at least one slot, blocking until one is).
// Results are unaffected — fixed-seed runs are bit-identical at any
// parallelism — so the grant width is purely a throughput decision.
//
// Admission is class-aware and tenant-fair. Each acquisition carries an
// Identity (tenant name + priority class) in its context, attached with
// WithIdentity. Two classes exist: ClassInteractive (short synchronous
// /v1/run requests) strictly outranks ClassBulk (sweep points), and an
// optional slot floor (Config.InteractiveReserve) keeps bulk work from
// ever occupying the last reserve slots, so an interactive arrival is
// admitted without waiting for a saturating sweep to drain. Inside a
// class, queued tenants share capacity by stride-style fair queuing:
// each tenant carries a virtual-time pass, the tenant with the smallest
// pass is served next, and a grant of g slots advances the pass by g —
// a flood of one tenant's requests therefore costs only that tenant
// virtual time and cannot starve another's queue.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qla/internal/obs"
)

// Class is an admission priority class. Lower values outrank higher
// ones: the dispatcher always serves queued interactive work before
// queued bulk work.
type Class int

const (
	// ClassInteractive is for short, latency-sensitive requests
	// (synchronous /v1/run). It may use every slot in the pool.
	ClassInteractive Class = iota
	// ClassBulk is for throughput work (sweep points). Its in-use
	// slots are capped at capacity minus the interactive reserve.
	ClassBulk

	numClasses
)

// String returns the stable wire name of the class ("interactive",
// "bulk"), used as the class label of the pool's metrics.
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DefaultTenant is the tenant identity attached to requests that carry
// none (no X-QLA-Tenant header, library callers, tests).
const DefaultTenant = "default"

// Identity names the owner of an acquisition: which tenant is asking
// and at which priority class.
type Identity struct {
	Tenant string
	Class  Class
}

type identityKey struct{}

// WithIdentity returns a context carrying the given identity. A cache
// flight's context keeps its first caller's values, so a shared
// computation acquires slots as the caller that started it.
func WithIdentity(ctx context.Context, id Identity) context.Context {
	return context.WithValue(ctx, identityKey{}, id)
}

// IdentityFrom extracts the identity from ctx, normalizing absent or
// malformed values to the default tenant at interactive class.
func IdentityFrom(ctx context.Context) Identity {
	id, _ := ctx.Value(identityKey{}).(Identity)
	if id.Tenant == "" {
		id.Tenant = DefaultTenant
	}
	if id.Class < 0 || id.Class >= numClasses {
		id.Class = ClassInteractive
	}
	return id
}

// Config describes a fair pool. The zero value is usable: GOMAXPROCS
// capacity, no reserve, unbounded queue waits.
type Config struct {
	// Capacity is the global slot budget; <= 0 means GOMAXPROCS.
	Capacity int
	// InteractiveReserve is a slot floor held back from ClassBulk:
	// bulk in-use never exceeds Capacity-InteractiveReserve, so that
	// many slots are always available to (or idle for) interactive
	// work. Clamped to [0, Capacity-1] so bulk always keeps at least
	// one usable slot.
	InteractiveReserve int
	// InteractiveMaxWait / BulkMaxWait bound how long an acquirer of
	// that class may sit queued before Acquire gives up with a
	// *QueueWaitError. Zero means wait forever.
	InteractiveMaxWait time.Duration
	BulkMaxWait        time.Duration
	// Metrics is the registry the pool's instruments register on (nil =
	// a private one): a qla_sched_queue_wait_seconds observation for
	// every grant (zero for fast-path grants), labeled by class and
	// tenant — the per-class wait percentiles are the pool's
	// autoscaling signal — plus per-class queued and timed-out counts
	// and occupancy gauges.
	Metrics *obs.Registry
}

// maxWait returns the queue-wait bound for a class.
func (c Config) maxWait(cl Class) time.Duration {
	if cl == ClassBulk {
		return c.BulkMaxWait
	}
	return c.InteractiveMaxWait
}

// QueueWaitError reports that an acquisition sat queued past its
// class's bound and was refused. Callers should treat it as overload
// (HTTP 503) rather than failure of the work itself.
type QueueWaitError struct {
	Identity Identity
	Waited   time.Duration
}

func (e *QueueWaitError) Error() string {
	return fmt.Sprintf("sched: %s acquisition for tenant %q timed out after %v queued",
		e.Identity.Class, e.Identity.Tenant, e.Waited.Round(time.Millisecond))
}

// Pool is a class-aware, tenant-fair counting semaphore with partial
// grants: an acquirer asking for n slots receives between 1 and n,
// depending on what is free when its turn comes. The zero Pool is not
// usable; construct with New or NewFair. A Pool is safe for concurrent
// use.
type Pool struct {
	mu       sync.Mutex
	capacity int
	reserve  int
	cfg      Config

	inUse      int
	classInUse [numClasses]int
	classes    [numClasses]*classQueue
	peak       int

	// The pool's counts live only in its instruments: one queue-wait
	// observation per grant (by class and tenant, whose cardinality
	// the vec bounds), and per class the acquirers that had to queue
	// and those refused at the queue-wait bound.
	queueWait *obs.HistogramVec
	queued    [numClasses]*obs.Counter
	timeouts  [numClasses]*obs.Counter
}

// classQueue holds one class's queued tenants and the class virtual
// clock that new arrivals are clamped to.
type classQueue struct {
	tenants map[string]*tenantQueue
	vtime   float64
	waiting int
}

// tenantQueue is one tenant's FIFO of queued waiters plus its fair-
// share pass. When the queue drains the tenantQueue is dropped and the
// pass forgotten; a returning tenant re-enters at the class virtual
// time, i.e. fairness history applies only while a tenant stays
// backlogged.
type tenantQueue struct {
	ws   []*waiter
	pass float64
}

type waiter struct {
	id      Identity
	want    int
	granted int
	ready   chan struct{}
	enq     time.Time
}

// New builds a single-class-behaving Pool with the given slot capacity
// (<= 0 means GOMAXPROCS): no reserve, no queue-wait bounds. Existing callers that never attach an Identity get the old
// strict-FIFO semantics, since all their work lands in one tenant
// queue of one class.
func New(capacity int) *Pool {
	return NewFair(Config{Capacity: capacity})
}

// NewFair builds a Pool from a full admission config.
func NewFair(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	if cfg.InteractiveReserve < 0 {
		cfg.InteractiveReserve = 0
	}
	if cfg.InteractiveReserve > cfg.Capacity-1 {
		cfg.InteractiveReserve = cfg.Capacity - 1
	}
	p := &Pool{
		capacity: cfg.Capacity,
		reserve:  cfg.InteractiveReserve,
		cfg:      cfg,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p.queueWait = reg.HistogramVec("qla_sched_queue_wait_seconds",
		"Queue wait before a slot grant, by admission class and tenant.",
		obs.LatencyBuckets, "class", "tenant")
	queued := reg.CounterVec("qla_sched_queued_total", "Acquirers that had to queue for a slot, by class.", "class")
	timeouts := reg.CounterVec("qla_sched_queue_timeouts_total",
		"Acquisitions refused at the class queue-wait bound, by class.", "class")
	for c := Class(0); c < numClasses; c++ {
		p.classes[c] = &classQueue{tenants: make(map[string]*tenantQueue)}
		p.queued[c] = queued.With(c.String())
		p.timeouts[c] = timeouts.With(c.String())
	}
	reg.GaugeFunc("qla_sched_in_use", "Scheduler slots currently granted.", nil, func() float64 {
		return float64(p.Stats().InUse)
	})
	reg.GaugeFunc("qla_sched_waiting", "Acquirers queued for a scheduler slot.", nil, func() float64 {
		waiting, _ := p.Backlog()
		return float64(waiting)
	})
	reg.Gauge("qla_sched_capacity", "The scheduler's global slot budget.").Set(float64(p.capacity))
	reg.Gauge("qla_sched_interactive_reserve", "Slots withheld from bulk work for interactive arrivals.").Set(float64(p.reserve))
	return p
}

// bulkCap is the ceiling on bulk in-use slots.
func (p *Pool) bulkCap() int { return p.capacity - p.reserve }

// Acquire obtains between 1 and want slots, blocking while the pool is
// exhausted (or while earlier acquirers of the same tenant are queued —
// within one tenant and class, grants stay strictly FIFO). The caller's
// identity is read from ctx (see WithIdentity); absent one, the work is
// charged to the default tenant at interactive class. It returns the
// number of slots granted and a release function that must be called
// exactly when the work finishes (calling it more than once is a
// no-op). On context cancellation while waiting it returns ctx.Err()
// with no slots held; past the class queue-wait bound it returns a
// *QueueWaitError.
func (p *Pool) Acquire(ctx context.Context, want int) (int, func(), error) {
	id := IdentityFrom(ctx)
	if want < 1 {
		want = 1
	}
	if want > p.capacity {
		want = p.capacity
	}
	if id.Class == ClassBulk && want > p.bulkCap() {
		want = p.bulkCap()
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}

	p.mu.Lock()
	if p.canGrantNowLocked(id.Class) {
		g := want
		if free := p.capacity - p.inUse; g > free {
			g = free
		}
		if id.Class == ClassBulk {
			if room := p.bulkCap() - p.classInUse[ClassBulk]; g > room {
				g = room
			}
		}
		p.bookLocked(id, g, 0)
		p.mu.Unlock()
		return g, p.releaseFunc(id.Class, g), nil
	}
	w := &waiter{id: id, want: want, ready: make(chan struct{}), enq: time.Now()}
	p.enqueueLocked(w)
	p.mu.Unlock()

	var timeoutC <-chan time.Time
	if bound := p.cfg.maxWait(id.Class); bound > 0 {
		t := time.NewTimer(bound)
		defer t.Stop()
		timeoutC = t.C
	}

	select {
	case <-w.ready:
		return w.granted, p.releaseFunc(id.Class, w.granted), nil
	case <-timeoutC:
		p.mu.Lock()
		if p.removeWaiterLocked(w) {
			p.mu.Unlock()
			p.timeouts[id.Class].Inc()
			return 0, nil, &QueueWaitError{Identity: id, Waited: time.Since(w.enq)}
		}
		// A grant raced the timer; take it rather than waste the
		// already-booked slots.
		p.mu.Unlock()
		<-w.ready
		return w.granted, p.releaseFunc(id.Class, w.granted), nil
	case <-ctx.Done():
		p.mu.Lock()
		if p.removeWaiterLocked(w) {
			p.mu.Unlock()
			return 0, nil, ctx.Err()
		}
		// A release granted our slots concurrently with the
		// cancellation; hand them straight back. granted is stable
		// here: the dispatcher sets it before closing ready, under
		// the lock we now hold.
		p.releaseLocked(id.Class, w.granted)
		p.mu.Unlock()
		return 0, nil, ctx.Err()
	}
}

// canGrantNowLocked reports whether a new arrival of class c may be
// granted immediately without overtaking anyone it must yield to:
// queued work of its own class (fairness) or queued interactive work
// (priority). An interactive arrival may overtake queued bulk waiters
// by design.
func (p *Pool) canGrantNowLocked(c Class) bool {
	if p.capacity-p.inUse < 1 {
		return false
	}
	if p.classes[c].waiting > 0 {
		return false
	}
	if c == ClassBulk {
		if p.classes[ClassInteractive].waiting > 0 {
			return false
		}
		if p.classInUse[ClassBulk] >= p.bulkCap() {
			return false
		}
	}
	return true
}

// enqueueLocked parks w in its tenant's queue, creating the tenant
// entry at the class virtual time if it is not already backlogged.
func (p *Pool) enqueueLocked(w *waiter) {
	cq := p.classes[w.id.Class]
	tq := cq.tenants[w.id.Tenant]
	if tq == nil {
		tq = &tenantQueue{pass: cq.vtime}
		cq.tenants[w.id.Tenant] = tq
	}
	tq.ws = append(tq.ws, w)
	cq.waiting++
	p.queued[w.id.Class].Inc()
}

// removeWaiterLocked unlinks w from its queue, returning false if it
// was already dispatched.
func (p *Pool) removeWaiterLocked(w *waiter) bool {
	cq := p.classes[w.id.Class]
	tq := cq.tenants[w.id.Tenant]
	if tq == nil {
		return false
	}
	for i, q := range tq.ws {
		if q == w {
			tq.ws = append(tq.ws[:i], tq.ws[i+1:]...)
			cq.waiting--
			if len(tq.ws) == 0 {
				delete(cq.tenants, w.id.Tenant)
			}
			return true
		}
	}
	return false
}

// dispatchLocked hands freed capacity to queued waiters: interactive
// strictly first, then bulk while under its cap; within a class, the
// backlogged tenant with the smallest pass (ties broken by name for
// determinism), charging pass += granted per grant.
func (p *Pool) dispatchLocked() {
	for {
		free := p.capacity - p.inUse
		if free < 1 {
			return
		}
		var c Class
		switch {
		case p.classes[ClassInteractive].waiting > 0:
			c = ClassInteractive
		case p.classes[ClassBulk].waiting > 0 && p.classInUse[ClassBulk] < p.bulkCap():
			c = ClassBulk
		default:
			return
		}
		cq := p.classes[c]
		name, tq := minTenant(cq)
		w := tq.ws[0]
		g := w.want
		if g > free {
			g = free
		}
		if c == ClassBulk {
			if room := p.bulkCap() - p.classInUse[ClassBulk]; g > room {
				g = room
			}
		}
		tq.ws = tq.ws[1:]
		cq.waiting--
		if cq.vtime < tq.pass {
			cq.vtime = tq.pass
		}
		tq.pass += float64(g)
		if len(tq.ws) == 0 {
			delete(cq.tenants, name)
		}
		w.granted = g
		p.bookLocked(w.id, g, time.Since(w.enq))
		close(w.ready)
	}
}

// minTenant picks the backlogged tenant with the smallest pass,
// breaking ties by name so scheduling is deterministic.
func minTenant(cq *classQueue) (string, *tenantQueue) {
	var bestName string
	var best *tenantQueue
	for name, tq := range cq.tenants {
		if best == nil || tq.pass < best.pass ||
			(tq.pass == best.pass && name < bestName) {
			bestName, best = name, tq
		}
	}
	return bestName, best
}

// bookLocked records a grant of g slots to id, with the queue wait it
// paid (zero for fast-path grants).
func (p *Pool) bookLocked(id Identity, g int, waited time.Duration) {
	p.inUse += g
	p.classInUse[id.Class] += g
	p.queueWait.With(id.Class.String(), id.Tenant).Observe(waited.Seconds())
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
}

// releaseFunc wraps releaseLocked in the idempotent closure Acquire
// hands out.
func (p *Pool) releaseFunc(c Class, n int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.releaseLocked(c, n)
			p.mu.Unlock()
		})
	}
}

// releaseLocked returns n slots held by class c and re-runs dispatch.
func (p *Pool) releaseLocked(c Class, n int) {
	p.inUse -= n
	p.classInUse[c] -= n
	p.dispatchLocked()
}

// ClassStats is one priority class's slice of the pool snapshot.
type ClassStats struct {
	// InUse is the class's currently granted slots; SlotCap is the
	// most it may ever hold (capacity for interactive, capacity minus
	// the reserve for bulk); Waiting its queued acquirers right now.
	InUse, SlotCap, Waiting int
	// QueueTimeouts counts acquisitions refused at the class
	// queue-wait bound.
	QueueTimeouts uint64
}

// Stats is a point-in-time snapshot of the pool for in-process
// readers: live occupancy plus counts read back from the instruments.
type Stats struct {
	// Capacity is the global slot budget; InteractiveReserve the slot
	// floor withheld from bulk work.
	Capacity, InteractiveReserve int
	// InUse is the number of slots currently granted, Waiting the
	// queued acquirers, Peak the high-water mark of InUse (it never
	// exceeds Capacity).
	InUse, Waiting, Peak int
	// Grants counts completed acquisitions; Waits counts the
	// acquirers that had to queue first.
	Grants, Waits uint64
	// Classes breaks the pool down by priority class, keyed by class
	// name ("interactive", "bulk").
	Classes map[string]ClassStats
}

// Backlog returns the queued acquirers and the global slot budget —
// what a load-shed check reads on every sweep submission — without
// building a Stats snapshot.
func (p *Pool) Backlog() (waiting, capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waitingLocked(), p.capacity
}

// Saturated reports whether an arrival of class c would queue behind a
// full backlog: no slot can be granted to it at once, and at least bound
// acquirers wait already. A class with a free slot (the interactive
// reserve included) is never saturated; a negative bound never fills.
func (p *Pool) Saturated(c Class, bound int) bool {
	if bound < 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.canGrantNowLocked(c) && p.waitingLocked() >= bound
}

// waitingLocked counts the queued acquirers of every class.
func (p *Pool) waitingLocked() (waiting int) {
	for _, cq := range p.classes {
		waiting += cq.waiting
	}
	return waiting
}

// Stats returns a snapshot of the pool.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Capacity:           p.capacity,
		InteractiveReserve: p.reserve,
		InUse:              p.inUse,
		Peak:               p.peak,
		Grants:             p.queueWait.Count(),
		Classes:            make(map[string]ClassStats, numClasses),
	}
	for c := Class(0); c < numClasses; c++ {
		cs := ClassStats{
			InUse:         p.classInUse[c],
			SlotCap:       p.capacity,
			Waiting:       p.classes[c].waiting,
			QueueTimeouts: p.timeouts[c].Value(),
		}
		if c == ClassBulk {
			cs.SlotCap = p.bulkCap()
		}
		st.Waiting += cs.Waiting
		st.Waits += p.queued[c].Value()
		st.Classes[c.String()] = cs
	}
	return st
}
