package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"time"

	"qla/internal/cache"
	"qla/internal/engine"
	"qla/internal/obs"
	"qla/internal/sched"
)

// defaultCancelGrace is how long a cache-shared point computation may
// keep running after its sweep's context is cancelled, for the sake of
// singleflight followers collapsed onto it.
const defaultCancelGrace = 10 * time.Second

// defaultDeferWait bounds how long a deferred point waits before probing
// again — long enough that a leased-out point usually lands meanwhile
// (with an Await hook, the wait ends the moment it does), short enough
// that a dead lessee's expired lease is picked up promptly.
const defaultDeferWait = 250 * time.Millisecond

// ErrDeferred is the sentinel a deferred point's attempt ends with:
// another fleet replica holds the point's lease, so this replica waits
// and re-probes instead of computing a duplicate. Deferrals are not
// attempts — the retry policy never sees them.
var ErrDeferred = errors.New("sweep: point deferred to a fleet peer's lease")

// GateDecision is a Gate's verdict on one point.
type GateDecision int

const (
	// GateProceed admits the point: this replica computes it.
	GateProceed GateDecision = iota
	// GateDefer parks the point: another replica is computing it (or
	// holds its lease), so re-probe the cache later instead.
	GateDefer
)

// GateFunc decides, for a point every cache tier missed, whether this
// runner may compute it now. The serving layer's fleet mode implements
// it with per-point leases; nil admits everything.
type GateFunc func(ctx context.Context, pointHash string) GateDecision

// Runner executes an expanded Sweep's points.
type Runner struct {
	// Engine runs the points (required). Scheduler-equipped engines
	// share their worker budget across points automatically: each
	// point's run acquires its own grant, so a sweep never holds slots
	// it is not using.
	Engine *engine.Engine
	// Cache, when non-nil, serves repeated points from their content
	// address and stores fresh per-point Result bytes — the same cache
	// the HTTP layer fronts /v1/run with, so sweep points and single
	// runs share entries and a cached point's bytes replay verbatim.
	Cache *cache.Cache
	// Concurrency bounds how many points are in flight at once. 0 means
	// GOMAXPROCS when the engine draws workers from a shared scheduler
	// budget (the serving configuration), and 1 otherwise: on an
	// unscheduled engine every concurrent Monte Carlo point would take
	// its full GOMAXPROCS-wide pool, oversubscribing the machine
	// quadratically.
	Concurrency int
	// Retry is the per-point execution policy; the zero value runs each
	// point once with no per-attempt deadline.
	Retry RetryPolicy
	// Observer, when non-nil, is called with every point's final
	// PointResult as it completes (after retries), never concurrently —
	// the serving layer's journal appends per-point completion records
	// through it.
	Observer func(PointResult)
	// Fault is the test-only chaos seam (see FaultHook); nil in
	// production.
	Fault FaultHook
	// CancelGrace overrides how long a cache-shared point computation
	// survives its sweep's cancellation for the sake of collapsed
	// followers (0 = 10s).
	CancelGrace time.Duration
	// Gate, when non-nil, is consulted before a point is freshly
	// computed (a stored or in-flight point needs no permission). A
	// GateDefer parks the point for DeferWait and re-probes — the
	// fleet's work-leasing hook.
	Gate GateFunc
	// DeferWait overrides how long a deferred point waits between
	// probes (0 = 250ms).
	DeferWait time.Duration
	// Await, when non-nil, is how a deferred point waits: it may block
	// for up to wait (the deferral) for the point's bytes to arrive from
	// the replica holding its lease, and reports whether the point is now
	// stored. A stored point re-probes at once and settles as a cache hit;
	// otherwise the point sleeps out the rest of DeferWait. ctx is the
	// sweep's: its cancellation must end the wait.
	Await func(ctx context.Context, pointHash string, wait time.Duration) bool
	// Offset rotates the order points are dispatched in (still landing
	// by index): replica k of a fleet starts k·(points/replicas) in,
	// so replicas meet in the middle instead of racing point by point.
	Offset int
	// Tenant names the sweep's owner. Every point acquisition runs as
	// this tenant's bulk-class work in the engine's shared scheduler,
	// so a sweep can neither starve interactive requests nor crowd out
	// another tenant's points ("" = the default tenant).
	Tenant string
	// Renew, when non-nil, is called every RenewEvery while a point is
	// actually computing (never for cache hits) — the fleet's
	// mid-compute lease renewal hook, so points that outlive the lease
	// TTL are not re-claimed and duplicated by peers. Failures inside
	// Renew are the hook's own business; the runner ignores them.
	Renew func(ctx context.Context, pointHash string)
	// RenewEvery is the renewal period; <= 0 disables renewal. The
	// serving layer wires lease-ttl/2.
	RenewEvery time.Duration
	// Metrics, when non-nil, records every point's final outcome —
	// duration by outcome, retries, gate deferrals. Shared across
	// sweeps: the serving layer builds one per process, and it is the
	// only place the serving stack counts sweep points.
	Metrics *PointMetrics
}

// PointMetrics aggregates per-point instruments. A nil *PointMetrics
// records nothing.
type PointMetrics struct {
	// Duration is observed once per settled point, labeled by outcome:
	// "ok" (fresh compute), "cached" (any tier replay), or "error" —
	// its counts are the settled, cached and failed point totals.
	Duration *obs.HistogramVec
	// Retried counts points that needed more than one attempt; Retries
	// the extra attempts beyond each point's first.
	Retried, Retries *obs.Counter
	// Defers counts gate deferrals (probes parked on a peer's lease).
	Defers *obs.Counter
}

// NewPointMetrics registers the per-point instruments on reg.
func NewPointMetrics(reg *obs.Registry) *PointMetrics {
	m := &PointMetrics{
		Duration: reg.HistogramVec("qla_sweep_point_duration_seconds",
			"Wall time of one settled sweep point, by outcome (ok, cached, error).",
			obs.LatencyBuckets, "outcome"),
		Retried: reg.Counter("qla_sweep_points_retried_total",
			"Sweep points that needed more than one attempt."),
		Retries: reg.Counter("qla_sweep_point_retries_total",
			"Extra per-point attempts beyond the first."),
		Defers: reg.Counter("qla_sweep_point_defers_total",
			"Point probes parked because a fleet peer held the lease."),
	}
	// Every outcome renders (at zero) before the first point settles.
	for _, outcome := range []string{"ok", "cached", "error"} {
		m.Duration.With(outcome)
	}
	return m
}

func (m *PointMetrics) observe(pr PointResult) {
	if m == nil {
		return
	}
	outcome := pr.Status
	if pr.Cached {
		outcome = "cached"
	}
	m.Duration.With(outcome).Observe(pr.Elapsed.Seconds())
	if pr.Attempts > 1 {
		m.Retried.Inc()
		m.Retries.Add(uint64(pr.Attempts - 1))
	}
	if pr.Deferred > 0 {
		m.Defers.Add(uint64(pr.Deferred))
	}
}

// Progress is a monotonic snapshot of a sweep run, delivered to the
// Run callback after every point completes.
type Progress struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
	// Retries counts extra per-point attempts spent so far.
	Retries int `json:"retries,omitempty"`
	// Deferred counts gate deferrals spent so far — probes parked
	// because another fleet replica held the point's lease.
	Deferred int `json:"deferred,omitempty"`
}

// PointResult is the outcome of one grid point.
type PointResult struct {
	// Index is the point's position in the sweep's row-major order.
	Index int `json:"index"`
	// Coords are the axis values of the point (one per sweep field).
	Coords []any `json:"coords"`
	// SpecHash is the point Spec's content address.
	SpecHash string `json:"spec_hash"`
	// Status is "ok" or "error".
	Status string `json:"status"`
	// Cached reports whether the result replayed stored bytes.
	Cached bool `json:"cached,omitempty"`
	// Elapsed is the point's wall time (near zero on a cache hit).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Error carries the failure text when Status is "error".
	Error string `json:"error,omitempty"`
	// Attempts is how many tries the point took (1 = no retries).
	Attempts int `json:"attempts,omitempty"`
	// Deferred is how many times the point was parked by the gate
	// (another replica held its lease) before settling.
	Deferred int `json:"deferred,omitempty"`
	// Result holds the marshaled engine Result bytes, verbatim — on a
	// cache hit, byte-identical to the run that populated the entry.
	Result json.RawMessage `json:"result,omitempty"`
}

// Result aggregates a sweep run.
type Result struct {
	// Experiment is the canonical base experiment name.
	Experiment string `json:"experiment"`
	// SweepHash is the canonical SweepSpec's content address (the async
	// job ID under which the serving layer ran it).
	SweepHash string `json:"sweep_hash"`
	// Fields is the coordinate schema: the axis fields in order.
	Fields []string `json:"fields"`
	// Total, OK, Cached and Failed count the points.
	Total  int `json:"total"`
	OK     int `json:"ok"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
	// Retried counts points that needed more than one attempt;
	// RetryAttempts the total extra attempts spent across them.
	Retried       int `json:"retried,omitempty"`
	RetryAttempts int `json:"retry_attempts,omitempty"`
	// Deferred totals the gate deferrals spent across all points.
	Deferred int `json:"deferred,omitempty"`
	// Elapsed is the whole sweep's wall time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Points holds every point in row-major sweep order.
	Points []PointResult `json:"points"`
}

// Run executes every point of sw, honoring ctx: per-point failures are
// recorded in the Result (Status "error") and the sweep continues, but
// a cancelled or expired context aborts the whole run with its error.
// progress, when non-nil, is called after each point completes with a
// monotonic snapshot (never concurrently). The aggregated Result is
// deterministic at any Concurrency: points land by index, and each
// point's payload is bit-identical at any engine parallelism.
func (r *Runner) Run(ctx context.Context, sw *Sweep, progress func(Progress)) (*Result, error) {
	eng := r.Engine
	if eng == nil {
		eng = engine.New()
	}
	// Every point acquisition below is this tenant's bulk-class work;
	// the identity rides the context through the cache's compute
	// closures (context.WithoutCancel keeps values) into the engine's
	// scheduler acquisitions.
	ctx = sched.WithIdentity(ctx, sched.Identity{Tenant: r.Tenant, Class: sched.ClassBulk})
	workers := r.Concurrency
	if workers <= 0 {
		if eng.HasScheduler() {
			workers = runtime.GOMAXPROCS(0)
		} else {
			workers = 1
		}
	}
	if workers > len(sw.Points) {
		workers = len(sw.Points)
	}

	started := time.Now()
	res := &Result{
		Experiment: sw.Experiment,
		SweepHash:  sw.Hash,
		Fields:     sw.Fields,
		Total:      len(sw.Points),
		Points:     make([]PointResult, len(sw.Points)),
	}

	var (
		mu   sync.Mutex // guards the counters and the progress callback
		wg   sync.WaitGroup
		next = make(chan int)
	)
	finish := func(pr PointResult) {
		mu.Lock()
		res.Points[pr.Index] = pr
		if pr.Status == "ok" {
			res.OK++
		} else {
			res.Failed++
		}
		if pr.Cached {
			res.Cached++
		}
		if pr.Attempts > 1 {
			res.Retried++
			res.RetryAttempts += pr.Attempts - 1
		}
		res.Deferred += pr.Deferred
		r.Metrics.observe(pr)
		if r.Observer != nil {
			r.Observer(pr)
		}
		if progress != nil {
			progress(Progress{Total: res.Total, Done: res.OK + res.Failed, Cached: res.Cached, Failed: res.Failed, Retries: res.RetryAttempts, Deferred: res.Deferred})
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				finish(r.runPoint(ctx, eng, sw, i))
			}
		}()
	}
	// Rotated dispatch: fleet replicas start at different offsets so
	// they drain the grid from different ends instead of contending for
	// every point's lease in lockstep. Results still land by index.
	offset := r.Offset
	if n := len(sw.Points); n > 0 {
		offset = ((offset % n) + n) % n
	}
	for k := range sw.Points {
		if ctx.Err() != nil {
			break
		}
		next <- (k + offset) % len(sw.Points)
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A deadline that fires after the last point already landed
		// cleanly has cost nothing — don't throw away a fully computed
		// sweep. Failed points disqualify the escape: when the deadline
		// itself killed in-flight points, they are "complete" only as
		// errors, and that run must report the deadline, not success.
		// An explicit cancel stays a cancel even at 100%: the caller
		// asked for the job's death, not its result.
		clean := res.OK == res.Total
		if !(clean && errors.Is(err, context.DeadlineExceeded)) {
			return nil, err
		}
	}
	res.Elapsed = time.Since(started)
	return res, nil
}

// runPoint executes one point under the retry policy: attempts run
// until one succeeds, the attempts are exhausted, or the failure
// classifies as non-retryable. Between attempts the worker sleeps the
// policy's jittered backoff (aborted by sweep cancellation). Gate
// deferrals sit outside the attempt count entirely: a parked point
// re-probes once Await reports it stored, or after DeferWait, for as
// long as the sweep context lives — lease expiry guarantees an
// abandoned point eventually admits.
func (r *Runner) runPoint(ctx context.Context, eng *engine.Engine, sw *Sweep, i int) PointResult {
	pol := r.Retry.normalized()
	wait := r.DeferWait
	if wait <= 0 {
		wait = defaultDeferWait
	}
	deferred := 0
	for attempt := 1; ; attempt++ {
		pr, err := r.runPointOnce(ctx, eng, sw, i)
		pr.Deferred = deferred
		if errors.Is(err, ErrDeferred) {
			deferred++
			pr.Deferred = deferred
			pr.Attempts = attempt
			attempt--
			until := time.Now().Add(wait)
			if r.Await != nil && r.Await(ctx, pr.SpecHash, wait) {
				continue
			}
			select {
			case <-time.After(time.Until(until)):
				continue
			case <-ctx.Done():
				return pr
			}
		}
		pr.Attempts = attempt
		if err == nil || attempt >= pol.MaxAttempts || !retryable(ctx, err) {
			return pr
		}
		select {
		case <-time.After(pol.backoff(attempt, pr.SpecHash)):
		case <-ctx.Done():
			return pr
		}
	}
}

// runPointOnce executes one attempt of one point, through the cache
// when one is wired, under the policy's per-attempt deadline. Panics
// escaping the fault hook are converted to retryable errors (the
// engine converts its own experiment panics the same way).
func (r *Runner) runPointOnce(parent context.Context, eng *engine.Engine, sw *Sweep, i int) (pr PointResult, err error) {
	pt := sw.Points[i]
	pr = PointResult{
		Index:    i,
		Coords:   pt.Coords,
		SpecHash: pt.Canonical.Hash,
	}
	ctx := parent
	if pol := r.Retry.normalized(); pol.PointTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, pol.PointTimeout)
		defer cancel()
	}
	started := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			err = recoverToError(rec)
		}
		pr.Elapsed = time.Since(started)
		if err != nil {
			pr.Status = "error"
			pr.Error = err.Error()
			pr.Cached = false
			pr.Result = nil
		}
	}()
	if r.Fault != nil {
		if err = r.Fault(ctx, pt.Canonical.Hash); err != nil {
			return pr, err
		}
	}
	// The gate is asked only when the point would actually compute: a
	// stored value or a joinable in-flight computation needs no lease.
	// The check runs before GetOrCompute, never inside it — a deferral
	// must not resolve the singleflight with an error that concurrent
	// /v1/run followers on the same Spec would receive. The Contains →
	// GetOrCompute gap is benign here: a vanished entry means one
	// duplicate computation, not a correctness failure.
	if r.Gate != nil {
		admit := true
		if r.Cache != nil {
			stored, inflight := r.Cache.Contains(pt.Canonical.Hash)
			admit = !stored && !inflight
		}
		if admit && r.Gate(ctx, pt.Canonical.Hash) == GateDefer {
			return pr, ErrDeferred
		}
	}
	var (
		body []byte
		hit  bool
	)
	if r.Cache != nil {
		grace := r.CancelGrace
		if grace <= 0 {
			grace = defaultCancelGrace
		}
		// Through a shared cache the computation may have singleflight
		// followers from other callers (a concurrent /v1/run on the same
		// Spec), so it must not die instantly with this attempt's context —
		// the detachment serve.handleRun applies. But fully detached
		// work would keep holding the shared scheduler budget until the
		// sweep deadline after an explicit cancel, so cancellation
		// propagates after a grace window: long enough for a collapsed
		// follower's point to finish in the common case, short enough
		// that a cancelled runaway sweep actually stops.
		body, hit, err = r.Cache.GetOrCompute(ctx, pt.Canonical.Hash, func() ([]byte, error) {
			runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
			defer cancel()
			if deadline, ok := ctx.Deadline(); ok {
				runCtx, cancel = context.WithDeadline(runCtx, deadline)
				defer cancel()
			}
			stop := context.AfterFunc(ctx, func() {
				timer := time.AfterFunc(grace, cancel)
				// The compute's own deadline caps the timer's useful
				// life; letting it fire against a finished context is a
				// no-op, so no cleanup is needed beyond cancel itself.
				_ = timer
			})
			defer stop()
			stopRenew := r.startRenewal(runCtx, pt.Canonical.Hash)
			defer stopRenew()
			out, err := eng.RunCanonical(runCtx, pt.Canonical)
			if err != nil {
				return nil, err
			}
			return json.Marshal(out)
		})
	} else {
		stopRenew := r.startRenewal(ctx, pt.Canonical.Hash)
		var out engine.Result
		if out, err = eng.RunCanonical(ctx, pt.Canonical); err == nil {
			body, err = json.Marshal(out)
		}
		stopRenew()
	}
	pr.Cached = hit
	if err != nil {
		return pr, err
	}
	pr.Status = "ok"
	pr.Result = body
	return pr, nil
}

// startRenewal arms the mid-compute lease renewal loop for one point:
// Renew fires every RenewEvery until stop is called or ctx dies. A
// no-op (and no goroutine) when renewal is not configured.
func (r *Runner) startRenewal(ctx context.Context, pointHash string) (stop func()) {
	if r.Renew == nil || r.RenewEvery <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(r.RenewEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				r.Renew(ctx, pointHash)
			}
		}
	}()
	return func() { close(done) }
}
