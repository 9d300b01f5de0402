// Package jobs is the in-process async job manager of the QLA serving
// layer. A sweep over a machine grid can run for minutes — far past any
// sane HTTP request deadline — so the serving layer submits it here and
// returns immediately: Submit hands back a job keyed by a
// content-addressed ID (the canonical SweepSpec hash), the job runs
// detached from the submitting request, progress counters
// (done/total/cached/failed) stream to any number of subscribers (the
// SSE endpoint), and the finished result bytes stay retrievable until a
// TTL expires. The store is bounded: expired and oldest-finished jobs
// are evicted to admit new work, and submission fails cleanly when
// every stored job is still running. Because IDs are content
// addresses, re-submitting identical work while a job lives — running
// or finished — joins it instead of recomputing.
package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"qla/internal/obs"
)

// State is a job's lifecycle phase.
type State string

const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s != StateRunning }

// Progress carries a job's monotonic completion counters.
type Progress struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
	// Retries counts extra per-point attempts the retry policy spent.
	Retries int `json:"retries,omitempty"`
}

// Config sizes a Manager. The zero value is usable: 256 stored jobs,
// 256 MiB of retained result bytes, 1 h retention of finished jobs, no
// per-tenant quotas.
type Config struct {
	// MaxJobs bounds the job store, running and finished together.
	MaxJobs int
	// MaxResultBytes bounds the total result bytes retained across
	// finished jobs (negative = unbounded). A result is charged its
	// full encoded length even where it references bytes the result
	// cache also holds: the cache may evict an entry that a job keeps
	// alive.
	// When a settling job pushes the total over budget,
	// older finished jobs are evicted first; the newest result is
	// always kept even if it alone exceeds the budget — dropping it
	// would turn a completed sweep into an unretrievable one.
	MaxResultBytes int64
	// TTL is how long finished jobs stay retrievable.
	TTL time.Duration
	// TenantMaxJobs caps one tenant's concurrently running jobs;
	// submissions over the cap fail with a *QuotaError. Joining an
	// existing job never counts against the cap — content-addressed
	// dedup stays free. 0 = unlimited.
	TenantMaxJobs int
	// TenantMaxResultBytes bounds one tenant's retained result bytes:
	// when a settling job pushes its tenant over, that tenant's own
	// oldest finished jobs are evicted first (the settling job itself
	// is exempt, like the global budget). 0 = unlimited.
	TenantMaxResultBytes int64
}

// QuotaError reports a submission refused by a per-tenant quota. It is
// a client-pacing signal (HTTP 429), distinct from the store-full
// overload error.
type QuotaError struct {
	Tenant string
	Limit  string // which quota decided, e.g. "max-jobs"
	Max    int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobs: tenant %q over %s quota (max %d)", e.Tenant, e.Limit, e.Max)
}

// Manager owns the job store. Construct with NewManager; one Manager is
// safe for any number of concurrent submitters, pollers and
// subscribers.
type Manager struct {
	cfg         Config
	mu          sync.Mutex
	jobs        map[string]*Job
	resultBytes int64
	// nextExpiry is the earliest time a stored finished job passes its
	// TTL (zero when none is finished): lookups scan the store for
	// expired jobs only once it has passed.
	nextExpiry time.Time
	// tenantRunning / tenantBytes are the per-tenant quota ledgers;
	// entries are pruned the moment they hit zero, so the maps stay
	// bounded by the live store, not by tenant-name cardinality.
	tenantRunning map[string]int
	tenantBytes   map[string]int64

	// Lifecycle event counts live only here, one child per event kind.
	submitted, deduped, completed, failed, cancelled, evicted, quotaDenied *obs.Counter
}

// Instrument moves the manager's instruments from its private registry
// onto reg: the qla_jobs_events_total{event} lifecycle counters and
// store occupancy gauges evaluated at scrape time. Call it before the
// first submission; earlier counts are not carried over.
func (m *Manager) Instrument(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	ev := reg.CounterVec("qla_jobs_events_total", "Job lifecycle events, by kind.", "event")
	m.submitted, m.deduped = ev.With("submitted"), ev.With("deduped")
	m.completed, m.failed, m.cancelled = ev.With("completed"), ev.With("failed"), ev.With("cancelled")
	m.evicted, m.quotaDenied = ev.With("evicted"), ev.With("quota_denied")
	reg.GaugeFunc("qla_jobs_running", "Jobs currently running.", nil, func() float64 {
		return float64(m.Stats().Running)
	})
	reg.GaugeFunc("qla_jobs_stored", "Jobs held in the store, running and finished.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.jobs))
	})
	reg.GaugeFunc("qla_jobs_result_bytes", "Bytes of stored job results.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.resultBytes)
	})
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.MaxResultBytes == 0 {
		cfg.MaxResultBytes = 256 << 20
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Hour
	}
	m := &Manager{
		cfg:           cfg,
		jobs:          make(map[string]*Job),
		tenantRunning: make(map[string]int),
		tenantBytes:   make(map[string]int64),
	}
	m.Instrument(obs.NewRegistry())
	return m
}

// Job is one asynchronous execution. All methods are safe for
// concurrent use.
type Job struct {
	id      string
	tenant  string
	mgr     *Manager
	created time.Time

	mu sync.Mutex
	// cancel fires the job's context. settle calls it and clears it, so
	// a stored finished job keeps no context alive.
	cancel          context.CancelFunc
	state           State
	cancelRequested bool
	progress        Progress
	result          Body
	charged         bool // result bytes counted against the store budget
	err             error
	finished        time.Time
	subs            map[chan struct{}]struct{}
}

// Snapshot is a point-in-time view of a job, JSON-shaped for the
// polling endpoint.
type Snapshot struct {
	ID             string    `json:"id"`
	Tenant         string    `json:"tenant,omitempty"`
	State          State     `json:"state"`
	Progress       Progress  `json:"progress"`
	Created        time.Time `json:"created"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Error          string    `json:"error,omitempty"`
}

// SubmitOptions qualifies a submission.
type SubmitOptions struct {
	// Tenant is the owning tenant; empty means no tenant accounting
	// (library callers). Quotas and stats are keyed on it.
	Tenant string
	// Total seeds the job's progress denominator.
	Total int
	// BypassQuota admits the job even over the tenant's concurrent-job
	// quota. The journal-replay path sets it: refusing durable work at
	// restart would silently drop it.
	BypassQuota bool
}

// Body is a finished job's result: its encoded length, charged
// against the byte budgets, and a way to write it. A Body may
// reference memory another owner holds (a settled sweep references
// the result cache's payloads), so it must be immutable once the job
// settles, and WriteTo safe to call from several goroutines at once.
type Body interface {
	Len() int64
	WriteTo(w io.Writer) (int64, error)
}

// bytesBody is the Body of a result already held as one byte slice.
type bytesBody []byte

func (b bytesBody) Len() int64 { return int64(len(b)) }

func (b bytesBody) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// Submit registers a job under id and starts run in its own goroutine,
// detached from the submitter (a disconnecting client must not kill a
// sweep other clients may be watching). If a job with the same id is
// already running, or done within the TTL, that job is returned with
// created=false and nothing new starts: IDs are content addresses, so
// identical work collapses. A failed or cancelled job does not block
// its address — re-submission evicts it and retries fresh. A full
// store of running jobs rejects the submission, and a tenant over its
// concurrent-job quota is refused with a *QuotaError.
//
// run receives a cancellable context (Cancel fires it) and a report
// callback for progress updates; its returned bytes become the job
// result. A nil error with the context cancelled still records the job
// as done — the work finished despite the cancel racing it.
func (m *Manager) Submit(id string, opts SubmitOptions, run func(ctx context.Context, report func(Progress)) ([]byte, error)) (j *Job, created bool, err error) {
	return m.SubmitBody(id, opts, func(ctx context.Context, report func(Progress)) (Body, error) {
		res, err := run(ctx, report)
		return bytesBody(res), err
	})
}

// SubmitBody is Submit for a run whose result is a Body: it is
// retained as returned and charged against the byte budgets at its
// Len; Job.Body hands it back as it is.
func (m *Manager) SubmitBody(id string, opts SubmitOptions, run func(ctx context.Context, report func(Progress)) (Body, error)) (j *Job, created bool, err error) {
	if id == "" {
		return nil, false, fmt.Errorf("jobs: empty job ID")
	}
	now := time.Now()
	m.mu.Lock()
	m.evictExpiredLocked(now)
	if j, ok := m.jobs[id]; ok {
		j.mu.Lock()
		alive := j.state == StateDone || (j.state == StateRunning && !j.cancelRequested)
		j.mu.Unlock()
		if alive {
			m.mu.Unlock()
			m.deduped.Inc()
			return j, false, nil
		}
		// A failed or cancelled job must not squat on its content
		// address until the TTL: the whole point of re-submitting is to
		// retry, so the dead job makes way for a fresh one. A
		// cancel-requested job still draining counts as dead too — it
		// is destined for StateCancelled, and joining it would turn the
		// retry into a 410. Its goroutine settles harmlessly into the
		// evicted Job object.
		m.dropLocked(id, j)
	}
	if q := m.cfg.TenantMaxJobs; q > 0 && opts.Tenant != "" && !opts.BypassQuota &&
		m.tenantRunning[opts.Tenant] >= q {
		m.mu.Unlock()
		m.quotaDenied.Inc()
		return nil, false, &QuotaError{Tenant: opts.Tenant, Limit: "max-jobs", Max: q}
	}
	if len(m.jobs) >= m.cfg.MaxJobs && !m.evictOldestFinishedLocked(nil) {
		m.mu.Unlock()
		return nil, false, fmt.Errorf("jobs: store full (%d jobs, all running)", m.cfg.MaxJobs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j = &Job{
		id:      id,
		tenant:  opts.Tenant,
		mgr:     m,
		created: now,
		cancel:  cancel,
		state:   StateRunning,
		progress: Progress{
			Total: opts.Total,
		},
		subs: make(map[chan struct{}]struct{}),
	}
	m.jobs[id] = j
	if j.tenant != "" {
		m.tenantRunning[j.tenant]++
	}
	m.mu.Unlock()
	m.submitted.Inc()
	go j.execute(ctx, run)
	return j, true, nil
}

// Get returns the job stored under id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictExpiredLocked(time.Now())
	j, ok := m.jobs[id]
	return j, ok
}

// dropLocked removes a job from the store, refunding any result bytes
// it had charged against the budget.
func (m *Manager) dropLocked(id string, j *Job) {
	delete(m.jobs, id)
	j.mu.Lock()
	if j.charged {
		n := j.result.Len()
		m.resultBytes -= n
		if j.tenant != "" {
			m.creditTenantBytesLocked(j.tenant, n)
		}
		j.charged = false
	}
	j.mu.Unlock()
	m.evicted.Inc()
}

// creditTenantBytesLocked refunds n bytes to a tenant's ledger,
// pruning the entry at zero so the map stays bounded.
func (m *Manager) creditTenantBytesLocked(tenant string, n int64) {
	m.tenantBytes[tenant] -= n
	if m.tenantBytes[tenant] <= 0 {
		delete(m.tenantBytes, tenant)
	}
}

// noteSettled records that j finished at finished: it arms the expiry
// scan for the job and balances the Submit-time running increment.
// settle calls it exactly once per job, whether or not the job is
// still stored.
func (m *Manager) noteSettled(j *Job, finished time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteExpiryLocked(finished.Add(m.cfg.TTL))
	if j.tenant == "" {
		return
	}
	m.tenantRunning[j.tenant]--
	if m.tenantRunning[j.tenant] <= 0 {
		delete(m.tenantRunning, j.tenant)
	}
}

// evictExpiredLocked drops finished jobs older than the TTL. Until the
// earliest expiry has passed there is nothing to drop, so it returns
// without looking at the store.
func (m *Manager) evictExpiredLocked(now time.Time) {
	if m.nextExpiry.IsZero() || !now.After(m.nextExpiry) {
		return
	}
	m.nextExpiry = time.Time{}
	for id, j := range m.jobs {
		j.mu.Lock()
		fin, exp := j.state.Finished(), j.finished.Add(m.cfg.TTL)
		j.mu.Unlock()
		if !fin {
			continue
		}
		if now.After(exp) {
			m.dropLocked(id, j)
		} else {
			m.noteExpiryLocked(exp)
		}
	}
}

// noteExpiryLocked keeps nextExpiry the earliest pending expiry.
func (m *Manager) noteExpiryLocked(exp time.Time) {
	if m.nextExpiry.IsZero() || exp.Before(m.nextExpiry) {
		m.nextExpiry = exp
	}
}

// evictOldestFinishedLocked drops the longest-finished job (other than
// keep, which may be nil) to make room, reporting whether it found a
// victim.
func (m *Manager) evictOldestFinishedLocked(keep *Job) bool {
	return m.evictOldestFinishedOfLocked("", keep)
}

// evictOldestFinishedOfLocked drops the longest-finished job belonging
// to tenant (any tenant when empty), sparing keep.
func (m *Manager) evictOldestFinishedOfLocked(tenant string, keep *Job) bool {
	var (
		victim    string
		victimJob *Job
		oldest    time.Time
	)
	for id, j := range m.jobs {
		if j == keep || (tenant != "" && j.tenant != tenant) {
			continue
		}
		j.mu.Lock()
		fin, at := j.state.Finished(), j.finished
		j.mu.Unlock()
		if fin && (victim == "" || at.Before(oldest)) {
			victim, victimJob, oldest = id, j, at
		}
	}
	if victim == "" {
		return false
	}
	m.dropLocked(victim, victimJob)
	return true
}

// noteResult charges a settled job's result bytes against the store
// budget, evicting older finished jobs until it holds. The settling
// job itself is exempt from eviction: even a result larger than the
// whole budget is kept, because dropping it would turn a completed
// sweep into an unretrievable one.
func (m *Manager) noteResult(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.jobs[j.id]; !ok || cur != j {
		return // evicted before settling finished accounting
	}
	j.mu.Lock()
	n := j.result.Len()
	if j.charged || n == 0 {
		j.mu.Unlock()
		return
	}
	j.charged = true
	j.mu.Unlock()
	m.resultBytes += n
	if j.tenant != "" {
		m.tenantBytes[j.tenant] += n
	}
	// The tenant budget first: it evicts only the settling tenant's own
	// jobs, which also relieves the global total.
	if tmax := m.cfg.TenantMaxResultBytes; tmax > 0 && j.tenant != "" {
		overTenant := func() bool {
			if n > tmax {
				return m.tenantBytes[j.tenant]-n > tmax
			}
			return m.tenantBytes[j.tenant] > tmax
		}
		for overTenant() {
			if !m.evictOldestFinishedOfLocked(j.tenant, j) {
				break
			}
		}
	}
	max := m.cfg.MaxResultBytes
	if max < 0 {
		return
	}
	// When the settling result alone breaches the budget, no eviction
	// can satisfy it — destroying the other jobs' still-valid results
	// would gain nothing. Budget the others on their own instead, so
	// retained memory stays bounded by MaxResultBytes plus the one
	// oversized (and exempt) result.
	overBudget := func() bool {
		if n > max {
			return m.resultBytes-n > max
		}
		return m.resultBytes > max
	}
	for overBudget() {
		if !m.evictOldestFinishedLocked(j) {
			return
		}
	}
}

// execute runs the job body and records the terminal state. A panic
// escaping run must not strand a running job (pollers would wait
// forever); it is converted to a failure.
func (j *Job) execute(ctx context.Context, run func(ctx context.Context, report func(Progress)) (Body, error)) {
	completed := false
	defer func() {
		if completed {
			return
		}
		j.settle(nil, fmt.Errorf("jobs: job %s panicked: %v", j.id, recover()))
	}()
	res, err := run(ctx, j.report)
	completed = true
	j.settle(res, err)
}

// settle records the terminal state, wakes subscribers, releases the
// job's context and charges the result against the manager's byte
// budget.
func (j *Job) settle(res Body, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		if res == nil {
			res = bytesBody(nil) // an empty result
		}
		j.state = StateDone
		j.result = res
		j.mgr.completed.Inc()
	case j.cancelRequested && errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
		j.mgr.cancelled.Inc()
	default:
		j.state = StateFailed
		j.err = err
		j.mgr.failed.Inc()
	}
	finished := j.finished
	cancel := j.cancel
	j.cancel = nil
	j.wakeLocked()
	j.mu.Unlock()
	cancel()
	j.mgr.noteSettled(j, finished)
	if err == nil {
		j.mgr.noteResult(j)
	}
}

// report is the progress callback handed to the job body. Updates are
// kept monotonic (a stale report never rolls Done backwards) and every
// update wakes the subscribers.
func (j *Job) report(p Progress) {
	j.mu.Lock()
	if p.Done >= j.progress.Done {
		j.progress = p
	}
	j.wakeLocked()
	j.mu.Unlock()
}

// wakeLocked nudges every subscriber (coalescing: a subscriber that is
// already flagged stays flagged).
func (j *Job) wakeLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ID returns the job's content-addressed identifier.
func (j *Job) ID() string { return j.id }

// Snapshot returns a point-in-time view of the job.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.id,
		Tenant:   j.tenant,
		State:    j.state,
		Progress: j.progress,
		Created:  j.created,
	}
	if j.state.Finished() {
		s.ElapsedSeconds = j.finished.Sub(j.created).Seconds()
	} else {
		s.ElapsedSeconds = time.Since(j.created).Seconds()
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Result returns the stored result bytes together with the snapshot
// that qualifies them; the bytes are non-nil only in StateDone. A
// result not held as one byte slice is written into a fresh one.
func (j *Job) Result() ([]byte, Snapshot) {
	body, snap := j.Body()
	switch b := body.(type) {
	case nil:
		return nil, snap
	case bytesBody:
		return b, snap
	}
	buf := bytes.NewBuffer(make([]byte, 0, body.Len()))
	// A bytes.Buffer never fails a write, and a Body fails only with
	// its writer.
	_, _ = body.WriteTo(buf)
	return buf.Bytes(), snap
}

// Body returns the stored result together with the snapshot that
// qualifies it; the Body is non-nil only in StateDone.
func (j *Job) Body() (Body, Snapshot) {
	snap := j.Snapshot()
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	if snap.State != StateDone {
		return nil, snap
	}
	return res, snap
}

// Cancel requests cancellation of a running job (a no-op on a finished
// one) and returns the resulting snapshot. The job reaches
// StateCancelled only when its body returns the context's error.
func (j *Job) Cancel() Snapshot {
	j.mu.Lock()
	cancel := j.cancel
	if !j.state.Finished() {
		j.cancelRequested = true
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j.Snapshot()
}

// Subscribe registers a wake channel: it receives (coalesced) signals
// whenever the job's progress or state changes. The caller reads the
// current Snapshot after each wake. stop unregisters; it must be
// called.
func (j *Job) Subscribe() (wake <-chan struct{}, stop func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// Stats is a point-in-time snapshot of the manager for in-process
// readers: lifecycle counts read back from the instruments plus the
// live store occupancy.
type Stats struct {
	// Submitted counts jobs actually started; Deduped submissions that
	// joined an existing job instead; Completed, Failed and Cancelled
	// terminal outcomes; Evicted jobs dropped by TTL or store pressure;
	// QuotaDenied submissions refused by per-tenant quotas.
	Submitted, Deduped, Completed, Failed, Cancelled, Evicted, QuotaDenied uint64
	// Running and Stored describe the current store; ResultBytes is the
	// retained result total counted against MaxResultBytes.
	Running, Stored int
	ResultBytes     int64
}

// Stats returns a snapshot of the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	stored := len(m.jobs)
	resultBytes := m.resultBytes
	running := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Finished() {
			running++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	return Stats{
		Submitted:   m.submitted.Value(),
		Deduped:     m.deduped.Value(),
		Completed:   m.completed.Value(),
		Failed:      m.failed.Value(),
		Cancelled:   m.cancelled.Value(),
		Evicted:     m.evicted.Value(),
		QuotaDenied: m.quotaDenied.Value(),
		Running:     running,
		Stored:      stored,
		ResultBytes: resultBytes,
	}
}
