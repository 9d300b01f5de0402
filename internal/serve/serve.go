// Package serve is the HTTP front door of the QLA simulator: a JSON
// Spec in, a Result out, over one shared concurrency-safe Engine. Three
// layers sit between the socket and the experiment registry:
//
//   - per-request deadlines (?timeout=30s, clamped to a server maximum)
//     mapped directly onto the engine's context plumbing;
//   - a content-addressed result cache keyed on the canonical-Spec hash
//     (engine.SpecHash) with singleflight de-duplication, legal because
//     fixed-seed results are bit-identical at any parallelism — a cache
//     hit replays the stored Result bytes verbatim;
//   - a process-wide worker-budget scheduler (internal/sched), so
//     concurrent runs share a global core budget instead of each
//     oversubscribing GOMAXPROCS.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"qla/internal/cache"
	_ "qla/internal/cyclesim" // installs the cycle-* experiment family
	"qla/internal/engine"
	"qla/internal/jobs"
	"qla/internal/journal"
	"qla/internal/obs"
	"qla/internal/sched"
	"qla/internal/sweep"
)

// Routes lists the served endpoints as ServeMux patterns. The
// documentation drift test asserts EXPERIMENTS.md covers every entry;
// Handler builds the mux from the same list.
var Routes = []string{
	"POST /v1/run",
	"POST /v1/sweeps",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/events",
	"GET /v1/jobs/{id}/result",
	"DELETE /v1/jobs/{id}",
	"GET /v1/cache/{hash}",
	"GET /v1/leases/{sweep}",
	"GET /v1/experiments",
	"GET /metrics",
	"GET /buildinfo",
	"GET /healthz",
}

// maxBodyBytes caps the POST /v1/run and POST /v1/sweeps request
// bodies; a larger body is answered 413.
const maxBodyBytes = 1 << 20

// Config sizes a Server. The zero value is production-usable: a 64 MiB
// result cache, a GOMAXPROCS worker budget, 60 s default and 10 min
// maximum per-request deadlines.
type Config struct {
	// CacheBytes is the result-cache byte budget (0 = 64 MiB, negative =
	// unbounded).
	CacheBytes int64
	// Workers is the global Monte Carlo worker budget shared by all
	// concurrent runs (0 = GOMAXPROCS).
	Workers int
	// DefaultTimeout applies when a request names none; MaxTimeout caps
	// what ?timeout= may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheDir enables the result cache's file persistence tier: run
	// and sweep-point results survive a restart ("" = memory only).
	CacheDir string
	// MaxJobs, MaxJobBytes and JobTTL bound the async job store (0 =
	// 256 jobs, 256 MiB of retained result bytes, finished jobs
	// retained 1 h).
	MaxJobs     int
	MaxJobBytes int64
	JobTTL      time.Duration
	// SweepTimeout caps one sweep job's total runtime (0 = 30 min); a
	// submission may ask for less with ?timeout=.
	SweepTimeout time.Duration
	// JournalDir enables the write-ahead job journal: submitted sweeps
	// are recorded durably at admission and a restarted server
	// re-admits the unfinished ones via ReplayJournal ("" = no
	// journal; jobs die with the process).
	JournalDir string
	// PointRetries is how many extra attempts a failed sweep point gets
	// (0 = 2, negative = none); PointTimeout bounds each attempt
	// (0 = 5 min). Cancellations and permanent failures never retry.
	PointRetries int
	PointTimeout time.Duration
	// MaxQueue bounds the scheduler's wait queue: at the bound, a run
	// no cache tier can serve and no worker is free for, and a fresh
	// sweep submission, are shed with 503 + Retry-After (0 = 4×Workers,
	// negative = unbounded).
	MaxQueue int
	// Peers lists the base URLs of the other fleet replicas; non-empty
	// enables fleet mode — the peer cache tier, whose probes wait on a
	// peer's own computation, sweep forwarding and the ledger syncer
	// (see fleet.go).
	Peers []string
	// SelfID names this replica in peer probes and forward headers. Of
	// replicas that miss the same point at once, the lowest ID computes
	// it, so IDs must be unique across the fleet ("" = random hex,
	// which is).
	SelfID string
	// FleetPoll is the syncer's ledger-polling interval (0 = 1s).
	FleetPoll time.Duration
	// PeerTimeout bounds one peer HTTP call — cache probes, ledger
	// polls, sweep forwards — and how long the cache route holds a
	// ?wait= probe (0 = 2s). A probe asks to be held for half of it.
	PeerTimeout time.Duration
	// InteractiveReserve is the slot floor withheld from bulk sweep
	// points so interactive /v1/run work is admitted without waiting
	// for a saturating sweep to drain (0 = none; clamped to
	// Workers-1).
	InteractiveReserve int
	// TenantRPS / TenantBurst shape the per-tenant token-bucket rate
	// limit on run and sweep submissions; over-limit tenants get 429 +
	// Retry-After (TenantRPS 0 = unlimited; TenantBurst 0 = max(1,
	// 2×TenantRPS)).
	TenantRPS   float64
	TenantBurst float64
	// TenantMaxJobs caps one tenant's concurrently running sweep jobs
	// (429 over the cap); TenantMaxResultBytes bounds one tenant's
	// retained job result bytes, evicting that tenant's own oldest
	// finished jobs first. 0 = unlimited.
	TenantMaxJobs        int
	TenantMaxResultBytes int64
	// Logger receives the server's structured log lines, each stamped
	// with the request's trace ID (nil = slog.Default()). Tests inject
	// a captured logger here to follow one trace across replicas.
	Logger *slog.Logger
}

// Server executes Specs over HTTP. Construct with New; one Server
// handles any number of concurrent requests.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	cache   *cache.Cache
	pool    *sched.Pool
	jobs    *jobs.Manager
	journal *journal.Journal // nil when no JournalDir is configured
	fleet   *fleet           // nil when no Peers are configured
	tenants *tenantTable
	started time.Time

	// reg is the server's metrics registry: every subsystem registers
	// its instruments here and counts nowhere else, and GET /metrics
	// renders it — the only stats surface.
	reg *obs.Registry
	log *slog.Logger

	// HTTP-layer instruments (see obs.go).
	httpReqs     *obs.CounterVec
	httpDur      *obs.HistogramVec
	httpInflight *obs.Gauge
	pointMetrics *sweep.PointMetrics

	// fault is the test-only chaos seam threaded into sweep runners;
	// production servers leave it nil.
	fault sweep.FaultHook

	runsExecuted    *obs.Counter
	peerServes      *obs.Counter
	journalReplayed *obs.Counter
	throttled       *obs.CounterVec // by tenant and deciding limit
}

// New builds a Server with its engine, cache, scheduler and job
// manager wired together.
func New(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SweepTimeout <= 0 {
		cfg.SweepTimeout = 30 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = time.Hour
	}
	if cfg.PointRetries == 0 {
		cfg.PointRetries = 2
	}
	if cfg.PointTimeout <= 0 {
		cfg.PointTimeout = 5 * time.Minute
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.Workers
	}
	if cfg.InteractiveReserve < 0 {
		cfg.InteractiveReserve = 0
	}
	if cfg.InteractiveReserve > cfg.Workers-1 {
		cfg.InteractiveReserve = cfg.Workers - 1
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	reg := obs.NewRegistry()
	// The class queue-wait bounds piggyback on the request deadlines:
	// an interactive acquisition queued past the longest request
	// deadline, or a bulk one past the sweep budget, can never be
	// served in time anyway — fail it as overload instead.
	pool := sched.NewFair(sched.Config{
		Capacity:           cfg.Workers,
		InteractiveReserve: cfg.InteractiveReserve,
		InteractiveMaxWait: cfg.MaxTimeout,
		BulkMaxWait:        cfg.SweepTimeout,
		Metrics:            reg,
	})
	copts := []cache.Option{
		cache.WithMetrics(reg),
		cache.WithLogger(func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...), "subsystem", "cache")
		}),
	}
	if cfg.CacheDir != "" {
		copts = append(copts, cache.WithDir(cfg.CacheDir))
	}
	if peers := normalizePeers(cfg.Peers); len(peers) > 0 {
		cfg.Peers = peers
		if cfg.SelfID == "" {
			cfg.SelfID = randomID()
		}
		if cfg.FleetPoll <= 0 {
			cfg.FleetPoll = time.Second
		}
		copts = append(copts, cache.WithPeers(cfg.Peers...), cache.WithPeerTimeout(cfg.PeerTimeout))
	} else {
		cfg.Peers = nil
	}
	copts = append(copts, cache.WithSelfID(cfg.SelfID))
	c := cache.New(cfg.CacheBytes, copts...)
	if !c.Stats().Persistent {
		cfg.CacheDir = "" // cache.New disabled an unusable directory, and logged why
	}
	s := &Server{
		cfg:   cfg,
		eng:   engine.New(engine.WithScheduler(pool)),
		cache: c,
		pool:  pool,
		jobs: jobs.NewManager(jobs.Config{
			MaxJobs:              cfg.MaxJobs,
			MaxResultBytes:       cfg.MaxJobBytes,
			TTL:                  cfg.JobTTL,
			TenantMaxJobs:        cfg.TenantMaxJobs,
			TenantMaxResultBytes: cfg.TenantMaxResultBytes,
		}),
		tenants: newTenantTable(cfg.TenantRPS, cfg.TenantBurst),
		started: time.Now(),
		reg:     reg,
		log:     logger,
	}
	s.instrument()
	s.jobs.Instrument(reg)
	s.pointMetrics = sweep.NewPointMetrics(reg)
	if cfg.JournalDir != "" {
		j, err := journal.Open(cfg.JournalDir)
		if err != nil {
			// A broken journal directory must not take serving down with
			// it: run journal-less (jobs lose durability, nothing else)
			// and say so.
			logger.Error("job journal disabled", "err", err)
		} else {
			s.journal = j
			s.journal.Instrument(reg)
		}
	}
	if len(cfg.Peers) > 0 {
		s.fleet = newFleet(cfg, s.cache, logger, reg)
	}
	return s
}

// normalizePeers trims whitespace and trailing slashes and drops
// empties, so flag values compose cleanly into route URLs.
func normalizePeers(peers []string) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// randomID mints a replica identity for peer probes. A collision only
// costs the two replicas their ranking — neither holds the other's
// probes, so both may compute a point they miss at once — so
// best-effort entropy with a pid fallback is plenty.
func randomID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("pid-%d", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// retryPolicy resolves the configured per-point execution policy.
func (s *Server) retryPolicy() sweep.RetryPolicy {
	attempts := 1 + s.cfg.PointRetries
	if s.cfg.PointRetries < 0 {
		attempts = 1
	}
	return sweep.RetryPolicy{MaxAttempts: attempts, PointTimeout: s.cfg.PointTimeout}
}

// retryAfterSeconds is the one Retry-After policy every 503 shares:
// scaled to the scheduler backlog (one second, plus one per queued run
// per worker, capped) so a saturated server asks clients to back off
// proportionally instead of quoting a constant.
func (s *Server) retryAfterSeconds() int {
	waiting, capacity := s.pool.Backlog()
	ra := 1 + waiting/max(capacity, 1)
	if ra > 30 {
		ra = 30
	}
	return ra
}

// overloaded implements the sweep-submission load-shed bound: when the
// scheduler's wait queue reaches MaxQueue the server refuses a fresh
// sweep rather than queueing its points unboundedly, and retryAfter
// suggests when to try again. A run is refused in its cache flight
// instead (see handleRun).
func (s *Server) overloaded() (shed bool, retryAfter int) {
	if s.cfg.MaxQueue < 0 {
		return false, 0
	}
	if waiting, _ := s.pool.Backlog(); waiting < s.cfg.MaxQueue {
		return false, 0
	}
	return true, s.retryAfterSeconds()
}

// shed writes the 503 + Retry-After load-shed response through the
// unified throttle path (limit "queue": the global backlog bound
// decided, not a per-tenant limit).
func (s *Server) shed(w http.ResponseWriter, tenant string, retryAfter int, what string) {
	waiting, _ := s.pool.Backlog()
	s.throttle(w, http.StatusServiceUnavailable, tenant, throttleQueue, retryAfter,
		fmt.Errorf("server overloaded (%d runs queued, bound %d): %s shed; retry after %ds",
			waiting, s.cfg.MaxQueue, what, retryAfter))
}

// Config returns the server's configuration with all defaults resolved.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"POST /v1/run":             s.handleRun,
		"POST /v1/sweeps":          s.handleSweeps,
		"GET /v1/jobs/{id}":        s.handleJob,
		"GET /v1/jobs/{id}/events": s.handleJobEvents,
		"GET /v1/jobs/{id}/result": s.handleJobResult,
		"DELETE /v1/jobs/{id}":     s.handleJobCancel,
		"GET /v1/cache/{hash}":     s.handleCacheGet,
		"GET /v1/leases/{sweep}":   s.handleLeaseLedger,
		"GET /v1/experiments":      s.handleExperiments,
		"GET /metrics":             s.handleMetrics,
		"GET /buildinfo":           s.handleBuildinfo,
		"GET /healthz":             s.handleHealthz,
	}
	mux := http.NewServeMux()
	for _, route := range Routes {
		h, ok := handlers[route]
		if !ok {
			panic("serve: route " + route + " has no handler")
		}
		// Each handler is wrapped per route (latency/status/tenant
		// instruments need the route pattern, which the outer trace
		// middleware cannot see).
		mux.HandleFunc(route, s.observe(route, h))
	}
	return s.trace(mux)
}

// errorBody is the JSON error envelope every non-2xx response carries.
// Trace echoes the request's X-QLA-Trace ID so a failure report can be
// matched to the fleet's log lines.
type errorBody struct {
	Error string `json:"error"`
	Trace string `json:"trace,omitempty"`
}

// shedError carries the Retry-After hint out of a run's compute closure
// that refused the run for overload (see handleRun).
type shedError struct{ retryAfter int }

func (e shedError) Error() string {
	return fmt.Sprintf("server overloaded; retry after %ds", e.retryAfter)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// The trace middleware stamps the response header before the
	// handler runs, so the envelope can echo it without replumbing
	// every writeError call site.
	writeJSON(w, status, errorBody{Error: err.Error(), Trace: w.Header().Get(obs.TraceHeader)})
}

// handleRun is POST /v1/run: decode the Spec strictly, canonicalize and
// hash it (validating it completely — a spec that hashes is a spec that
// runs), then serve from the cache or execute under the per-request
// deadline. The response body of a hit is byte-identical to the miss
// that populated it; X-Cache says which happened and X-Spec-Hash names
// the content address.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.rateLimit(w, tenant) {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading spec body: %w", err))
		return
	}
	spec, err := engine.DecodeSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canon, err := engine.MakeCanonical(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := parseTimeout(r, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A memory hit is answered at once: it needs no scheduler identity
	// and no deadline.
	if body, ok := s.cache.Get(canon.Hash); ok {
		writeRun(w, canon.Hash, true, body)
		return
	}
	// The request's compute runs as this tenant's interactive work:
	// the scheduler serves it ahead of queued bulk sweep points and
	// from the reserved slot floor.
	ctx := sched.WithIdentity(r.Context(), sched.Identity{Tenant: tenant, Class: sched.ClassInteractive})
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// The computation is the cache flight's: it runs while this request
	// or any request collapsed onto it waits, so this request's deadline
	// or hang-up ends only its own wait.
	body, hit, err := s.cache.Do(ctx, canon.Hash, func(ctx context.Context) ([]byte, error) {
		// Load shedding, the one place a run is refused for overload:
		// memory, disk and every peer have missed, so the run needs a
		// worker. It is refused only when the scheduler could not grant
		// it one at once and the queue is at its bound; every request
		// collapsed onto this flight gets the same 503.
		if s.pool.Saturated(sched.ClassInteractive, s.cfg.MaxQueue) {
			return nil, shedError{retryAfter: s.retryAfterSeconds()}
		}
		s.runsExecuted.Add(1)
		res, err := s.eng.RunCanonical(ctx, canon)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		var se shedError
		if errors.As(err, &se) {
			s.shed(w, tenant, se.retryAfter, "uncached run")
			return
		}
		var qw *sched.QueueWaitError
		if errors.As(err, &qw) {
			// The acquisition sat queued past the class bound — overload,
			// through the same unified throttle path as the sheds.
			s.throttle(w, http.StatusServiceUnavailable, tenant, throttleQueue, s.retryAfterSeconds(), err)
			return
		}
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client is gone; the status is for the log line only.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeRun(w, canon.Hash, hit, body)
}

// writeRun writes a run's Result bytes with the headers naming its
// content address and whether the cache served it.
func writeRun(w http.ResponseWriter, hash string, hit bool, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Spec-Hash", hash)
	if hit {
		h.Set("X-Cache", "hit")
	} else {
		h.Set("X-Cache", "miss")
	}
	w.Write(body)
}

// ParamInfo documents one experiment parameter over the wire. Default
// is always present (a zero default like swap-eps's 0 must stay
// distinguishable from having none): null exactly when Optional is
// true.
type ParamInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Default  any    `json:"default"`
	Optional bool   `json:"optional,omitempty"`
	Doc      string `json:"doc"`
}

// ExperimentInfo documents one registry entry over the wire.
type ExperimentInfo struct {
	Name        string      `json:"name"`
	Family      string      `json:"family,omitempty"`
	Aliases     []string    `json:"aliases,omitempty"`
	Title       string      `json:"title"`
	Doc         string      `json:"doc"`
	UsesMachine bool        `json:"uses_machine"`
	Bench       bool        `json:"bench"`
	Params      []ParamInfo `json:"params,omitempty"`
}

// handleExperiments is GET /v1/experiments: the registry catalog —
// names, aliases, docs, and parameter declarations with defaults — in
// registration order.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	exps := engine.Experiments()
	out := make([]ExperimentInfo, 0, len(exps))
	for _, e := range exps {
		info := ExperimentInfo{
			Name:        e.Name,
			Family:      e.Family,
			Aliases:     e.Aliases,
			Title:       e.Title,
			Doc:         e.Doc,
			UsesMachine: e.UsesMachine,
			Bench:       e.Bench,
		}
		for _, d := range e.Params {
			info.Params = append(info.Params, ParamInfo{
				Name:     d.Name,
				Kind:     d.Kind.String(),
				Default:  d.Default,
				Optional: d.Default == nil,
				Doc:      d.Doc,
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz: liveness only, no dependencies.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
