// Command qlaserve serves the QLA experiment engine over HTTP: POST a
// JSON Spec, receive the Result. It is the ROADMAP's serving front
// door: one shared concurrency-safe Engine behind a content-addressed
// result cache (repeated Specs are nearly free — fixed-seed results are
// bit-identical, so cached bytes replay verbatim) and a process-wide
// worker budget (concurrent runs share cores instead of each
// oversubscribing GOMAXPROCS).
//
// Long-running work goes through the async sweep surface: POST a
// SweepSpec (one base Spec fanned out over a machine/parameter grid)
// to /v1/sweeps, poll or stream the returned job, fetch the aggregated
// result when done. Job IDs are sweep content addresses, so identical
// submissions collapse, and -cache-dir persists per-point results
// across restarts.
//
// Replicas started with -peers form a cooperating fleet: each serves
// its cached Result bytes to the others (GET /v1/cache/{hash}),
// forwards sweep submissions, and leases grid points per replica so
// the fleet races through one sweep together. A SIGKILLed replica's
// leases expire and the survivors finish its share from the shared
// cache tier instead of recomputing it.
//
// Usage:
//
//	qlaserve -addr :8080 -cache-dir /var/cache/qla
//	curl -d '{"experiment":"figure7","params":{"trials":6400}}' localhost:8080/v1/run
//	curl -d @sweep.json localhost:8080/v1/sweeps
//	curl localhost:8080/v1/jobs/<id>
//	curl -N localhost:8080/v1/jobs/<id>/events
//	curl localhost:8080/v1/jobs/<id>/result
//	curl localhost:8080/v1/experiments
//	curl localhost:8080/metrics
//
// See the "Serving over HTTP", "Batch sweeps & async jobs" and
// "Observability" sections of EXPERIMENTS.md for the endpoint
// reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qla/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "listen address for the private debug listener (net/http/pprof); keep it off the public network (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (negative = unbounded)")
	cacheDir := flag.String("cache-dir", "", "directory for the result cache's file persistence tier (empty = memory only)")
	workers := flag.Int("workers", 0, "global Monte Carlo worker budget shared across concurrent runs (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline (requests may override with ?timeout=)")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "upper bound on per-request deadlines")
	maxJobs := flag.Int("max-jobs", 0, "bound on stored async sweep jobs (0 = 256)")
	maxJobBytes := flag.Int64("max-job-bytes", 0, "byte budget for retained async job results (0 = 256 MiB, negative = unbounded)")
	jobTTL := flag.Duration("job-ttl", 0, "retention of finished async jobs (0 = 1h)")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "upper bound on one sweep job's total runtime (0 = 30m)")
	journalDir := flag.String("journal-dir", "", "directory for the write-ahead job journal: unfinished sweeps are re-admitted after a restart (empty = jobs die with the process)")
	pointRetries := flag.Int("point-retries", 0, "extra attempts a failed sweep point gets (0 = 2, negative = none)")
	pointTimeout := flag.Duration("point-timeout", 0, "per-attempt deadline of one sweep point (0 = 5m)")
	maxQueue := flag.Int("max-queue", 0, "scheduler queue bound before uncacheable work is shed with 503 + Retry-After (0 = 4×workers, negative = unbounded)")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long SIGTERM/SIGINT waits for in-flight requests to drain before exiting")
	peers := flag.String("peers", "", "comma-separated base URLs of the other fleet replicas; non-empty enables fleet mode: the peer cache tier, sweep forwarding and per-point work leasing (empty = standalone)")
	selfID := flag.String("self-id", "", "replica identity used in lease claims, unique across the fleet (empty = random)")
	leaseTTL := flag.Duration("lease-ttl", 0, "per-point work lease lifetime; a SIGKILLed replica's claims expire after this and survivors take the points over (0 = 30s)")
	fleetPoll := flag.Duration("fleet-poll", 0, "interval for polling peers' lease ledgers to prefetch their completed points (0 = 1s)")
	peerTimeout := flag.Duration("peer-timeout", 0, "deadline for one peer HTTP call: cache fetches, lease claims, ledger polls; also caps how long the cache route holds a ?wait= long-poll (0 = 2s)")
	interactiveReserve := flag.Int("interactive-reserve", 1, "worker slots bulk sweep work may never occupy, held for interactive /v1/run requests (clamped to workers-1; 0 = no reserve)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant submission rate limit in requests/second; over-rate submissions get 429 + Retry-After (0 = unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant rate-limit burst depth (0 = max(1, 2×tenant-rps))")
	tenantMaxJobs := flag.Int("tenant-max-jobs", 0, "bound on one tenant's concurrently running sweep jobs; past it submissions get 429 (0 = unlimited)")
	tenantMaxJobBytes := flag.Int64("tenant-max-job-bytes", 0, "byte budget for one tenant's retained job results; past it the tenant's oldest finished jobs evict (0 = unlimited)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "qlaserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	srv := serve.New(serve.Config{
		CacheBytes:     *cacheBytes,
		CacheDir:       *cacheDir,
		Workers:        *workers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxJobs:        *maxJobs,
		MaxJobBytes:    *maxJobBytes,
		JobTTL:         *jobTTL,
		SweepTimeout:   *sweepTimeout,
		JournalDir:     *journalDir,
		PointRetries:   *pointRetries,
		PointTimeout:   *pointTimeout,
		MaxQueue:       *maxQueue,
		Peers:          peerList,
		SelfID:         *selfID,
		LeaseTTL:       *leaseTTL,
		FleetPoll:      *fleetPoll,
		PeerTimeout:    *peerTimeout,
		Logger:         logger,

		InteractiveReserve:   *interactiveReserve,
		TenantRPS:            *tenantRPS,
		TenantBurst:          *tenantBurst,
		TenantMaxJobs:        *tenantMaxJobs,
		TenantMaxResultBytes: *tenantMaxJobBytes,
	})
	// Crash recovery: re-admit journaled sweeps the previous process
	// did not finish, before the listener opens — their points replay
	// from the content-addressed cache, so only lost work recomputes.
	if n, err := srv.ReplayJournal(); err != nil {
		logger.Error("journal replay", "err", err)
	} else if n > 0 {
		logger.Info("re-admitted journaled sweep jobs", "jobs", n)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug listener carries pprof and nothing else. It is a
	// separate server on a separate address so profiling endpoints are
	// never reachable through the public mux.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener (pprof)", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight runs gracefully.
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	bi := serve.ReadBuildInfo()
	logger.Info("build", "go", bi.GoVersion, "path", bi.Path, "version", bi.Version,
		"vcs_revision", bi.Revision, "vcs_modified", bi.Modified)

	cfg := srv.Config()
	persist := cfg.CacheDir
	if persist == "" {
		persist = "memory-only"
	}
	logger.Info("listening", "addr", *addr, "workers", cfg.Workers,
		"cache_bytes", cfg.CacheBytes, "cache_persist", persist,
		"timeout", cfg.DefaultTimeout, "max_timeout", cfg.MaxTimeout,
		"max_jobs", cfg.MaxJobs, "job_ttl", cfg.JobTTL, "sweep_timeout", cfg.SweepTimeout)
	if len(cfg.Peers) > 0 {
		logger.Info("fleet mode", "self", cfg.SelfID, "peers", cfg.Peers,
			"lease_ttl", cfg.LeaseTTL, "fleet_poll", cfg.FleetPoll, "peer_timeout", cfg.PeerTimeout)
	}
	if cfg.InteractiveReserve > 0 || cfg.TenantRPS > 0 || cfg.TenantMaxJobs > 0 {
		logger.Info("admission control", "interactive_reserve", cfg.InteractiveReserve,
			"tenant_rps", cfg.TenantRPS, "tenant_burst", cfg.TenantBurst, "tenant_max_jobs", cfg.TenantMaxJobs)
	}
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		// Graceful shutdown: stop accepting, drain in-flight requests
		// for up to -shutdown-grace, flush and close the journal (open
		// entries replay on the next start), then exit 0.
		logger.Info("draining in-flight requests", "signal", sig.String(), "grace", *shutdownGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
		if err := srv.Close(); err != nil {
			logger.Warn("closing journal", "err", err)
		}
		logger.Info("shutdown complete")
	}
}

func fatal(err error) {
	if err == nil || errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "qlaserve: %v\n", err)
	os.Exit(1)
}
