package serve

// The async sweep surface: POST /v1/sweeps fans one base Spec out over
// a machine/parameter grid behind the same cache and scheduler the
// synchronous /v1/run path uses, and returns a job immediately. The
// job ID is the canonical SweepSpec's content address, so identical
// submissions — concurrent or repeated — collapse onto one job, and
// every grid point is itself content-addressed: a re-submitted sweep
// (after the job expires) replays its points from the result cache
// rather than recomputing them. Progress is pollable (GET
// /v1/jobs/{id}) and streamable as Server-Sent Events
// (GET /v1/jobs/{id}/events).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"qla/internal/jobs"
	"qla/internal/journal"
	"qla/internal/obs"
	"qla/internal/sweep"
)

// SubmitBody is the POST /v1/sweeps response payload.
type SubmitBody struct {
	// JobID is the sweep's content address; poll /v1/jobs/{id} with it.
	JobID string `json:"job_id"`
	// Existing reports that an identical sweep was already stored
	// (running or finished) and this submission joined it.
	Existing bool `json:"existing,omitempty"`
	// Experiment is the canonical base experiment; Points the grid size.
	Experiment string `json:"experiment"`
	Points     int    `json:"points"`
	// State and Progress snapshot the job at submission time.
	State    jobs.State    `json:"state"`
	Progress jobs.Progress `json:"progress"`
}

// parseTimeout resolves the ?timeout= query against a default and cap.
func parseTimeout(r *http.Request, def, max time.Duration) (time.Duration, error) {
	timeout := def
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return 0, fmt.Errorf("invalid timeout %q (want a positive Go duration, e.g. 30s)", q)
		}
		timeout = d
	}
	if timeout > max {
		timeout = max
	}
	return timeout, nil
}

// handleSweeps is POST /v1/sweeps: decode the SweepSpec strictly,
// expand it (full validation — every grid point canonicalizes, so a
// sweep that submits is a sweep that runs), and submit it as an async
// job keyed by the sweep's content address. The response is 202 for a
// newly started job, 200 when the submission joined an existing one.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Fleet-forwarded copies skip the per-tenant limits: the
	// originating replica already enforced them, and a replica-count
	// fan-out must not multiply one submission's token spend. The
	// tenant still rides along for scheduling and stats.
	forwarded := r.Header.Get(forwardHeader) != ""
	if !forwarded && !s.rateLimit(w, tenant) {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading sweep body: %w", err))
		return
	}
	ss, err := sweep.DecodeSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := sweep.Expand(ss)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := parseTimeout(r, s.cfg.SweepTimeout, s.cfg.SweepTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Load shedding: a fresh sweep is a batch of compute, so a
	// saturated scheduler queue refuses it too — unless the sweep's
	// content address already names a stored job, which joining costs
	// nothing.
	if _, exists := s.jobs.Get(sw.Hash); !exists {
		if over, retryAfter := s.overloaded(); over {
			s.shed(w, tenant, retryAfter, "sweep submission")
			return
		}
	}

	trace := obs.TraceFrom(r.Context())
	job, created, err := s.startSweep(sw, timeout, nil, tenant, forwarded, trace)
	if err != nil {
		var qe *jobs.QuotaError
		if errors.As(err, &qe) {
			// The tenant is over its concurrent-job quota: client
			// pacing, not server overload — 429, through the same
			// throttle path and backlog-scaled Retry-After as the rest.
			s.throttle(w, http.StatusTooManyRequests, tenant, throttleQuota, s.retryAfterSeconds(), err)
			return
		}
		// The bounded store is saturated with running jobs: ask the
		// client to retry — with the same backlog-scaled hint every
		// other 503 quotes — nothing about the sweep itself is wrong.
		s.throttle(w, http.StatusServiceUnavailable, tenant, throttleQueue, s.retryAfterSeconds(), err)
		return
	}
	// The admission log line: one trace ID connects this line to the
	// peer replicas' own admissions (the forward carries it), their
	// lease grants, and their peer cache fetches.
	obs.L(r.Context(), s.log).Info("sweep admitted", "sweep", sw.Hash,
		"points", len(sw.Points), "tenant", tenant, "joined", !created, "forwarded", forwarded)
	if created && !forwarded {
		// Replicate a locally originated sweep to the fleet (nil-safe
		// no-op without peers). Forwarded copies carry the header, so
		// this never loops; the tenant rides along so every replica
		// schedules the sweep under its real owner.
		s.fleet.forward(sw, timeout, tenant, trace)
	}
	snap := job.Snapshot()
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	w.Header().Set("X-Sweep-Hash", sw.Hash)
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitBody{
		JobID:      job.ID(),
		Existing:   !created,
		Experiment: sw.Experiment,
		Points:     len(sw.Points),
		State:      snap.State,
		Progress:   snap.Progress,
	})
}

// startSweep submits sw as an async job, wiring in the durable and
// failure-tolerant machinery: the write-ahead journal entry (admitted
// before the job starts, fed per-point completion records, finished
// with the job's terminal state), the per-point retry policy, and the
// test-only fault seam. resumed carries the already-open journal entry
// when the sweep is being re-admitted by ReplayJournal; nil admits a
// fresh one. tenant is the owning tenant: the job is quota-accounted
// to it (unless quotaExempt — fleet-forwarded and journal-replayed
// work was admitted elsewhere/earlier) and every point acquisition
// runs as that tenant's bulk work. trace is the admitting request's
// trace ID: the job manager detaches the run from the request context,
// so the trace is re-attached by value inside the closure — lease
// claims, renewals and peer cache fetches all carry it from there.
func (s *Server) startSweep(sw *sweep.Sweep, timeout time.Duration, resumed *journal.Entry, tenant string, quotaExempt bool, trace string) (*jobs.Job, bool, error) {
	entry := resumed
	freshEntry := false
	if entry == nil && s.journal != nil {
		e, fresh, err := s.journal.Admit(sw.Hash, journal.KindSweep, tenant, sw.JSON)
		if err != nil {
			// Journal trouble must not block serving: the job runs, it
			// just won't survive a crash.
			s.log.Error("journal admission failed; job runs without durability",
				"sweep", sw.Hash[:12], "err", err, "trace", trace)
		} else {
			entry, freshEntry = e, fresh
		}
	}
	opts := jobs.SubmitOptions{Tenant: tenant, Total: len(sw.Points), BypassQuota: quotaExempt}
	job, created, err := s.jobs.SubmitBody(sw.Hash, opts, func(ctx context.Context, report func(jobs.Progress)) (jobs.Body, error) {
		runCtx, cancel := context.WithTimeout(obs.WithTrace(ctx, trace), timeout)
		defer cancel()
		// Fleet mode (every call below is a nil-safe no-op without
		// peers): track the sweep's lease table for the job's lifetime,
		// and poll peers' ledgers so their completions land in the local
		// cache while we run.
		s.fleet.register(sw)
		defer s.fleet.unregister(sw.Hash)
		syncDone := make(chan struct{})
		defer close(syncDone)
		go s.fleet.sync(sw.Hash, syncDone)
		runner := &sweep.Runner{
			Engine:  s.eng,
			Cache:   s.cache,
			Retry:   s.retryPolicy(),
			Fault:   s.fault,
			Tenant:  tenant,
			Offset:  s.fleet.offset(sw),
			Metrics: s.pointMetrics,
			Observer: func(pr sweep.PointResult) {
				entry.Point(pr.SpecHash, pr.Status, pr.Cached, pr.Attempts)
				if pr.Status == "ok" {
					// Only successes enter the ledger: a failed point has
					// no bytes to serve, so advertising it as done would
					// wedge peers deferring to a result that never comes.
					s.fleet.markDone(sw.Hash, pr.SpecHash)
				}
			},
		}
		if s.fleet != nil {
			runner.Gate = func(gctx context.Context, pointHash string) sweep.GateDecision {
				return s.fleet.gate(gctx, entry, sw.Hash, pointHash)
			}
			// A deferred point long-polls the fleet for the lease holder's
			// bytes; only an empty poll leaves it sleeping out the deferral.
			runner.Await = s.fleet.await
			// Mid-compute lease renewal: a point still computing at
			// half the lease TTL re-asserts its claim so peers do not
			// re-run work that merely outlived the TTL. Renewal
			// failures are ignored — expiry semantics take over.
			runner.Renew = func(rctx context.Context, pointHash string) {
				s.fleet.renew(rctx, sw.Hash, pointHash)
			}
			runner.RenewEvery = s.cfg.LeaseTTL / 2
		}
		res, runErr := runner.Run(runCtx, sw, func(p sweep.Progress) {
			report(jobs.Progress{Total: p.Total, Done: p.Done, Cached: p.Cached, Failed: p.Failed, Retries: p.Retries, Deferred: p.Deferred})
		})
		// The terminal record settles the journal entry whatever the
		// outcome; in particular a failure is recorded (and the file
		// removed) rather than left to replay as a stale failed job.
		switch {
		case runErr == nil:
			entry.Finish(string(jobs.StateDone))
		case errors.Is(runErr, context.Canceled):
			entry.Finish(string(jobs.StateCancelled))
		default:
			entry.Finish(string(jobs.StateFailed))
		}
		if runErr != nil {
			return nil, runErr
		}
		// The job keeps the encoded metadata and references to the
		// points' payloads — the cache's own bytes — not a copy.
		return res.MarshalChunks()
	})
	if (err != nil || !created) && freshEntry {
		// The submission was rejected, or joined an existing job that
		// owns no journal entry (a finished job still within its TTL):
		// the fresh admission would otherwise replay a settled sweep
		// after the next restart.
		entry.Discard()
	}
	return job, created, err
}

// ReplayJournal re-admits every unfinished journaled sweep — the crash
// recovery path. Call it once at startup, after New and before
// serving. Each re-admitted sweep re-runs under the configured sweep
// timeout; points that completed before the crash are served from the
// content-addressed result cache (the disk tier, when configured,
// makes that survive the restart too), so recovery recomputes only
// what was genuinely lost. Entries that no longer decode or re-expand
// to a different content address are dropped. It returns the number of
// jobs re-admitted.
func (s *Server) ReplayJournal() (int, error) {
	if s.journal == nil {
		return 0, nil
	}
	pending, err := s.journal.Replay()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pending {
		sw, err := decodePending(p)
		if err != nil {
			s.log.Warn("dropping unreplayable journal entry", "entry", p.ID, "err", err)
			s.journal.Drop(p.ID)
			continue
		}
		entry, err := s.journal.Resume(p.ID)
		if err != nil {
			// Re-admit anyway: completing the sweep beats preserving its
			// journal continuity.
			s.log.Warn("resuming journal entry", "entry", p.ID, "err", err)
		}
		// Replayed jobs keep the tenant recorded at admission and
		// bypass the concurrent-job quota: refusing durable work at
		// restart would silently drop it. Each replay runs under a
		// fresh trace ID — the admitting request's trace died with the
		// crashed process.
		trace := obs.NewTraceID()
		_, created, err := s.startSweep(sw, s.cfg.SweepTimeout, entry, p.Tenant, true, trace)
		if err != nil {
			s.log.Error("re-admitting journaled sweep failed", "entry", p.ID, "err", err, "trace", trace)
			continue
		}
		if created {
			n++
			s.journalReplayed.Add(1)
			s.log.Info("re-admitted journaled sweep", "sweep", p.ID[:12],
				"points", len(sw.Points), "completions_recorded", len(p.Points), "trace", trace)
		}
	}
	return n, nil
}

// decodePending turns a replayed journal entry back into an expanded
// Sweep, verifying its content address still matches.
func decodePending(p journal.Pending) (*sweep.Sweep, error) {
	if p.Kind != journal.KindSweep {
		return nil, fmt.Errorf("unknown journal kind %q", p.Kind)
	}
	ss, err := sweep.DecodeSpec(p.Spec)
	if err != nil {
		return nil, err
	}
	sw, err := sweep.Expand(ss)
	if err != nil {
		return nil, err
	}
	if sw.Hash != p.ID {
		return nil, fmt.Errorf("journal entry %s re-expands to %s", p.ID, sw.Hash)
	}
	return sw, nil
}

// jobForRequest resolves the {id} path segment, writing a 404 when the
// job is unknown (or already evicted).
func (s *Server) jobForRequest(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q (expired, evicted, or never submitted)", id))
		return nil, false
	}
	return j, true
}

// handleJob is GET /v1/jobs/{id}: the polling surface — state and
// progress counters.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobResult is GET /v1/jobs/{id}/result: the aggregated sweep
// Result bytes once the job is done — the stored chunks written back to
// back, nothing re-encoded; 409 while it runs, 410 after a cancel, 500
// with the job error after a failure.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	body, snap := j.Body()
	switch snap.State {
	case jobs.StateRunning:
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s still running (%d/%d points done); poll /v1/jobs/%s", snap.ID, snap.Progress.Done, snap.Progress.Total, snap.ID))
	case jobs.StateCancelled:
		writeError(w, http.StatusGone, fmt.Errorf("job %s was cancelled", snap.ID))
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", snap.ID, snap.Error))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Sweep-Hash", snap.ID)
		w.Header().Set("Content-Length", strconv.FormatInt(body.Len(), 10))
		body.WriteTo(w)
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: request cancellation and
// return the (possibly already terminal) snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Cancel())
}

// handleJobEvents is GET /v1/jobs/{id}/events: a Server-Sent Events
// stream of progress snapshots. The first event is emitted
// immediately; every progress change wakes the stream (coalesced —
// intermediate counts may be skipped, but the sequence is monotonic,
// Progress updates never roll backwards); the terminal event is named
// "done" and carries the full job snapshot, after which the stream
// closes. A disconnecting client only ends its own stream, never the
// job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobForRequest(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	wake, stop := j.Subscribe()
	defer stop()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	var last *jobs.Progress
	for {
		snap := j.Snapshot()
		if last == nil || snap.Progress != *last {
			p := snap.Progress
			last = &p
			if err := writeEvent(w, "progress", p); err != nil {
				return
			}
			fl.Flush()
		}
		if snap.State.Finished() {
			writeEvent(w, "done", snap)
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame.
func writeEvent(w io.Writer, event string, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
	return err
}
