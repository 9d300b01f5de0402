package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qla/internal/cache"
	"qla/internal/engine"
	"qla/internal/jobs"
	"qla/internal/sched"
	"qla/internal/sweep"
	"qla/internal/threshold"
)

// layerMetrics are the per-layer metrics -trace 1 prints. README.md
// records which end-to-end metric each should move, on which workload.
// A layer a workload does not load reads 0.
var layerMetrics = []metricDef{
	{"serve.run_handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"engine.decode_us", "us"},
	{"engine.canonical_us", "us"},
	{"engine.run_ms", "ms"},
	{"engine.marshal_us", "us"},
	{"threshold.l1_ns_per_trial", "ns"},
	{"threshold.l2_ns_per_trial", "ns"},
	{"threshold.l2_batch_speedup", "x"},
	{"cache.memory_hit_frac", "frac"},
	{"cache.disk_hit_frac", "frac"},
	{"cache.inflight_frac", "frac"},
	{"cache.miss_frac", "frac"},
	{"cache.peer_hit_frac", "frac"},
	{"cache.hit_us", "us"},
	{"cache.contains_us", "us"},
	{"cache.miss_overhead_ms", "ms"},
	{"sched.wait_ms.interactive", "ms"},
	{"sched.wait_ms.bulk", "ms"},
	{"sched.wait_p99_ms.interactive", "ms"},
	{"sched.grant_frac", "frac"},
	{"sched.busy_frac", "frac"},
	{"sweep.expand_ms", "ms"},
	{"sweep.point_ms", "ms"},
	{"sweep.point_overhead_frac", "frac"},
	{"jobs.submit_us", "us"},
	{"jobs.done_lag_ms", "ms"},
	{"journal.append_us", "us"},
	{"journal.fsync_ms", "ms"},
	{"fleet.coord_requests_per_point", "count"},
	{"fleet.lease_requests_per_point", "count"},
	{"fleet.ledger_polls_per_point", "count"},
	{"fleet.peer_fetches_per_point", "count"},
	{"fleet.dup_compute_frac", "frac"},
	{"load.open_loop_lag_p99_ms", "ms"},
	{"trace.run_root_ms", "ms"},
}

// Server defaults the in-process stack mirrors (cmd/qlaserve flag
// defaults as resolved by serve.New).
const (
	serverCacheBytes      = 64 << 20
	serverMaxTimeout      = 10 * time.Minute
	serverSweepTimeout    = 30 * time.Minute
	serverInteractiveSlot = 1
)

// traced measures the per-layer metrics. The first half of the window
// drives the real servers, untraced, and diffs their /metrics around
// each phase; the second half pushes the same generated inputs through
// a traced in-process copy of the serving stack.
func (b *bench) traced() (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	half := b.window / 2
	values := map[string]float64{}

	srec, err := b.scrapedHalf(ctx, half, values)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(b.work, "proc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := newProcTarget(b.in, dir, b.w.workers)
	if err := b.w.warm(ctx, b, p); err != nil {
		return nil, err
	}
	// Set-up is not traced: start the span log and the counters afresh.
	spans := newSpanLog()
	p.log = spans
	p.pool.reset()
	p.pointMs = nil
	prec := &recorder{checks: slices.Clone(b.primed)}
	start := time.Now()
	for _, ph := range b.w.phases {
		ph.run(ctx, b, p, prec, time.Duration(ph.share*float64(half)))
	}
	p.layerValues(values, time.Since(start))
	prec.verify(ctx)

	if err := kernelValues(ctx, coldError, values); err != nil {
		return nil, err
	}
	b.rec.TracedRunMs = values["trace.run_root_ms"]
	if err := spans.write(filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.jsonl", b.name, b.in.seed))); err != nil {
		return nil, err
	}

	both := &recorder{
		runs:      append(srec.runs, prec.runs...),
		runFailed: srec.runFailed + prec.runFailed,
		sweeps:    append(srec.sweeps, prec.sweeps...),
		sweepFail: srec.sweepFail + prec.sweepFail,
		failures:  append(srec.failures, prec.failures...),
	}
	b.note(both)
	b.rec.LagP50Ms, b.rec.LagMaxMs = quantile(srec.lagMs, 0.5), quantile(srec.lagMs, 1)
	return b.result(both, layerMetrics, values), nil
}

// scrapedHalf runs the workload against the real servers for dur and
// derives the metrics the servers count themselves.
func (b *bench) scrapedHalf(ctx context.Context, dur time.Duration, values map[string]float64) (*recorder, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, t, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	defer t.close()
	rec := &recorder{checks: slices.Clone(b.primed)}

	t.count.take() // set-up traffic is outside the window
	first, err := t.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	prev := first
	var (
		lastClient      map[string]map[string]int
		lastBefore      scrapes
		pointsBeforeEnd int
	)
	for _, ph := range b.w.phases {
		pointsBeforeEnd = rec.points()
		ph.run(ctx, b, t, rec, time.Duration(ph.share*float64(dur)))
		// The client's own requests of this phase, counted the way the
		// servers count them: including the scrape that opened it.
		lastClient = t.count.take()
		s, err := t.scrapeAll(ctx)
		if err != nil {
			return nil, err
		}
		lastBefore, prev = prev, s
	}
	last := prev
	for _, e := range last {
		if err := e.guard(b.w.journal); err != nil {
			return nil, err
		}
	}
	if err := b.provenance(ctx, t); err != nil {
		return nil, err
	}

	handler := histMean(first, last, "qla_http_request_duration_seconds", map[string]string{"route": "POST /v1/run"}) * 1e3
	values["serve.run_handler_ms"] = handler
	if len(rec.serviceMs) > 0 && handler > 0 {
		values["serve.transport_ms"] = mean(rec.serviceMs) - handler
	}

	tiers := map[string]float64{}
	for _, tier := range []string{"memory", "disk", "peer", "inflight"} {
		tiers[tier] = delta(first, last, "qla_cache_hits_total", map[string]string{"tier": tier})
	}
	misses := delta(first, last, "qla_cache_misses_total", nil)
	if lookups := tiers["memory"] + tiers["disk"] + tiers["peer"] + tiers["inflight"] + misses; lookups > 0 {
		values["cache.memory_hit_frac"] = tiers["memory"] / lookups
		values["cache.disk_hit_frac"] = tiers["disk"] / lookups
		values["cache.peer_hit_frac"] = tiers["peer"] / lookups
		values["cache.inflight_frac"] = tiers["inflight"] / lookups
		values["cache.miss_frac"] = misses / lookups
	}
	for _, class := range []string{"interactive", "bulk"} {
		values["sched.wait_ms."+class] = histMean(first, last, "qla_sched_queue_wait_seconds", map[string]string{"class": class}) * 1e3
	}
	values["sweep.point_ms"] = histMean(first, last, "qla_sweep_point_duration_seconds", map[string]string{"outcome": "ok"}) * 1e3
	values["journal.append_us"] = histMean(first, last, "qla_journal_append_seconds", nil) * 1e6
	values["journal.fsync_ms"] = histMean(first, last, "qla_journal_fsync_seconds", nil) * 1e3
	values["load.open_loop_lag_p99_ms"] = quantile(rec.lagMs, 0.99)

	// Fleet coordination is counted over the last phase, where the
	// fleet settles its sweeps.
	if points := float64(rec.points() - pointsBeforeEnd); len(t.bases) > 1 && points > 0 {
		routes := map[string]float64{}
		for i, base := range t.bases {
			before := lastBefore[i].byLabel("qla_http_requests_total", "route")
			for route, n := range last[i].byLabel("qla_http_requests_total", "route") {
				routes[route] += max(0, n-before[route]-float64(lastClient[base][route]))
			}
		}
		coord := 0.0
		for _, n := range routes {
			coord += n
		}
		values["fleet.coord_requests_per_point"] = coord / points
		values["fleet.lease_requests_per_point"] = routes["POST /v1/leases/{sweep}/{point}"] / points
		values["fleet.ledger_polls_per_point"] = routes["GET /v1/leases/{sweep}"] / points
		values["fleet.peer_fetches_per_point"] = routes["GET /v1/cache/{hash}"] / points
		values["fleet.dup_compute_frac"] = (delta(lastBefore, last, "qla_cache_misses_total", nil) - points) / points
	}
	rec.verify(ctx)
	return rec, nil
}

// timedPool wraps the server's scheduler to time every acquisition and
// how long its slots stay held.
type timedPool struct {
	pool     *sched.Pool
	capacity int

	mu            sync.Mutex
	wanted        int
	granted       int
	slotSeconds   float64
	interactiveMs []float64 // queue waits of interactive acquisitions
	bulkHeldMs    []float64 // hold times of bulk (sweep point) grants
}

func (p *timedPool) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wanted, p.granted, p.slotSeconds = 0, 0, 0
	p.interactiveMs, p.bulkHeldMs = nil, nil
}

func (p *timedPool) Acquire(ctx context.Context, want int) (int, func(), error) {
	var sp *openSpan
	if parent := spanFrom(ctx); parent != nil {
		sp = parent.child("sched.acquire")
	}
	t0 := time.Now()
	n, release, err := p.pool.Acquire(ctx, want)
	got := time.Now()
	if sp != nil {
		sp.end()
	}
	class := sched.IdentityFrom(ctx).Class
	p.mu.Lock()
	p.wanted += want
	if err == nil {
		p.granted += n
	}
	if class == sched.ClassInteractive {
		p.interactiveMs = append(p.interactiveMs, float64(got.Sub(t0))/float64(time.Millisecond))
	}
	p.mu.Unlock()
	if err != nil {
		return n, release, err
	}
	return n, func() {
		release()
		held := time.Since(got)
		p.mu.Lock()
		p.slotSeconds += float64(n) * held.Seconds()
		if class == sched.ClassBulk {
			p.bulkHeldMs = append(p.bulkHeldMs, float64(held)/float64(time.Millisecond))
		}
		p.mu.Unlock()
	}, nil
}

// procTarget is the serving stack built in-process from the same
// public constructors serve.New uses, driven through the same calls
// the handlers make, with a span around each.
type procTarget struct {
	in    *inputs
	log   *spanLog
	pool  *timedPool
	eng   *engine.Engine
	cache *cache.Cache
	jobs  *jobs.Manager

	mu      sync.Mutex
	pointMs []float64 // wall time of freshly computed sweep points
}

func newProcTarget(in *inputs, dir string, workers int) *procTarget {
	pool := &timedPool{capacity: workers, pool: sched.NewFair(sched.Config{
		Capacity:           workers,
		InteractiveReserve: min(serverInteractiveSlot, workers-1),
		InteractiveMaxWait: serverMaxTimeout,
		BulkMaxWait:        serverSweepTimeout,
	})}
	return &procTarget{
		in:    in,
		log:   newSpanLog(),
		pool:  pool,
		eng:   engine.New(engine.WithScheduler(pool)),
		cache: cache.New(serverCacheBytes, cache.WithDir(dir), cache.WithLogger(func(string, ...any) {})),
		jobs:  jobs.NewManager(jobs.Config{}),
	}
}

// run mirrors serve.handleRun: decode, canonicalize and hash, probe,
// then serve from the cache or compute and marshal.
func (p *procTarget) run(ctx context.Context, conn int, op *runOp) ([]byte, error) {
	root := p.log.root("run")
	defer root.end()
	sp := root.child("engine.decode")
	spec, err := engine.DecodeSpec(op.body)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("engine.canonical")
	canon, err := engine.MakeCanonical(spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = root.child("cache.contains")
	p.cache.Contains(canon.Hash)
	sp.end()

	ctx = sched.WithIdentity(ctx, sched.Identity{Tenant: sched.DefaultTenant, Class: sched.ClassInteractive})
	g := root.child("cache.get_or_compute")
	body, hit, err := p.cache.GetOrCompute(ctx, canon.Hash, func() ([]byte, error) {
		r := g.child("engine.run")
		res, err := p.eng.RunCanonical(withSpan(ctx, r), canon)
		r.end()
		if err != nil {
			return nil, err
		}
		m := g.child("engine.marshal")
		defer m.end()
		return json.Marshal(res)
	})
	xcache := "miss"
	if hit {
		xcache = "hit"
	}
	g.s.Attr = xcache
	g.end()
	if err != nil {
		return nil, err
	}
	if err := checkRun(op, body, xcache, canon.Hash); err != nil {
		return nil, err
	}
	return body, nil
}

// sweep mirrors serve.handleSweeps and startSweep: expand, submit a job
// whose body runs a sweep.Runner, and wait for the job to finish.
func (p *procTarget) sweep(ctx context.Context, op *sweepOp) (*sweep.Result, time.Duration, error) {
	root := p.log.root("sweep")
	defer root.end()
	start := time.Now()
	sp := root.child("sweep.expand")
	ss, err := sweep.DecodeSpec(op.body)
	var sw *sweep.Sweep
	if err == nil {
		sw, err = sweep.Expand(ss)
	}
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	var returned atomic.Int64 // when Runner.Run returned, since the log origin
	sp = root.child("jobs.submit")
	job, created, err := p.jobs.Submit(sw.Hash, jobs.SubmitOptions{Tenant: sched.DefaultTenant, Total: len(sw.Points)},
		func(jctx context.Context, report func(jobs.Progress)) ([]byte, error) {
			r := root.child("sweep.run")
			runner := &sweep.Runner{Engine: p.eng, Cache: p.cache, Tenant: sched.DefaultTenant, Observer: p.observe}
			res, err := runner.Run(withSpan(jctx, r), sw, func(pg sweep.Progress) {
				report(jobs.Progress{Total: pg.Total, Done: pg.Done, Cached: pg.Cached, Failed: pg.Failed})
			})
			r.end()
			returned.Store(time.Now().UnixNano())
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		})
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	if !created {
		return nil, 0, fmt.Errorf("sweep %s joined an existing job", sw.Hash[:12])
	}
	wake, stop := job.Subscribe()
	defer stop()
	for !job.Snapshot().State.Finished() {
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	finished := time.Now()
	root.record("jobs.done_lag", time.Unix(0, returned.Load()), finished)
	raw, snap := job.Result()
	if snap.State != jobs.StateDone {
		return nil, 0, fmt.Errorf("sweep job %s settled %s: %s", sw.Hash[:12], snap.State, snap.Error)
	}
	var res sweep.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, 0, err
	}
	return &res, finished.Sub(start), nil
}

func (p *procTarget) observe(pr sweep.PointResult) {
	if pr.Status != "ok" || pr.Cached {
		return
	}
	p.mu.Lock()
	p.pointMs = append(p.pointMs, float64(pr.Elapsed)/float64(time.Millisecond))
	p.mu.Unlock()
}

// layerValues derives the traced metrics from the spans and the
// scheduler wrapper; window is how long the traced phases ran.
func (p *procTarget) layerValues(values map[string]float64, window time.Duration) {
	spans := p.log.all()
	self := selfTimes(spans)
	groups := map[string][]float64{}
	add := func(key string, d time.Duration) { groups[key] = append(groups[key], float64(d)) }
	for _, s := range spans {
		switch s.Name {
		case "engine.run", "cache.get_or_compute":
			add(s.Name+".self."+s.Attr, self[s.ID])
		}
		add(s.Name+"."+s.Attr, s.dur())
	}
	us, ms := float64(time.Microsecond), float64(time.Millisecond)
	values["engine.decode_us"] = mean(groups["engine.decode."]) / us
	values["engine.canonical_us"] = mean(groups["engine.canonical."]) / us
	values["engine.run_ms"] = mean(groups["engine.run.self."]) / ms
	values["engine.marshal_us"] = mean(groups["engine.marshal."]) / us
	values["cache.hit_us"] = mean(groups["cache.get_or_compute.hit"]) / us
	values["cache.contains_us"] = mean(groups["cache.contains."]) / us
	values["cache.miss_overhead_ms"] = mean(groups["cache.get_or_compute.self.miss"]) / ms
	values["sweep.expand_ms"] = mean(groups["sweep.expand."]) / ms
	values["jobs.submit_us"] = mean(groups["jobs.submit."]) / us
	values["jobs.done_lag_ms"] = mean(groups["jobs.done_lag."]) / ms
	values["trace.run_root_ms"] = quantile(groups["run."], 0.5) / ms

	p.pool.mu.Lock()
	defer p.pool.mu.Unlock()
	values["sched.wait_p99_ms.interactive"] = quantile(p.pool.interactiveMs, 0.99)
	if p.pool.wanted > 0 {
		values["sched.grant_frac"] = float64(p.pool.granted) / float64(p.pool.wanted)
	}
	values["sched.busy_frac"] = p.pool.slotSeconds / (float64(p.pool.capacity) * window.Seconds())
	p.mu.Lock()
	defer p.mu.Unlock()
	if point := mean(p.pointMs); point > 0 {
		values["sweep.point_overhead_frac"] = 1 - mean(p.pool.bulkHeldMs)/point
	}
}

// Kernel measurement sizes: whole 64-lane blocks, a few repeats.
const (
	kernelL1Trials     = 64 * 100
	kernelL2Trials     = 64 * 10
	kernelScalarTrials = 64
	kernelRepeats      = 3
)

// kernelValues times the Figure 7 Monte Carlo kernel directly:
// threshold.RunCtx at parallelism 1, per trial, at the workload's
// physical error rate.
func kernelValues(ctx context.Context, physError float64, values map[string]float64) error {
	perTrial := func(level, trials int, backend string) (float64, error) {
		var runs []float64
		for k := 0; k < kernelRepeats; k++ {
			start := time.Now()
			_, err := threshold.RunCtx(ctx, threshold.Config{
				Level: level, PhysError: physError, MovePerCell: threshold.DefaultMovePerCell,
				Trials: trials, Seed: uint64(k + 1), Parallelism: 1, Backend: backend,
			})
			if err != nil {
				return 0, fmt.Errorf("threshold kernel: %w", err)
			}
			runs = append(runs, float64(time.Since(start))/float64(trials))
		}
		return quantile(runs, 0.5), nil
	}
	l1, err := perTrial(1, kernelL1Trials, threshold.BackendBatch)
	if err != nil {
		return err
	}
	l2, err := perTrial(2, kernelL2Trials, threshold.BackendBatch)
	if err != nil {
		return err
	}
	scalar, err := perTrial(2, kernelScalarTrials, threshold.BackendScalar)
	if err != nil {
		return err
	}
	values["threshold.l1_ns_per_trial"] = l1
	values["threshold.l2_ns_per_trial"] = l2
	values["threshold.l2_batch_speedup"] = scalar / l2
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
