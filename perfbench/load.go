package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"qla/internal/engine"
	"qla/internal/sweep"
)

// target is what a workload drives: the real servers over HTTP, or the
// traced in-process stack. Both check every response they return.
type target interface {
	// run sends op over client connection conn and returns the
	// response body.
	run(ctx context.Context, conn int, op *runOp) ([]byte, error)
	// sweep submits op, waits until the sweep has settled on every
	// replica and returns its result and makespan: submission to the
	// done event on the replica it was submitted to.
	sweep(ctx context.Context, op *sweepOp) (*sweep.Result, time.Duration, error)
}

// checkRun applies the per-response checks both targets share.
func checkRun(op *runOp, body []byte, xcache, hash string) error {
	if hash != op.hash {
		return fmt.Errorf("spec hash %q, want %q", hash, op.hash)
	}
	if !op.hot {
		if xcache != "miss" {
			return fmt.Errorf("X-Cache %q for a never-seen spec, want miss", xcache)
		}
		return nil
	}
	if xcache != "hit" {
		return fmt.Errorf("X-Cache %q for a primed spec, want hit", xcache)
	}
	if !bytes.Equal(body, op.want) {
		return fmt.Errorf("hit body for %s differs from its warm-up bytes", op.hash[:12])
	}
	return nil
}

// checkSweep checks a settled sweep's aggregate and, for hot sweeps,
// that every point replayed its primed bytes.
func checkSweep(in *inputs, op *sweepOp, res *sweep.Result) error {
	if res.Total != op.points || res.OK != res.Total || res.Failed != 0 {
		return fmt.Errorf("sweep %s: total %d ok %d failed %d, want %d ok", res.SweepHash[:12], res.Total, res.OK, res.Failed, op.points)
	}
	switch {
	case op.hot:
		if res.Cached != res.Total {
			return fmt.Errorf("hot sweep %s: %d of %d points cached", res.SweepHash[:12], res.Cached, res.Total)
		}
		for _, p := range res.Points {
			want, ok := in.hotByHash[p.SpecHash]
			if !ok || !bytes.Equal(p.Result, want.want) {
				return fmt.Errorf("hot sweep %s: point %d bytes differ from its warm-up bytes", res.SweepHash[:12], p.Index)
			}
		}
	case !op.peerTier && res.Cached != 0:
		return fmt.Errorf("cold sweep %s: %d points cached, want 0", res.SweepHash[:12], res.Cached)
	}
	return nil
}

// dataCheck is a response whose data payload is compared, after the
// timed window, with an in-process engine.Run of the same spec.
type dataCheck struct {
	spec engine.Spec
	body []byte
}

// Deterministic output sample: every checkEvery-th cold run and one
// point of every checkEvery/sweepPoints-th cold sweep, by generated
// index, up to maxChecks per run (each check re-runs the spec
// in-process).
const (
	checkEvery = 16
	maxChecks  = 8
)

// event is one successful operation: when it completed, its timing
// (a run's latency in ms, a sweep's makespan in s) and the units of
// work it settled (1 run, or a sweep's points).
type event struct {
	at time.Time
	v  float64
	n  int
}

// recorder collects one run's samples. Failed operations are counted
// and kept out of the timings.
type recorder struct {
	mu         sync.Mutex
	runs       []event
	serviceMs  []float64 // run latencies from the actual send (open loop: minus lateness)
	runFailed  int
	sweeps     []event
	sweepFail  int
	lagMs      []float64 // open-loop lateness against the schedule
	runStart   time.Time // when the first run loop started
	sweepStart time.Time
	checks     []dataCheck
	failures   []string
}

func (r *recorder) failure(err error) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// begin records the start of a loop; loops of one kind share the first.
func (r *recorder) begin(at *time.Time, now time.Time) {
	r.mu.Lock()
	if at.IsZero() {
		*at = now
	}
	r.mu.Unlock()
}

func (r *recorder) runDone(op *runOp, body []byte, lat, service time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.runFailed++
		r.failure(err)
		return
	}
	r.runs = append(r.runs, event{at: time.Now(), v: float64(lat) / float64(time.Millisecond), n: 1})
	r.serviceMs = append(r.serviceMs, float64(service)/float64(time.Millisecond))
	if !op.hot && op.index%checkEvery == 0 {
		r.sample(op.spec, body)
	}
}

func (r *recorder) sample(spec engine.Spec, body []byte) {
	if len(r.checks) < maxChecks {
		r.checks = append(r.checks, dataCheck{spec: spec, body: body})
	}
}

func (r *recorder) sweepDone(in *inputs, op *sweepOp, res *sweep.Result, makespan time.Duration, err error) {
	if err == nil {
		err = checkSweep(in, op, res)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.sweepFail++
		r.failure(err)
		return
	}
	r.sweeps = append(r.sweeps, event{at: time.Now(), v: makespan.Seconds(), n: res.OK})
	if !op.hot && op.index%(checkEvery/sweepPoints) == 0 {
		p := res.Points[op.index%len(res.Points)]
		r.sample(op.specs[p.Index], p.Result)
	}
}

func (r *recorder) points() int {
	n := 0
	for _, e := range r.sweeps {
		n += e.n
	}
	return n
}

// attempted and failed count run requests and sweeps.
func (r *recorder) attempted() int {
	return len(r.runs) + r.runFailed + len(r.sweeps) + r.sweepFail
}

func (r *recorder) failed() int { return r.runFailed + r.sweepFail }

// verify re-runs every sampled spec in-process and compares the data
// payloads, leaving out the Result envelope's timing fields.
func (r *recorder) verify(ctx context.Context) {
	eng := engine.New()
	for _, c := range r.checks {
		res, err := eng.Run(ctx, c.spec)
		if err != nil {
			r.runFailed++
			r.failure(fmt.Errorf("in-process run for the output check: %w", err))
			continue
		}
		want, err := json.Marshal(res.Data)
		if err != nil {
			r.runFailed++
			r.failure(err)
			continue
		}
		var got struct {
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(c.body, &got); err != nil || !bytes.Equal(got.Data, want) {
			r.runFailed++
			r.failure(fmt.Errorf("%s data differs from an in-process engine.Run of the same spec", c.spec.Experiment))
		}
	}
}

// closedLoop runs conns client loops for dur: each sends its next
// request only after the previous response arrived.
func closedLoop(ctx context.Context, t target, rec *recorder, conns int, dur time.Duration, next func(conn, i int) *runOp) {
	start := time.Now()
	rec.begin(&rec.runStart, start)
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				op := next(c, i)
				t0 := time.Now()
				body, err := t.run(ctx, c, op)
				lat := time.Since(t0)
				rec.runDone(op, body, lat, lat, err)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends requests on connection conn at a fixed rate for dur.
// Each latency runs from the request's scheduled send time, so a stall
// also charges the requests queued behind it; how late each send went
// out is recorded as well.
func openLoop(ctx context.Context, t target, rec *recorder, conn int, rate float64, dur time.Duration, next func(i int) *runOp) {
	start := time.Now()
	rec.begin(&rec.runStart, start)
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		op := next(i)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		sent := time.Now()
		body, err := t.run(ctx, conn, op)
		rec.runDone(op, body, time.Since(due), time.Since(sent), err)
		rec.mu.Lock()
		rec.lagMs = append(rec.lagMs, float64(sent.Sub(due))/float64(time.Millisecond))
		rec.mu.Unlock()
	}
}

// sweepLoop submits one sweep at a time for dur, each after the
// previous one settled.
func sweepLoop(ctx context.Context, t target, in *inputs, rec *recorder, dur time.Duration, next func(i int) *sweepOp) {
	start := time.Now()
	rec.begin(&rec.sweepStart, start)
	for i := 0; time.Since(start) < dur && ctx.Err() == nil; i++ {
		op := next(i)
		res, makespan, err := t.sweep(ctx, op)
		rec.sweepDone(in, op, res, makespan, err)
	}
}

// Timings are taken over groups of consecutive completions, each large
// enough that even its p99 has ten samples beyond it. With samples for
// several groups a metric is the median over at most maxGroups of them,
// so a stall of the shared host that hits one group moves the result
// less than it moves one pooled figure.
const (
	runsPerGroup   = 1000
	sweepsPerGroup = 100
	maxGroups      = 10
)

// overGroups splits evs (in completion order) into consecutive groups
// of at least per events and returns the median over the groups of f,
// which receives a group and the time since the previous group ended
// (the first: since start).
func overGroups(start time.Time, evs []event, per int, f func(g []event, span time.Duration) float64) float64 {
	if len(evs) == 0 {
		return 0
	}
	k := min(max(len(evs)/per, 1), maxGroups)
	vals := make([]float64, 0, k)
	from := start
	for i := 0; i < k; i++ {
		g := evs[i*len(evs)/k : (i+1)*len(evs)/k]
		to := g[len(g)-1].at
		vals = append(vals, f(g, to.Sub(from)))
		from = to
	}
	return quantile(vals, 0.5)
}

// timing returns the q-quantile of a group's timings.
func timing(q float64) func([]event, time.Duration) float64 {
	return func(g []event, _ time.Duration) float64 {
		vs := make([]float64, len(g))
		for i, e := range g {
			vs[i] = e.v
		}
		return quantile(vs, q)
	}
}

// perSecond returns a group's units of work per second.
func perSecond(g []event, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	n := 0
	for _, e := range g {
		n += e.n
	}
	return float64(n) / span.Seconds()
}
