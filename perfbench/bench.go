package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// A workload is one traffic mix: how many replicas with how many
// workers, what set-up it needs, and the phases that split its timed
// window. README.md records why each exists and which layers it loads.
type workload struct {
	replicas int
	workers  int
	// journal gives the replicas a write-ahead job journal.
	journal bool
	flags   []string
	// warm runs once the replicas answer /healthz; it is part of set-up.
	warm   func(ctx context.Context, b *bench, t target) error
	phases []phase
}

// A phase runs for its share of the timed window.
type phase struct {
	share float64
	run   func(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration)
}

// mixedRate is the open-loop rate of sweep-mixed's interactive probe,
// in requests per second: its cold runs take roughly a third of a core,
// so the probe contends with the sweep without saturating the server.
const mixedRate = 16

var workloads = map[string]*workload{
	"run-hot": {replicas: 1, workers: 2, warm: primeHot,
		phases: []phase{{0.5, hotRuns}, {0.5, hotSweeps}}},
	"run-cold": {replicas: 1, workers: 2, journal: true, warm: warmCold,
		phases: []phase{{0.5, coldRuns}, {0.5, coldSweeps}}},
	"sweep-mixed": {replicas: 1, workers: 2, journal: true, flags: []string{"-interactive-reserve", "1"}, warm: warmCold,
		phases: []phase{{1, mixed}}},
	"fleet-sweep": {replicas: 2, workers: 1, journal: true, flags: fleetFlags, warm: warmCold,
		phases: []phase{{0.5, coldRuns}, {0.5, fleetSweeps}}},
}

// fleetFlags shorten the fleet's leases and ledger polls. A replica
// that misses a peer's last completions before the peer retires the
// sweep waits out the whole lease on them; at the defaults (30s leases,
// 1s polls) that stalls one sweep in a few for 30s, longer than a run's
// window, so no run could average over it.
var fleetFlags = []string{"-lease-ttl", "250ms", "-fleet-poll", "50ms"}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// primeHot puts the whole working set in the memory tier, keeping each
// response as the bytes every later hit must replay.
func primeHot(ctx context.Context, b *bench, t target) error {
	b.primed = b.primed[:0]
	for _, op := range b.in.hot {
		prime := *op
		prime.hot = false
		body, err := t.run(ctx, 0, &prime)
		if err != nil {
			return fmt.Errorf("priming %s: %w", op.body, err)
		}
		op.want = body
		if len(b.primed) < 2 {
			b.primed = append(b.primed, dataCheck{spec: op.spec, body: body})
		}
	}
	return nil
}

// warmCold sends one never-timed cold run on each connection, so lazy
// start-up work in the server and the client lands in set-up.
func warmCold(ctx context.Context, b *bench, t target) error {
	for conn := 0; conn < 2; conn++ {
		op := b.in.coldRun(sweepSeedOffset - 1 - conn)
		if _, err := t.run(ctx, conn, op); err != nil {
			return fmt.Errorf("warm-up run: %w", err)
		}
	}
	return nil
}

func hotRuns(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	hot := b.in.hot
	closedLoop(ctx, t, rec, 2, dur, func(conn, i int) *runOp { return hot[(2*i+conn)%len(hot)] })
}

func hotSweeps(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	sweepLoop(ctx, t, b.in, rec, dur, func(int) *sweepOp { return b.in.hotSweep() })
}

func coldRuns(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	closedLoop(ctx, t, rec, 2, dur, func(conn, i int) *runOp { return b.in.coldRun(2*i + conn) })
}

func coldSweeps(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	sweepLoop(ctx, t, b.in, rec, dur, b.in.coldSweep)
}

func fleetSweeps(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	sweepLoop(ctx, t, b.in, rec, dur, func(i int) *sweepOp {
		op := b.in.coldSweep(i)
		op.peerTier = true
		return op
	})
}

// mixed runs sweeps back to back on connection 0 while connection 1
// sends cold runs open loop.
func mixed(ctx context.Context, b *bench, t target, rec *recorder, dur time.Duration) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sweepLoop(ctx, t, b.in, rec, dur, b.in.coldSweep)
	}()
	openLoop(ctx, t, rec, 1, mixedRate, dur, b.in.coldRun)
	wg.Wait()
}

// runBudget bounds one whole benchmark run, set-up and checks included.
const runBudget = 150 * time.Second

// setupRepeats is how many times a run sets up; setup_s is the median
// and the last set-up serves the timed window.
const setupRepeats = 5

type bench struct {
	name   string
	w      *workload
	in     *inputs
	server string
	work   string
	window time.Duration
	primed []dataCheck // warm-up responses of the working set to check
	rec    runRecord
}

// runRecord is the provenance and detail line written to standard
// error next to every result.
type runRecord struct {
	Workload    string          `json:"workload"`
	Seed        uint64          `json:"seed"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	CPU         string          `json:"cpu_model"`
	NProc       int             `json:"nproc"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	GoVersion   string          `json:"go_version"`
	Server      json.RawMessage `json:"server_buildinfo"`
	RunSamples  int             `json:"run_samples"`
	Sweeps      int             `json:"sweeps"`
	Points      int             `json:"points"`
	SetupS      []float64       `json:"setup_s,omitempty"`
	LagP50Ms    float64         `json:"open_loop_lag_p50_ms,omitempty"`
	LagMaxMs    float64         `json:"open_loop_lag_max_ms,omitempty"`
	TracedRunMs float64         `json:"traced_run_root_p50_ms,omitempty"`
	Failures    []string        `json:"failures,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of qlaserve sees, printed by -trace 0.
// Failed operations are the result line's failed count. The tail is
// p95, the highest percentile with ten samples beyond it in every
// workload (sweep-mixed's probe sends about 480 runs in 30 seconds).
var endToEndMetrics = []metricDef{
	{"run_p50_ms", "ms"},
	{"run_p95_ms", "ms"},
	{"run_rps", "1/s"},
	{"sweep_makespan_s", "s"},
	{"sweep_points_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

func (b *bench) share(ph phase) time.Duration {
	return time.Duration(ph.share * float64(b.window))
}

func (b *bench) setup(ctx context.Context) (*cluster, *httpTarget, error) {
	c, err := startCluster(ctx, b.server, b.work, b.w.replicas, b.w.workers, b.w.journal, b.w.flags)
	if err != nil {
		return nil, nil, err
	}
	t := newHTTPTarget(c)
	if err := b.w.warm(ctx, b, t); err != nil {
		t.close()
		c.stop()
		return nil, nil, err
	}
	return c, t, nil
}

// endToEnd measures the workload with nothing traced.
func (b *bench) endToEnd() (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		c      *cluster
		t      *httpTarget
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if c != nil {
			t.close()
			c.stop()
		}
		start := time.Now()
		var err error
		if c, t, err = b.setup(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.stop()
	defer t.close()

	rec := &recorder{checks: slices.Clone(b.primed)}
	for _, ph := range b.w.phases {
		ph.run(ctx, b, t, rec, b.share(ph))
	}
	rss := 0.0
	for _, r := range c.replicas {
		v, err := r.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += v
	}
	after, err := t.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	for _, e := range after {
		if err := e.guard(b.w.journal); err != nil {
			return nil, err
		}
	}
	if err := b.provenance(ctx, t); err != nil {
		return nil, err
	}
	rec.verify(ctx)
	b.note(rec)
	b.rec.SetupS = setups
	return b.result(rec, endToEndMetrics, map[string]float64{
		"run_p50_ms":         overGroups(rec.runStart, rec.runs, runsPerGroup, timing(0.5)),
		"run_p95_ms":         overGroups(rec.runStart, rec.runs, runsPerGroup, timing(0.95)),
		"run_rps":            overGroups(rec.runStart, rec.runs, runsPerGroup, perSecond),
		"sweep_makespan_s":   overGroups(rec.sweepStart, rec.sweeps, sweepsPerGroup, timing(0.5)),
		"sweep_points_per_s": overGroups(rec.sweepStart, rec.sweeps, sweepsPerGroup, perSecond),
		"setup_s":            quantile(setups, 0.5),
		"peak_rss_mb":        rss,
	}), nil
}

func (b *bench) result(rec *recorder, defs []metricDef, values map[string]float64) *result {
	out := &result{
		Attempted: max(rec.attempted(), 1),
		Failed:    rec.failed(),
		Metrics:   map[string]metric{},
	}
	out.Correct = out.Failed == 0 && rec.attempted() > 0
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// note copies the recorder's sample counts into the run record.
func (b *bench) note(rec *recorder) {
	b.rec.RunSamples = len(rec.runs)
	b.rec.Sweeps = len(rec.sweeps)
	b.rec.Points = rec.points()
	if len(rec.lagMs) > 0 {
		b.rec.LagP50Ms = quantile(rec.lagMs, 0.5)
		b.rec.LagMaxMs = quantile(rec.lagMs, 1)
	}
	b.rec.Failures = rec.failures
}

// provenance records the machine, the toolchain and the server build.
func (b *bench) provenance(ctx context.Context, t *httpTarget) error {
	bi, err := t.buildinfo(ctx)
	if err != nil {
		return err
	}
	b.rec.Workload = b.name
	b.rec.GOOS, b.rec.GOARCH = runtime.GOOS, runtime.GOARCH
	b.rec.CPU = cpuModel()
	b.rec.NProc = runtime.NumCPU()
	b.rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	b.rec.GoVersion = runtime.Version()
	b.rec.Server = bi
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
