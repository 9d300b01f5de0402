package threshold

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"qla/internal/iontrap"
	"qla/internal/noise"
	"qla/internal/pauliframe"
)

// Config describes one Figure-7 Monte Carlo point.
type Config struct {
	// Level is the recursion level (1 or 2).
	Level int
	// PhysError is the uniform component failure rate applied to gates,
	// measurements and preparations (the sweep variable).
	PhysError float64
	// MovePerCell is the per-cell movement failure rate, pinned to the
	// expected value in the paper's procedure.
	MovePerCell float64
	// Trials is the number of Monte Carlo trials.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// Parallelism bounds the worker-pool width (0 means GOMAXPROCS).
	// Every trial (scalar backend) or 64-trial block (batch backend) is
	// seeded from its global index, so the result is bit-identical at
	// any parallelism for a fixed Seed and Backend.
	Parallelism int
	// Backend selects the Monte Carlo engine: BackendBatch (the
	// default, 64 bit-sliced trials per word) or BackendScalar (the
	// one-trial-at-a-time reference oracle). The two backends draw
	// different random streams from the same Seed, so their results
	// agree statistically, not bit-for-bit.
	Backend string
}

// Monte Carlo backends.
const (
	// BackendBatch is the bit-sliced engine: 64 independent trials per
	// uint64 word, the default (an empty Backend selects it).
	BackendBatch = "batch"
	// BackendScalar is the one-trial-at-a-time reference engine.
	BackendScalar = "scalar"
)

// Point is one measured point of the Figure-7 curves.
type Point struct {
	Level      int
	PhysError  float64
	Failures   int
	Trials     int
	FailRate   float64
	StdErr     float64 // binomial standard error
	NonTrivial float64 // non-trivial syndrome fraction at Level
	PrepRetry  float64 // ancilla re-preparations per trial
}

// DefaultMovePerCell is Table 1's expected movement failure rate.
const DefaultMovePerCell = 1e-6

// Run executes the Monte Carlo for one configuration, parallelized over
// available CPUs with per-shard deterministic seeding.
func Run(cfg Config) (Point, error) { return RunCtx(context.Background(), cfg) }

// RunCtx is Run with cooperative cancellation: workers poll ctx between
// trials and the call returns ctx.Err() if the context ends before the
// last trial completes.
func RunCtx(ctx context.Context, cfg Config) (Point, error) {
	if cfg.Level != 1 && cfg.Level != 2 {
		return Point{}, fmt.Errorf("threshold: level must be 1 or 2, got %d", cfg.Level)
	}
	if cfg.Trials <= 0 {
		return Point{}, fmt.Errorf("threshold: need positive trials")
	}
	if cfg.PhysError < 0 || cfg.PhysError > 1 {
		return Point{}, fmt.Errorf("threshold: physical error %g outside [0,1]", cfg.PhysError)
	}

	var total blockStats
	var err error
	switch cfg.Backend {
	case "", BackendBatch:
		total, err = runBatched(ctx, cfg)
	case BackendScalar:
		total, err = runScalar(ctx, cfg)
	default:
		return Point{}, fmt.Errorf("threshold: unknown backend %q (want %q or %q)",
			cfg.Backend, BackendBatch, BackendScalar)
	}
	if err != nil {
		return Point{}, err
	}

	p := Point{
		Level:     cfg.Level,
		PhysError: cfg.PhysError,
		Failures:  int(total.failures),
		Trials:    cfg.Trials,
		FailRate:  float64(total.failures) / float64(cfg.Trials),
	}
	p.StdErr = math.Sqrt(p.FailRate * (1 - p.FailRate) / float64(cfg.Trials))
	if total.extractions > 0 {
		p.NonTrivial = float64(total.nontrivial) / float64(total.extractions)
	}
	p.PrepRetry = float64(total.prepRetries) / float64(cfg.Trials)
	return p, nil
}

// runScalar fans trials out one at a time over the worker pool (the
// reference oracle path).
func runScalar(ctx context.Context, cfg Config) (blockStats, error) {
	return fanOut(ctx, cfg.Parallelism, cfg.Trials, func(trial int) blockStats {
		fail, ext, nt, pr := runTrial(cfg, uint64(trial))
		r := blockStats{extractions: ext, nontrivial: nt, prepRetries: pr}
		if fail {
			r.failures = 1
		}
		return r
	})
}

// runBatched fans 64-trial blocks out over the worker pool; the final
// block runs short when Trials is not a multiple of 64.
func runBatched(ctx context.Context, cfg Config) (blockStats, error) {
	params := iontrap.Uniform(cfg.PhysError, cfg.MovePerCell)
	blocks := (cfg.Trials + pauliframe.Lanes - 1) / pauliframe.Lanes
	return fanOut(ctx, cfg.Parallelism, blocks, func(block int) blockStats {
		lanes := pauliframe.Lanes
		if rem := cfg.Trials - block*pauliframe.Lanes; rem < lanes {
			lanes = rem
		}
		return runBlock(cfg, params, uint64(block), lanes)
	})
}

func (a *blockStats) add(b blockStats) {
	a.failures += b.failures
	a.extractions += b.extractions
	a.nontrivial += b.nontrivial
	a.prepRetries += b.prepRetries
}

// fanOut shards unit indices [0,units) over a worker pool. Each unit is
// seeded from its global index by the caller and the integer statistics
// are summed, so the total is bit-identical at any worker count.
func fanOut(ctx context.Context, parallelism, units int, run func(unit int) blockStats) (blockStats, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	results := make([]blockStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := units * w / workers
			hi := units * (w + 1) / workers
			var r blockStats
			for u := lo; u < hi; u++ {
				if ctx.Err() != nil {
					return
				}
				r.add(run(u))
			}
			results[w] = r
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return blockStats{}, err
	}
	var total blockStats
	for _, r := range results {
		total.add(r)
	}
	return total, nil
}

// runTrial simulates one logical one-qubit gate followed by error
// correction at the configured level, returning failure and syndrome
// statistics for the top level.
func runTrial(cfg Config, trial uint64) (fail bool, extractions, nontrivial, prepRetries int64) {
	params := iontrap.Uniform(cfg.PhysError, cfg.MovePerCell)
	seed := cfg.Seed ^ (trial+1)*0x9e3779b97f4a7c15 ^ uint64(cfg.Level)<<60
	model := noise.NewModel(params, seed)

	if cfg.Level == 1 {
		s := sim{f: pauliframe.New(groupSize), m: model}
		g := makeGroup(0)
		// Transversal logical one-qubit gate (Pauli: frame-transparent,
		// contributes only its per-ion gate noise).
		for _, q := range g.Data {
			s.gate1Noise(q)
		}
		s.l1EC(g)
		return s.dataResidualFail(g), s.extractions[1], s.nontrivial[1], s.prepRetries
	}

	s := l2sim{sim: sim{f: pauliframe.New(l2FrameSize), m: model}}
	s.data, s.xSide, s.zSide, s.xVerif, s.zVerif = newL2Layout()
	for b := 0; b < 7; b++ {
		for _, q := range s.data[b].Data {
			s.gate1Noise(q)
		}
	}
	s.l2EC()
	return s.residualFail(), s.extractions[2], s.nontrivial[2], s.prepRetries
}

// SingleFaultTrial runs one level-1 or level-2 trial with exactly one
// forced error at the given noise site (choice selects the error variant;
// see noise.Model) and no other noise anywhere. It reports whether the
// trial ended in logical failure and how many sites the trial visited.
// Running with site < 0 injects nothing (a clean census pass).
//
// This is the fault-tolerance verifier: a correct gadget never fails under
// any single fault.
func SingleFaultTrial(level int, site int64, choice int) (fail bool, totalSites int64) {
	model := noise.NewModel(iontrap.Uniform(0, 0), 1)
	model.ForceEnabled = true
	model.ForceSite = site
	model.ForceChoice = choice
	if site < 0 {
		model.ForceSite = -1 << 62
	}

	if level == 1 {
		s := sim{f: pauliframe.New(groupSize), m: model}
		g := makeGroup(0)
		for _, q := range g.Data {
			s.gate1Noise(q)
		}
		s.l1EC(g)
		return s.dataResidualFail(g), model.Sites()
	}
	s := l2sim{sim: sim{f: pauliframe.New(l2FrameSize), m: model}}
	s.data, s.xSide, s.zSide, s.xVerif, s.zVerif = newL2Layout()
	for b := 0; b < 7; b++ {
		for _, q := range s.data[b].Data {
			s.gate1Noise(q)
		}
	}
	s.l2EC()
	return s.residualFail(), model.Sites()
}

// Sweep runs the Monte Carlo at each physical error rate for one level
// on the default (batch) backend.
func Sweep(level int, physErrors []float64, trials int, seed uint64) ([]Point, error) {
	return SweepCtx(context.Background(), level, physErrors, trials, seed, 0, "")
}

// SweepCtx is Sweep with cooperative cancellation, an explicit
// worker-pool width (parallelism 0 means GOMAXPROCS) and a backend
// selection (empty means BackendBatch).
func SweepCtx(ctx context.Context, level int, physErrors []float64, trials int, seed uint64, parallelism int, backend string) ([]Point, error) {
	var out []Point
	for _, p := range physErrors {
		pt, err := RunCtx(ctx, Config{
			Level:       level,
			PhysError:   p,
			MovePerCell: DefaultMovePerCell,
			Trials:      trials,
			Seed:        seed,
			Parallelism: parallelism,
			Backend:     backend,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure7Errors is the sweep range of Figure 7 (the x-axis runs from
// 1×10⁻³ to 2.5×10⁻³).
var Figure7Errors = []float64{5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3, 3e-3, 4e-3}

// Crossing locates the pseudo-threshold: the physical error rate at which
// the level-2 curve crosses the level-1 curve, by linear interpolation of
// the failure-rate difference. Points must share the same PhysError grid.
// It returns 0 when no crossing is bracketed.
func Crossing(l1, l2 []Point) float64 {
	n := len(l1)
	if len(l2) < n {
		n = len(l2)
	}
	for i := 1; i < n; i++ {
		d0 := l2[i-1].FailRate - l1[i-1].FailRate
		d1 := l2[i].FailRate - l1[i].FailRate
		if d0 < 0 && d1 >= 0 {
			// Interpolate the zero of the difference.
			span := d1 - d0
			if span == 0 {
				return l1[i].PhysError
			}
			frac := -d0 / span
			return l1[i-1].PhysError + frac*(l1[i].PhysError-l1[i-1].PhysError)
		}
	}
	return 0
}

// SyndromeRates measures the non-trivial syndrome fraction at levels 1 and
// 2 under the expected technology parameters (Section 4.1.1 reports
// 3.35×10⁻⁴ and 7.92×10⁻⁴).
func SyndromeRates(trials int, seed uint64) (l1, l2 float64, err error) {
	return SyndromeRatesCtx(context.Background(), trials, seed, 0, "")
}

// SyndromeRatesCtx is SyndromeRates with cooperative cancellation, an
// explicit worker-pool width (parallelism 0 means GOMAXPROCS) and a
// backend selection (empty means BackendBatch).
func SyndromeRatesCtx(ctx context.Context, trials int, seed uint64, parallelism int, backend string) (l1, l2 float64, err error) {
	expected := iontrap.Expected()
	p1, err := RunCtx(ctx, Config{
		Level:       1,
		PhysError:   expected.Fail[iontrap.OpDouble],
		MovePerCell: expected.Fail[iontrap.OpMoveCell],
		Trials:      trials,
		Seed:        seed,
		Parallelism: parallelism,
		Backend:     backend,
	})
	if err != nil {
		return 0, 0, err
	}
	l2Trials := trials / 10
	if l2Trials < 1 {
		l2Trials = 1
	}
	p2, err := RunCtx(ctx, Config{
		Level:       2,
		PhysError:   expected.Fail[iontrap.OpDouble],
		MovePerCell: expected.Fail[iontrap.OpMoveCell],
		Trials:      l2Trials,
		Seed:        seed + 1,
		Parallelism: parallelism,
		Backend:     backend,
	})
	if err != nil {
		return 0, 0, err
	}
	return p1.NonTrivial, p2.NonTrivial, nil
}
