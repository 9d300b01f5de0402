// Package threshold implements the paper's Figure-7 experiment: gate-level
// Monte Carlo simulation of a single logical one-qubit gate followed by
// recursive Steane [[7,1,3]] error correction at levels 1 and 2, mapped to
// the Figure-5 layout distances, with the movement failure rate pinned to
// the expected value while all other component failure rates sweep.
//
// The simulation follows the paper's procedure exactly:
//   - ancilla blocks are prepared with encoder + verification ions and
//     re-prepared on verification failure ("Start Over" in Figure 6);
//   - syndromes are re-extracted until two successive extractions agree;
//   - at level 2 a non-trivial syndrome's correction is followed by
//     level-1 error correction of the corrected block (Equation 1), and
//     ancilla conglomerations are built from seven level-1 blocks via the
//     transversal encoder;
//   - trials are scored by ideal hierarchical decoding of the residual
//     Pauli frame: a residual logical operator is a gate failure.
//
// The procedure is written once, as a schedule over lane masks
// (schedule.go): every step names the lanes (trials) that execute it, and
// per-lane control flow — ancilla "Start Over" retries, the
// agreeing-syndromes rule — re-runs steps only for the lanes that need
// them. The schedule drives an executor, one call per transversal 7-ion
// step. Two executors make the two Monte Carlo backends. The default
// batch executor (batch.go) bit-slices 64 independent trials per word on
// pauliframe.Batch lane masks, with resolved noise.BatchModel sites and
// steane's bit-sliced decoders. The scalar executor (scalar.go) runs one
// trial in lane 0 over its own pauliframe.Frame, noise.Model and scalar
// decoders, and is kept as the reference oracle: the backends agree
// exactly under deterministic single-fault injection and statistically
// under random noise. Fixed Seed + Backend reproduces bit-identical
// statistics at any Parallelism; the two backends draw different random
// streams, so across backends agreement is statistical only.
package threshold

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"qla/internal/iontrap"
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

// RunCtx executes the Monte Carlo for one configuration, parallelized
// over cfg.Parallelism workers with per-shard deterministic seeding.
// Workers poll ctx between trials and the call returns ctx.Err() if the
// context ends before the last trial completes.
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
		return runTrial(cfg, uint64(trial))
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

// blockStats aggregates the trials of a run, a block or one trial.
type blockStats struct {
	failures    int64
	extractions int64
	nontrivial  int64
	prepRetries int64
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

// SweepCtx runs the Monte Carlo at each physical error rate for one
// level under ctx, with an explicit worker-pool width (parallelism 0
// means GOMAXPROCS) and a backend selection (empty means BackendBatch).
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

// SyndromeRatesCtx measures the non-trivial syndrome fraction at levels
// 1 and 2 under the expected technology parameters (Section 4.1.1
// reports 3.35×10⁻⁴ and 7.92×10⁻⁴), under ctx, with an explicit
// worker-pool width (parallelism 0 means GOMAXPROCS) and a backend
// selection (empty means BackendBatch).
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
