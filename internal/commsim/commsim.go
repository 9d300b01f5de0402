// Package commsim executes the QLA repeater-chain communication
// protocol gate by gate: raw EPR pairs are created and depolarized,
// purified by nested BBPSSW rounds with real post-selection, merged by
// entanglement swapping with per-swap noise, and finally used to
// teleport a data qubit whose delivered state is checked in both bases.
//
// The analytic interconnect model (internal/teleport) applies the
// Werner-state recurrences of Dür et al. to size the Figure-9 network;
// this package is the low-level validation the paper insists on
// ("low-level simulation is important to account for small factors that
// accumulate exponentially"): the same protocol, run as an actual noisy
// quantum circuit, must deliver error rates the recurrences predict.
// It also measures raw-pair consumption directly, exhibiting the
// exponential cost of purification rounds that motivates repeater
// islands over end-to-end purification.
//
// Two Monte Carlo backends execute the protocol (see batch.go): the
// bit-sliced default runs 64 trials per uint64 word on a Pauli-frame
// chain model, and the scalar stabilizer-tableau path remains as the
// reference oracle. Because every lane of the batch backend replays
// exactly the scalar backend's per-trial noise RNG stream, the two are
// bit-identical at the same seed — not merely statistically compatible.
package commsim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"qla/internal/stabilizer"
	"qla/internal/teleport"
)

// Monte Carlo backends.
const (
	// BackendBatch is the bit-sliced Pauli-frame engine: 64 independent
	// trials per uint64 word, the default (an empty Backend selects it).
	BackendBatch = "batch"
	// BackendScalar is the one-trial-at-a-time stabilizer-tableau
	// reference engine.
	BackendScalar = "scalar"
)

// ChainConfig parameterizes one chain experiment.
type ChainConfig struct {
	// Links is the number of repeater links in the chain (1 = direct
	// neighbours, no swapping).
	Links int
	// LinkEps is the depolarization probability applied to each raw
	// pair's travelling half: raw link fidelity = 1 - LinkEps.
	LinkEps float64
	// PurifyRounds is the nested BBPSSW ladder depth per link; each
	// round doubles the raw-pair cost and post-selects on agreeing
	// parities.
	PurifyRounds int
	// SwapEps is the depolarization applied to the surviving half
	// after each entanglement swap (imperfect Bell measurement).
	SwapEps float64
	// Trials is the Monte Carlo sample count.
	Trials int
	// Seed feeds the deterministic RNG.
	Seed uint64
	// Backend selects the Monte Carlo engine: BackendBatch (the
	// default, 64 bit-sliced trials per word) or BackendScalar (the
	// stabilizer-tableau reference oracle). Every batch lane replays
	// the scalar backend's per-trial noise stream, so both backends
	// produce bit-identical measurements at the same Seed.
	Backend string `json:"Backend,omitempty"`
	// Parallelism bounds the worker-pool width (0 means GOMAXPROCS).
	// Every trial derives its RNG streams from its global trial index,
	// so the result is bit-identical at any parallelism for a fixed
	// Seed. As a pure execution detail it is excluded from the JSON
	// form (results at different widths must serialize identically).
	Parallelism int `json:"-"`
}

// Validate checks the configuration bounds.
func (c ChainConfig) Validate() error {
	switch {
	case c.Links <= 0:
		return fmt.Errorf("commsim: links must be positive, got %d", c.Links)
	case c.LinkEps < 0 || c.LinkEps >= 0.5:
		return fmt.Errorf("commsim: link eps %g outside [0, 0.5)", c.LinkEps)
	case c.PurifyRounds < 0 || c.PurifyRounds > 6:
		return fmt.Errorf("commsim: purify rounds %d outside [0,6]", c.PurifyRounds)
	case c.SwapEps < 0 || c.SwapEps >= 0.5:
		return fmt.Errorf("commsim: swap eps %g outside [0, 0.5)", c.SwapEps)
	case c.Trials <= 0:
		return fmt.Errorf("commsim: trials must be positive, got %d", c.Trials)
	}
	switch c.Backend {
	case "", BackendBatch, BackendScalar:
	default:
		return fmt.Errorf("commsim: unknown backend %q (want %q or %q)",
			c.Backend, BackendBatch, BackendScalar)
	}
	return nil
}

// width is the qubit count of one protocol instance: the data qubit,
// one pair per link, and one sacrificial pair per purification level.
func (c ChainConfig) width() int { return 1 + 2*c.Links + 2*c.PurifyRounds }

// scratchPairs lays out the sacrificial purification pairs after the
// link qubits; scratch[k] serves purification level k+1.
func (c ChainConfig) scratchPairs() [][2]int {
	out := make([][2]int, 0, c.PurifyRounds)
	for k := 0; k < c.PurifyRounds; k++ {
		base := 1 + 2*c.Links + 2*k
		out = append(out, [2]int{base, base + 1})
	}
	return out
}

// ChainResult reports one chain experiment.
type ChainResult struct {
	Config ChainConfig
	// ZBasisErrors counts trials where a teleported |0⟩ read out 1
	// (sensitive to X and Y errors on the delivered pair).
	ZBasisErrors int
	// XBasisErrors counts trials where a teleported |+⟩ read out -,
	// (sensitive to Z and Y errors).
	XBasisErrors int
	// ZTrials and XTrials split Trials between the two probes.
	ZTrials, XTrials int
	// ErrorRate is the combined observed error fraction.
	ErrorRate float64
	// PredictedError is 1 - F from the Werner recurrences of the
	// analytic model, an upper envelope for either basis (a Werner
	// pair of fidelity F errs in one fixed basis with probability
	// 2(1-F)/3).
	PredictedError float64
	// RawPairsMean is the measured average number of raw EPR pairs
	// consumed per delivered connection (purification retries
	// included) — the resource the paper's repeater design bounds.
	RawPairsMean float64
}

// chainStats is the integer-summable aggregate one worker shard (or
// one 64-trial block) contributes.
type chainStats struct {
	zErrors, xErrors int
	zTrials, xTrials int
	rawPairs         int
}

func (a *chainStats) add(b chainStats) {
	a.zErrors += b.zErrors
	a.xErrors += b.xErrors
	a.zTrials += b.zTrials
	a.xTrials += b.xTrials
	a.rawPairs += b.rawPairs
}

// chainRun holds the scalar backend's per-worker state: the stabilizer
// tableau, both RNG streams and the raw-pair counter are scratch that
// reset() rewinds per trial instead of reallocating (the scalar hot
// path used to pay a fresh tableau per trial).
type chainRun struct {
	cfg      ChainConfig
	noisePCG *rand.PCG
	rng      *rand.Rand
	outPCG   *rand.PCG
	s        *stabilizer.State
	rawPairs int
	// scratch[k] is the qubit pair reserved for purification level k.
	scratch [][2]int
}

// newChainRun allocates one worker's reusable trial state.
func newChainRun(cfg ChainConfig) *chainRun {
	r := &chainRun{
		cfg:      cfg,
		noisePCG: rand.NewPCG(0, 0),
		outPCG:   rand.NewPCG(0, 0),
		scratch:  cfg.scratchPairs(),
	}
	r.rng = rand.New(r.noisePCG)
	r.s = stabilizer.NewWithRand(cfg.width(), rand.New(r.outPCG))
	return r
}

// reset rewinds the run to the deterministic start state of one trial:
// both RNG streams (noise injection and measurement outcomes) reseed
// from the trial's global index alone — so trials are independent of
// execution order — and the tableau returns to |0…0⟩ in place.
func (r *chainRun) reset(trial int) {
	r.noisePCG.Seed(r.cfg.Seed^0x1e97, (uint64(trial)+1)*0x9e3779b97f4a7c15)
	r.outPCG.Seed(uint64(trial), r.cfg.Seed)
	r.s.ResetAllZero()
	r.rawPairs = 0
}

// qubit indices: 0 is the data qubit; link i owns (1+2i, 2+2i);
// purification level k owns the pair after the links.
func linkQubits(i int) (int, int) { return 1 + 2*i, 2 + 2*i }

func (r *chainRun) depolarize(q int, eps float64) {
	if r.rng.Float64() < eps {
		switch r.rng.IntN(3) {
		case 0:
			r.s.X(q)
		case 1:
			r.s.Y(q)
		default:
			r.s.Z(q)
		}
	}
}

// rawPair prepares |Φ+⟩ on (x, y) and depolarizes the travelling half.
func (r *chainRun) rawPair(x, y int) {
	r.s.Reset(x)
	r.s.Reset(y)
	r.s.H(x)
	r.s.CNOT(x, y)
	r.depolarize(y, r.cfg.LinkEps)
	r.rawPairs++
}

const maxPurifyAttempts = 4096

func errPurifyDiverged() error {
	return fmt.Errorf("commsim: purification did not converge in %d attempts", maxPurifyAttempts)
}

// purifiedPair recursively builds a level-k purified pair on (x, y):
// two level-(k-1) pairs are combined by bilateral CNOT and the
// sacrificial pair is measured; disagreement discards everything and
// retries, exactly as the physical protocol would.
func (r *chainRun) purifiedPair(x, y, k int) error {
	if k == 0 {
		r.rawPair(x, y)
		return nil
	}
	sx, sy := r.scratch[k-1][0], r.scratch[k-1][1]
	for attempt := 0; attempt < maxPurifyAttempts; attempt++ {
		if err := r.purifiedPair(x, y, k-1); err != nil {
			return err
		}
		if err := r.purifiedPair(sx, sy, k-1); err != nil {
			return err
		}
		r.s.CNOT(x, sx)
		r.s.CNOT(y, sy)
		if r.s.Measure(sx) == r.s.Measure(sy) {
			return nil
		}
	}
	return errPurifyDiverged()
}

// RunChainCtx executes the full protocol cfg.Trials times and aggregates
// delivered-state error rates and raw-pair consumption. Trials (or
// 64-trial blocks, on the batch backend) fan out over a worker pool of
// cfg.Parallelism goroutines (GOMAXPROCS when zero), each unit seeded
// from its global index so the aggregate is bit-identical to a serial
// run at the same seed. Workers poll ctx between units and the call
// returns ctx.Err() on cancellation.
func RunChainCtx(ctx context.Context, cfg ChainConfig) (ChainResult, error) {
	if err := cfg.Validate(); err != nil {
		return ChainResult{}, err
	}

	var total chainStats
	var err error
	switch cfg.Backend {
	case "", BackendBatch:
		total, err = runChainBatched(ctx, cfg)
	case BackendScalar:
		total, err = runChainScalar(ctx, cfg)
	}
	if err != nil {
		return ChainResult{}, err
	}

	res := ChainResult{
		Config:       cfg,
		ZBasisErrors: total.zErrors,
		XBasisErrors: total.xErrors,
		ZTrials:      total.zTrials,
		XTrials:      total.xTrials,
	}
	res.ErrorRate = float64(res.ZBasisErrors+res.XBasisErrors) / float64(cfg.Trials)
	res.RawPairsMean = float64(total.rawPairs) / float64(cfg.Trials)
	res.PredictedError = 1 - cfg.predictFidelity()
	return res, nil
}

// runChainScalar fans trials out one at a time over the worker pool,
// each worker reusing one chainRun's tableau and RNG scratch across
// all of its trials.
func runChainScalar(ctx context.Context, cfg ChainConfig) (chainStats, error) {
	return chainFanOut(ctx, cfg.Parallelism, cfg.Trials, func(run any, trial int) (chainStats, error) {
		r := run.(*chainRun)
		var st chainStats
		xBasis := trial%2 == 1
		bad, raw, err := r.runTrial(trial, xBasis)
		if err != nil {
			return st, err
		}
		st.rawPairs = raw
		if xBasis {
			st.xTrials = 1
			if bad {
				st.xErrors = 1
			}
		} else {
			st.zTrials = 1
			if bad {
				st.zErrors = 1
			}
		}
		return st, nil
	}, func() any { return newChainRun(cfg) })
}

// chainFanOut shards unit indices [0,units) over a worker pool. Each
// worker owns one scratch value (built by newScratch) for its whole
// life; each unit is seeded from its global index by the runner and the
// integer statistics are summed, so the total is bit-identical at any
// worker count.
func chainFanOut(ctx context.Context, parallelism, units int, run func(scratch any, unit int) (chainStats, error), newScratch func() any) (chainStats, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	type shard struct {
		st  chainStats
		err error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := newScratch()
			lo := units * w / workers
			hi := units * (w + 1) / workers
			s := &shards[w]
			for u := lo; u < hi; u++ {
				if ctx.Err() != nil {
					return
				}
				st, err := run(scratch, u)
				if err != nil {
					s.err = err
					return
				}
				s.st.add(st)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return chainStats{}, err
	}
	var total chainStats
	for _, s := range shards {
		if s.err != nil {
			return chainStats{}, s.err
		}
		total.add(s.st)
	}
	return total, nil
}

// runTrial executes one end-to-end protocol instance on the reusable
// scalar scratch.
func (r *chainRun) runTrial(trial int, xBasis bool) (errored bool, rawPairs int, err error) {
	cfg := r.cfg
	r.reset(trial)

	// Build one purified pair per link.
	for i := 0; i < cfg.Links; i++ {
		a, b := linkQubits(i)
		if err := r.purifiedPair(a, b, cfg.PurifyRounds); err != nil {
			return false, 0, err
		}
	}
	// Swap the chain down to a single end-to-end pair (a_0, far).
	a0, far := linkQubits(0)
	for i := 1; i < cfg.Links; i++ {
		ai, bi := linkQubits(i)
		teleport.EntanglementSwap(r.s, far, ai, bi)
		r.depolarize(bi, cfg.SwapEps)
		far = bi
	}

	// Probe: teleport |0⟩ on even trials, |+⟩ on odd ones.
	data := 0
	r.s.Reset(data)
	if xBasis {
		r.s.H(data)
	}
	r.s.CNOT(data, a0)
	r.s.H(data)
	m0 := r.s.Measure(data)
	m1 := r.s.Measure(a0)
	if m1 == 1 {
		r.s.X(far)
	}
	if m0 == 1 {
		r.s.Z(far)
	}
	if xBasis {
		r.s.H(far)
	}
	return r.s.Measure(far) != 0, r.rawPairs, nil
}

// predictFidelity chains the analytic Werner recurrences: the raw link
// fidelity is lifted by PurifyRounds BBPSSW steps, then folded across
// the chain with one SwapStep plus swap depolarization per merge.
func (c ChainConfig) predictFidelity() float64 {
	f := 1 - c.LinkEps
	for k := 0; k < c.PurifyRounds; k++ {
		f, _ = teleport.PurifyStep(f)
	}
	chain := f
	for i := 1; i < c.Links; i++ {
		chain = teleport.SwapStep(chain, f)
		chain = teleport.Depolarize(chain, c.SwapEps)
	}
	return chain
}

// ResourceCurve measures raw-pair consumption against purification
// depth at fixed link noise — the doubling-per-round cost that makes
// end-to-end purification over long, lossy channels untenable and
// repeater islands necessary (the paper's "exponential resource
// overhead" argument).
func ResourceCurve(linkEps float64, maxRounds, trials int, seed uint64) ([]ChainResult, error) {
	out := make([]ChainResult, 0, maxRounds+1)
	for k := 0; k <= maxRounds; k++ {
		r, err := RunChainCtx(context.Background(), ChainConfig{
			Links: 1, LinkEps: linkEps, PurifyRounds: k,
			Trials: trials, Seed: seed + uint64(k),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// NaiveVsRepeater contrasts the two long-distance strategies at equal
// total channel noise: the naive approach stretches one pair across the
// whole distance (link noise grows with distance, purification from a
// poor starting fidelity); the repeater approach splits the distance
// into links of modest noise and swaps. Both run on the full backend.
type NaiveVsRepeater struct {
	Naive, Repeater ChainResult
}

// CompareStrategiesCtx runs both strategies over a channel whose
// per-link depolarization is perLinkEps and which the repeater splits
// into links equal segments. The naive strategy sees the accumulated
// noise 1-(1-perLinkEps)^links on its single stretched pair. Both runs
// honor ctx, fan out over parallelism workers (0 means GOMAXPROCS) and
// use backend (empty means BackendBatch).
func CompareStrategiesCtx(ctx context.Context, perLinkEps float64, links, purifyRounds, trials int, seed uint64, parallelism int, backend string) (NaiveVsRepeater, error) {
	accum := 1.0
	for i := 0; i < links; i++ {
		accum *= 1 - perLinkEps
	}
	naiveEps := 1 - accum
	if naiveEps >= 0.5 {
		naiveEps = 0.499999 // the pair is fully depolarized; clamp for the run
	}
	naive, err := RunChainCtx(ctx, ChainConfig{
		Links: 1, LinkEps: naiveEps, PurifyRounds: purifyRounds,
		Trials: trials, Seed: seed, Parallelism: parallelism, Backend: backend,
	})
	if err != nil {
		return NaiveVsRepeater{}, err
	}
	rep, err := RunChainCtx(ctx, ChainConfig{
		Links: links, LinkEps: perLinkEps, PurifyRounds: purifyRounds,
		Trials: trials, Seed: seed + 1, Parallelism: parallelism, Backend: backend,
	})
	if err != nil {
		return NaiveVsRepeater{}, err
	}
	return NaiveVsRepeater{Naive: naive, Repeater: rep}, nil
}
