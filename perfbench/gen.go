package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"qla/internal/engine"
)

// Input sizes. On a two-core machine a cold figure7 run of coldTrials
// level-1 trials takes about 25 ms, and a cold sweep of sweepPoints
// points of pointTrials each settles in under 100 ms.
const (
	hotSetSize = 160 // distinct specs in the run-hot working set
	// The working set's figure7 family is a trials × seeds grid that
	// hot sweeps cover whole, in a new axis order each time.
	hotSweepSeeds  = 16
	hotSweepTrials = 8
	coldTrials     = 6400
	pointTrials    = 3200
	sweepPoints    = 8
	// coldError is the one physical error rate of every cold spec,
	// near the Figure 7 threshold. The cost of a trial depends on it, so
	// it is fixed: seeds vary what is computed, never how much.
	coldError = 3e-3

	// Seeds of the cold runs and of the cold sweep points come from
	// disjoint ranges, so no run ever hits a point's cache entry.
	sweepSeedOffset = 1 << 22
)

// runOp is one POST /v1/run request with what its response must show.
type runOp struct {
	body []byte
	hash string // engine.SpecHash of the spec: the expected X-Spec-Hash
	// hot marks a primed spec: the response must be a memory hit whose
	// bytes equal want, the bytes the priming request returned.
	hot  bool
	want []byte
	spec engine.Spec
	// index is the op's position in its generated sequence; the
	// deterministic output sample picks by it.
	index int
}

// sweepOp is one POST /v1/sweeps submission.
type sweepOp struct {
	body   []byte
	points int
	specs  []engine.Spec // the point specs, in sweep order
	index  int
	// hot marks a sweep whose every point is in the primed working set:
	// every point must replay cached bytes.
	hot bool
	// peerTier marks a fleet sweep: points a peer computed arrive
	// through the peer cache tier, so cached points are expected.
	peerTier bool
}

// inputs holds everything a workload sends, derived from the workload
// seed alone: the same seed gives byte-identical request bodies.
type inputs struct {
	seed uint64
	// base is the first Monte Carlo seed of this workload seed's cold
	// specs (kept below 2^53 so JSON numbers carry it exactly).
	base uint64
	hot  []*runOp
	// hotByHash indexes the working set for sweep-point checks.
	hotByHash map[string]*runOp
	hotFamily hotSweepTemplate
	// hotPerms hands out each ordering of the hot sweep's axes once, so
	// every hot sweep is a new job over cached points.
	hotPerms *rand.Rand
	seenPerm map[string]bool
}

// hotSweepTemplate is the figure7 family of the working set that hot
// sweeps are built from.
type hotSweepTemplate struct {
	physError float64
	trials    []int
	seeds     []uint64
}

func newInputs(seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	in := &inputs{
		seed:      seed,
		base:      (seed%(1<<20))<<24 | 1,
		hotByHash: map[string]*runOp{},
		hotPerms:  rand.New(rand.NewPCG(seed, 0x51ed27)),
		seenPerm:  map[string]bool{},
	}
	in.hotFamily = hotSweepTemplate{physError: pick(rng, []float64{1e-3, 1.5e-3, 2e-3})}
	for k := 0; k < hotSweepTrials; k++ {
		in.hotFamily.trials = append(in.hotFamily.trials, 64*(1+k))
	}
	for len(in.hotFamily.seeds) < hotSweepSeeds {
		s := 1 + rng.Uint64N(1<<40)
		if !slices.Contains(in.hotFamily.seeds, s) {
			in.hotFamily.seeds = append(in.hotFamily.seeds, s)
		}
	}
	for _, t := range in.hotFamily.trials {
		for _, s := range in.hotFamily.seeds {
			if _, err := in.addHot(figure7Spec(in.hotFamily.physError, t, s)); err != nil {
				return nil, err
			}
		}
	}
	// The rest of the set takes its templates in turn, so every seed
	// gives the same mix of experiments; the seed draws their parameters.
	for k := 0; len(in.hot) < hotSetSize; {
		added, err := in.addHot(hotSpec(rng, k%hotTemplates))
		if err != nil {
			return nil, err
		}
		if added {
			k++
		}
	}
	// The cold specs differ from this one only in their seeds.
	if _, err := newRunOp(figure7Spec(coldError, coldTrials, in.base)); err != nil {
		return nil, err
	}
	// Interleave the figure7 family with the rest so the closed loop
	// mixes experiments evenly.
	rng.Shuffle(len(in.hot), func(i, j int) { in.hot[i], in.hot[j] = in.hot[j], in.hot[i] })
	return in, nil
}

// addHot adds spec to the working set unless an equivalent spec (same
// content address) is already there.
func (in *inputs) addHot(spec engine.Spec) (bool, error) {
	op, err := newRunOp(spec)
	if err != nil {
		return false, err
	}
	if _, dup := in.hotByHash[op.hash]; dup {
		return false, nil
	}
	op.hot = true
	in.hot = append(in.hot, op)
	in.hotByHash[op.hash] = op
	return true, nil
}

func newRunOp(spec engine.Spec) (*runOp, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	// Hash the decoded wire form, exactly as the server will see it.
	wire, err := engine.DecodeSpec(body)
	if err != nil {
		return nil, err
	}
	hash, err := engine.SpecHash(wire)
	if err != nil {
		return nil, fmt.Errorf("generated spec %s: %w", body, err)
	}
	return &runOp{body: body, hash: hash, spec: wire}, nil
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

func figure7Spec(physError float64, trials int, seed uint64) engine.Spec {
	return engine.Spec{Experiment: "figure7", Params: engine.Params{
		"phys-errors": []float64{physError}, "trials": trials, "seed": seed, "backend": "batch",
	}}
}

// hotTemplates is the number of experiment templates hotSpec draws from.
const hotTemplates = 7

// hotSpec draws one working-set spec from template k: deterministic
// analyses and small Monte Carlos from several experiments, with
// response bodies from a few hundred bytes to a few kilobytes.
func hotSpec(rng *rand.Rand, k int) engine.Spec {
	paramSet := pick(rng, []string{"expected", "current"})
	switch k {
	case 0:
		return engine.Spec{Experiment: "ec-latency", Machine: engine.MachineSpec{
			ParamSet: paramSet, Level: 1 + rng.IntN(3), Bandwidth: 1 + rng.IntN(4)}}
	case 1:
		return engine.Spec{Experiment: "equation2", Machine: engine.MachineSpec{ParamSet: paramSet},
			Params: engine.Params{"pth": pick(rng, []float64{1e-4, 2e-4, 5e-4, 1e-3}), "level": 1 + rng.IntN(4)}}
	case 2:
		return engine.Spec{Experiment: "shor", Machine: engine.MachineSpec{ParamSet: paramSet},
			Params: engine.Params{"n-bits": pick(rng, []int{32, 64, 128, 256, 512, 1024})}}
	case 3:
		widths := []int{4, 8}
		for _, w := range []int{16, 32, 64, 128} {
			if rng.IntN(2) == 0 {
				widths = append(widths, w)
			}
		}
		return engine.Spec{Experiment: "compare-adders", Params: engine.Params{"widths": widths, "with-modular": rng.IntN(2) == 0}}
	case 4:
		return engine.Spec{Experiment: "figure9", Params: engine.Params{"distances": []int{1000 * (1 + rng.IntN(30))}}}
	case 5:
		return engine.Spec{Experiment: "run-chain", Params: engine.Params{
			"links": 1 + rng.IntN(4), "trials": 64 * (2 + rng.IntN(5)), "seed": 1 + rng.Uint64N(1<<40)}}
	default:
		return figure7Spec(pick(rng, []float64{5e-4, 1e-3, 2e-3, 3e-3, 4e-3}), 64*(1+rng.IntN(6)), 1+rng.Uint64N(1<<40))
	}
}

// coldRun is the i-th never-seen figure7 run of this seed.
func (in *inputs) coldRun(i int) *runOp {
	op, err := newRunOp(figure7Spec(coldError, coldTrials, in.base+uint64(i)))
	if err != nil {
		panic(err) // newInputs checked that cold figure7 specs canonicalize
	}
	op.index = i
	return op
}

// coldSweep is the i-th never-seen figure7 sweep: sweepPoints points
// along the seed axis, disjoint from every cold run.
func (in *inputs) coldSweep(i int) *sweepOp {
	seeds := make([]uint64, sweepPoints)
	for j := range seeds {
		seeds[j] = in.base + sweepSeedOffset + uint64(i*sweepPoints+j)
	}
	op := sweepBody(coldError, []int{pointTrials}, seeds)
	op.index = i
	return op
}

// hotSweep is a new sweep over the working set's figure7 family: an
// ordering of its two axes not handed out before, so the sweep is a new
// job (its content address differs) whose points are all cached.
func (in *inputs) hotSweep() *sweepOp {
	trials := slices.Clone(in.hotFamily.trials)
	seeds := slices.Clone(in.hotFamily.seeds)
	for {
		in.hotPerms.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
		in.hotPerms.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		key := fmt.Sprint(trials, seeds)
		if !in.seenPerm[key] {
			in.seenPerm[key] = true
			break
		}
	}
	op := sweepBody(in.hotFamily.physError, trials, seeds)
	op.hot = true
	return op
}

// sweepBody builds a figure7 sweep over the seed axis and, with more
// than one trials value, a trials axis before it.
func sweepBody(physError float64, trials []int, seeds []uint64) *sweepOp {
	base := figure7Spec(physError, trials[0], 0)
	delete(base.Params, "seed")
	axes := []map[string]any{{"field": "params.seed", "values": seeds}}
	if len(trials) > 1 {
		delete(base.Params, "trials")
		axes = append([]map[string]any{{"field": "params.trials", "values": trials}}, axes...)
	}
	// Row-major, the last axis fastest: the order the sweep expands in.
	op := &sweepOp{}
	for _, t := range trials {
		for _, s := range seeds {
			op.specs = append(op.specs, figure7Spec(physError, t, s))
		}
	}
	op.points = len(op.specs)
	body, err := json.Marshal(map[string]any{"base": base, "axes": axes})
	if err != nil {
		panic(err) // plain maps, slices and numbers always marshal
	}
	op.body = body
	return op
}
