package codes

import (
	"fmt"
	"math/rand/v2"

	"qla/internal/pauli"
)

// Monte Carlo backends.
const (
	// BackendBatch is the bit-sliced engine (mcbatch.go): 64 trials per
	// uint64 word, the default (an empty backend selects it).
	BackendBatch = "batch"
	// BackendScalar draws one Pauli error at a time on pauli.String
	// arithmetic — the reference oracle.
	BackendScalar = "scalar"
)

// MCResult is one code-performance Monte Carlo outcome.
type MCResult struct {
	// Code names the measured code.
	Code string
	// PhysError is the per-qubit depolarizing probability applied.
	PhysError float64
	// Trials is the sample count.
	Trials int
	// LogicalFailures counts trials where the decoded residual was a
	// non-trivial logical operator.
	LogicalFailures int
	// LogicalRate is LogicalFailures/Trials.
	LogicalRate float64
	// Backend records the Monte Carlo engine that produced the row
	// ("batch" or "scalar"); the two draw different random streams and
	// agree statistically.
	Backend string `json:"Backend,omitempty"`
}

// MonteCarloLogicalErrorBackend measures the logical failure rate of a
// code under i.i.d. per-qubit depolarizing noise with probability p,
// using the weight-t syndrome-table decoder: each trial draws an
// error, decodes its syndrome, and counts failure when error·correction
// is a non-trivial logical.
//
// The error arithmetic runs on Pauli algebra directly (errors compose
// as Pauli products and success is membership of the residual in the
// stabilizer group), which is exactly the Monte Carlo the QLA paper's
// Figure-7 threshold machinery performs at circuit level — here
// distilled to the code layer so the catalog codes can be compared on
// equal footing: distance-3 codes suppress to O(p²) while the
// repetition codes keep an O(p) channel open.
//
// backend selects the engine: BackendBatch (the default when empty)
// packs 64 trials per uint64 word and runs the syndrome and
// stabilizer-membership arithmetic bit-sliced; BackendScalar is the
// one-trial-at-a-time reference. The two draw different random streams
// from the same seed, so they agree statistically, not bit-for-bit.
func MonteCarloLogicalErrorBackend(c *Code, p float64, trials int, seed uint64, backend string) (MCResult, error) {
	if p < 0 || p > 1 {
		return MCResult{}, fmt.Errorf("codes: depolarizing probability %g outside [0,1]", p)
	}
	if trials <= 0 {
		return MCResult{}, fmt.Errorf("codes: trials must be positive")
	}
	t := (c.D - 1) / 2
	if t < 1 {
		t = 1 // repetition codes still get their best-effort decoder
	}
	dec, err := NewDecoder(c, t)
	if err != nil {
		return MCResult{}, err
	}
	res := MCResult{Code: c.Name, PhysError: p, Trials: trials}
	switch backend {
	case "", BackendBatch:
		res.Backend = BackendBatch
		res.LogicalFailures = mcBatch(c, dec, p, trials, seed)
	case BackendScalar:
		res.Backend = BackendScalar
		res.LogicalFailures = mcScalar(c, dec, p, trials, seed)
	default:
		return MCResult{}, fmt.Errorf("codes: unknown backend %q (want %q or %q)",
			backend, BackendBatch, BackendScalar)
	}
	res.LogicalRate = float64(res.LogicalFailures) / float64(trials)
	return res, nil
}

// mcScalar is the one-trial-at-a-time reference backend.
func mcScalar(c *Code, dec *Decoder, p float64, trials int, seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, seed^0x10c1ca1))
	failures := 0
	for i := 0; i < trials; i++ {
		e := pauli.NewIdentity(c.N)
		hit := false
		for q := 0; q < c.N; q++ {
			if rng.Float64() < p {
				e.Set(q, "XYZ"[rng.IntN(3)])
				hit = true
			}
		}
		if !hit {
			continue
		}
		corr, ok := dec.Lookup(c.SyndromeOf(e))
		if !ok {
			failures++ // syndrome beyond the decoder's budget
			continue
		}
		residual := e.Mul(corr)
		if !residual.IsIdentity() && !c.IsStabilizer(residual) {
			failures++
		}
	}
	return failures
}

// MonteCarloSweepBackend measures every catalog code at each physical
// error rate on backend (empty means BackendBatch) — the code-layer
// analogue of the paper's Figure 7.
func MonteCarloSweepBackend(physErrors []float64, trials int, seed uint64, backend string) ([]MCResult, error) {
	var out []MCResult
	for i, c := range All() {
		for j, p := range physErrors {
			r, err := MonteCarloLogicalErrorBackend(c, p, trials, seed+uint64(i*1000+j), backend)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
