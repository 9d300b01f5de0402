package teleport

import (
	"math/rand/v2"

	"qla/internal/stabilizer"
)

// PurifyResult reports one Monte Carlo BBPSSW experiment.
type PurifyResult struct {
	Trials        int
	RawGood       int // raw pairs passing the Bell test
	PurifiedGood  int // post-selected purified pairs passing
	Accepted      int // purification acceptances
	RawFidelity   float64
	PurifiedFid   float64
	AcceptanceFrc float64
}

// MonteCarloPurify estimates, by stabilizer-circuit sampling, the fidelity
// improvement of one BBPSSW round on pairs subjected to independent
// depolarization with probability eps per half. It demonstrates on the
// full quantum backend the same recurrence the Figure-9 link model applies
// analytically.
func MonteCarloPurify(eps float64, trials int, seed uint64) PurifyResult {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	res := PurifyResult{Trials: trials}

	depolarize := func(s *stabilizer.State, q int) {
		if rng.Float64() < eps {
			switch rng.IntN(3) {
			case 0:
				s.X(q)
			case 1:
				s.Y(q)
			default:
				s.Z(q)
			}
		}
	}
	bellTest := func(s *stabilizer.State, a, b int) bool {
		// |Φ+⟩ is the unique +1 eigenstate of XX and ZZ: measure both
		// stabilizers destructively and accept only ++.
		s.CNOT(a, b)
		s.H(a)
		return s.Measure(a) == 0 && s.Measure(b) == 0
	}

	for i := 0; i < trials; i++ {
		// Raw-pair fidelity estimate.
		s := stabilizer.NewWithRand(2, rand.New(rand.NewPCG(uint64(i), seed)))
		s.H(0)
		s.CNOT(0, 1)
		depolarize(s, 0)
		depolarize(s, 1)
		if bellTest(s, 0, 1) {
			res.RawGood++
		}

		// Purified-pair estimate: two noisy pairs (0,1) and (2,3); BBPSSW
		// keeps (0,1) when the parity measurements agree.
		s = stabilizer.NewWithRand(4, rand.New(rand.NewPCG(uint64(i)^0xabcd, seed)))
		s.H(0)
		s.CNOT(0, 1)
		s.H(2)
		s.CNOT(2, 3)
		for q := 0; q < 4; q++ {
			depolarize(s, q)
		}
		// Bilateral CNOTs, measure the sacrificial pair in Z.
		s.CNOT(0, 2)
		s.CNOT(1, 3)
		if s.Measure(2) == s.Measure(3) {
			res.Accepted++
			if bellTest(s, 0, 1) {
				res.PurifiedGood++
			}
		}
	}
	res.RawFidelity = float64(res.RawGood) / float64(trials)
	if res.Accepted > 0 {
		res.PurifiedFid = float64(res.PurifiedGood) / float64(res.Accepted)
	}
	res.AcceptanceFrc = float64(res.Accepted) / float64(trials)
	return res
}

// EntanglementSwap performs one repeater hop on the state: pairs (a1,a2)
// and (b1,b2) sharing a station holding a2 and b1 become one pair (a1,b2)
// by teleporting a2's half through (b1,b2) with classical corrections.
func EntanglementSwap(s *stabilizer.State, a2, b1, b2 int) {
	s.CNOT(a2, b1)
	s.H(a2)
	m0 := s.Measure(a2)
	m1 := s.Measure(b1)
	if m1 == 1 {
		s.X(b2)
	}
	if m0 == 1 {
		s.Z(b2)
	}
}
