package teleport

import (
	"testing"

	"qla/internal/pauli"
	"qla/internal/stabilizer"
)

func TestEntanglementSwapChain(t *testing.T) {
	// Build a chain of 4 Bell pairs across 8 qubits and swap them down to
	// a single end-to-end pair; verify it is a Bell pair.
	for seed := uint64(1); seed <= 30; seed++ {
		s := stabilizer.NewSeeded(8, seed)
		for i := 0; i < 4; i++ {
			s.H(2 * i)
			s.CNOT(2*i, 2*i+1)
		}
		// Swap at stations (1,2), then (3,4), then (5,6): each merges the
		// leftmost pair with the next.
		EntanglementSwap(s, 1, 2, 3) // pair (0,3)
		EntanglementSwap(s, 3, 4, 5) // pair (0,5)
		EntanglementSwap(s, 5, 6, 7) // pair (0,7)
		if e := s.Expectation(pauli.MustParse("+XX").Embed(8, []int{0, 7})); e != 1 {
			t.Fatalf("seed %d: end-to-end pair fails XX test (%d)", seed, e)
		}
		if e := s.Expectation(pauli.MustParse("+ZZ").Embed(8, []int{0, 7})); e != 1 {
			t.Fatalf("seed %d: end-to-end pair fails ZZ test (%d)", seed, e)
		}
	}
}

func TestMonteCarloPurifyImprovesFidelity(t *testing.T) {
	res := MonteCarloPurify(0.15, 4000, 11)
	if res.RawFidelity > 0.95 {
		t.Fatalf("raw fidelity %.3f too high for eps=0.15; test not probing anything", res.RawFidelity)
	}
	if res.PurifiedFid <= res.RawFidelity {
		t.Errorf("purification did not help: raw %.3f, purified %.3f", res.RawFidelity, res.PurifiedFid)
	}
	if res.AcceptanceFrc <= 0.4 || res.AcceptanceFrc > 1 {
		t.Errorf("acceptance fraction %.3f implausible", res.AcceptanceFrc)
	}
}

func TestMonteCarloPurifyCleanPairs(t *testing.T) {
	res := MonteCarloPurify(0, 300, 12)
	if res.RawFidelity != 1 || res.PurifiedFid != 1 || res.AcceptanceFrc != 1 {
		t.Errorf("noiseless purification should be perfect: %+v", res)
	}
}
