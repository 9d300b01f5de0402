package teleport

import (
	"math"
	"testing"
)

func TestPurifyStepImproves(t *testing.T) {
	for _, f := range []float64{0.55, 0.7, 0.9, 0.99} {
		fNew, ps := PurifyStep(f)
		if fNew <= f {
			t.Errorf("PurifyStep(%g) = %g, should improve", f, fNew)
		}
		if ps <= 0 || ps > 1 {
			t.Errorf("success probability %g outside (0,1]", ps)
		}
	}
}

func TestPurifyStepFixedPoints(t *testing.T) {
	// F=1 is a fixed point.
	f1, _ := PurifyStep(1)
	if math.Abs(f1-1) > 1e-12 {
		t.Errorf("PurifyStep(1) = %g", f1)
	}
	// Below 1/2 the map does not improve fidelity.
	low, _ := PurifyStep(0.4)
	if low > 0.4 {
		t.Errorf("PurifyStep(0.4) = %g improved below the boundary", low)
	}
	// Near 1 the error contracts by about 2/3 per round.
	f := 0.999
	fNew, _ := PurifyStep(f)
	ratio := (1 - fNew) / (1 - f)
	if math.Abs(ratio-2.0/3) > 0.02 {
		t.Errorf("asymptotic error contraction = %g, want ≈2/3", ratio)
	}
}

func TestSwapStep(t *testing.T) {
	// Perfect pairs swap perfectly.
	if f := SwapStep(1, 1); math.Abs(f-1) > 1e-12 {
		t.Errorf("SwapStep(1,1) = %g", f)
	}
	// Near 1 the errors add: 1-F' ≈ (1-F1) + (1-F2).
	f := SwapStep(0.999, 0.998)
	if e := 1 - f; math.Abs(e-0.003) > 2e-4 {
		t.Errorf("swap error = %g, want ≈0.003", e)
	}
	// Symmetric.
	if SwapStep(0.9, 0.7) != SwapStep(0.7, 0.9) {
		t.Error("SwapStep not symmetric")
	}
}

func TestDepolarize(t *testing.T) {
	if f := Depolarize(1, 0); f != 1 {
		t.Error("no-op depolarization changed fidelity")
	}
	if f := Depolarize(1, 1); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("full depolarization = %g, want 1/4", f)
	}
	if f := Depolarize(0.9, 0.1); f >= 0.9 || f <= 0.25 {
		t.Errorf("partial depolarization = %g out of range", f)
	}
}

func TestTransportFidelity(t *testing.T) {
	f0 := 0.99
	f100 := TransportFidelity(f0, 100, 1e-4)
	if f100 >= f0 {
		t.Error("transport should reduce fidelity")
	}
	// Roughly exponential decay toward 1/4.
	want := 0.25 + (f0-0.25)*math.Pow(1-1e-4, 100)
	if math.Abs(f100-want) > 1e-9 {
		t.Errorf("TransportFidelity = %g, want %g", f100, want)
	}
	if TransportFidelity(f0, 0, 1e-4) != f0 {
		t.Error("zero cells should be a no-op")
	}
}

func TestPurifyTo(t *testing.T) {
	plan := PurifyTo(0.9, 0.999, 40)
	if !plan.Converged {
		t.Fatal("purification from 0.9 to 0.999 should converge")
	}
	if plan.Fidelity < 0.999 {
		t.Errorf("final fidelity %g below target", plan.Fidelity)
	}
	if plan.Rounds < 5 {
		t.Errorf("%d rounds looks too optimistic for 0.9->0.999", plan.Rounds)
	}
	// Pair consumption at least doubles per round.
	if plan.RawPairs < math.Pow(2, float64(plan.Rounds)) {
		t.Errorf("raw pairs %g below 2^rounds", plan.RawPairs)
	}
	// Already above target: trivial plan.
	plan = PurifyTo(0.9995, 0.999, 40)
	if !plan.Converged || plan.Rounds != 0 || plan.RawPairs != 1 {
		t.Errorf("trivial plan = %+v", plan)
	}
	// Below the boundary: cannot converge.
	plan = PurifyTo(0.45, 0.9, 40)
	if plan.Converged {
		t.Error("purification below F=1/2 cannot converge")
	}
}

func TestSwapStages(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for links, want := range cases {
		if got := SwapStages(links); got != want {
			t.Errorf("SwapStages(%d) = %d, want %d", links, got, want)
		}
	}
}
