package teleport

import (
	"testing"
	"testing/quick"
)

// fidelityFrom maps arbitrary uint16 fuzz into a fidelity in (0.5, 1).
func fidelityFrom(raw uint16) float64 {
	return 0.5 + (float64(raw)+1)/65538.0*0.5
}

// Property: one purification round strictly improves any fidelity in
// (1/2, 1), and its success probability is a valid probability.
func TestQuickPurifyImproves(t *testing.T) {
	f := func(raw uint16) bool {
		fid := fidelityFrom(raw)
		if fid >= 1 {
			return true
		}
		next, ps := PurifyStep(fid)
		return next > fid && next <= 1 && ps > 0 && ps <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: entanglement swapping never produces a fidelity above either
// input (no free lunch) and stays a valid fidelity.
func TestQuickSwapNoFreeLunch(t *testing.T) {
	f := func(rawA, rawB uint16) bool {
		fa, fb := fidelityFrom(rawA), fidelityFrom(rawB)
		out := SwapStep(fa, fb)
		maxIn := fa
		if fb > maxIn {
			maxIn = fb
		}
		return out <= maxIn+1e-12 && out >= 0 && out <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: depolarization is a contraction toward 1/4 and transport
// fidelity decreases monotonically with distance.
func TestQuickTransportMonotone(t *testing.T) {
	f := func(raw uint16, cellsRaw uint8) bool {
		fid := fidelityFrom(raw)
		cells := int(cellsRaw) % 200
		eps := 1e-4
		shorter := TransportFidelity(fid, cells, eps)
		longer := TransportFidelity(fid, cells+10, eps)
		return longer <= shorter && longer >= 0.25-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PurifyTo's reported plan is self-consistent — the claimed
// fidelity is reproduced by iterating the recurrence Rounds times, and
// pair consumption is at least 2^Rounds.
func TestQuickPurifyToConsistent(t *testing.T) {
	f := func(raw uint16, targetRaw uint16) bool {
		fRaw := fidelityFrom(raw)
		fTarget := fidelityFrom(targetRaw)
		plan := PurifyTo(fRaw, fTarget, 60)
		check := fRaw
		for i := 0; i < plan.Rounds; i++ {
			check, _ = PurifyStep(check)
		}
		if diff := check - plan.Fidelity; diff > 1e-12 || diff < -1e-12 {
			return false
		}
		if plan.Converged && plan.Fidelity < fTarget {
			return false
		}
		pow := 1.0
		for i := 0; i < plan.Rounds; i++ {
			pow *= 2
		}
		return plan.RawPairs >= pow-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
