// Package teleport implements the QLA communication substrate: EPR-pair
// fidelity algebra on Werner states (Bennett/BBPSSW entanglement
// purification and entanglement swapping, after Dür et al.), the repeater
// link model behind Figure 9's connection-time analysis, and the
// purification and swapping circuits themselves, executable on the
// stabilizer backend.
package teleport

import "fmt"

// MinPurifiableFidelity is the BBPSSW convergence boundary: pairs at or
// below fidelity 1/2 cannot be purified.
const MinPurifiableFidelity = 0.5

// PurifyStep applies one round of the Bennett (BBPSSW) recurrence to two
// Werner pairs of fidelity f, returning the post-selected fidelity and the
// success probability:
//
//	F' = (F² + ((1-F)/3)²) / (F² + 2F(1-F)/3 + 5((1-F)/3)²)
//
// The recurrence improves F only for F > 1/2.
func PurifyStep(f float64) (fNew, pSuccess float64) {
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("teleport: fidelity %g outside [0,1]", f))
	}
	e := (1 - f) / 3
	num := f*f + e*e
	den := f*f + 2*f*e + 5*e*e
	return num / den, den
}

// SwapStep returns the fidelity of the Werner pair obtained by entanglement
// swapping two Werner pairs of fidelities f1 and f2 with a perfect Bell
// measurement:
//
//	F' = F1·F2 + (1-F1)(1-F2)/3.
func SwapStep(f1, f2 float64) float64 {
	return f1*f2 + (1-f1)*(1-f2)/3
}

// Depolarize mixes a Werner pair toward the maximally mixed state with
// probability eps (the noise of one repeater operation): F -> (1-eps)F + eps/4.
func Depolarize(f, eps float64) float64 {
	return (1-eps)*f + eps/4
}

// TransportFidelity applies cells steps of per-cell depolarization to a
// pair in transit.
func TransportFidelity(f float64, cells int, epsPerCell float64) float64 {
	for i := 0; i < cells; i++ {
		f = Depolarize(f, epsPerCell)
	}
	return f
}

// PurifyPlan is the outcome of planning a purification ladder.
type PurifyPlan struct {
	Rounds    int     // serial BBPSSW rounds
	Fidelity  float64 // fidelity reached
	RawPairs  float64 // expected raw pairs consumed (2/Ps per round)
	Converged bool    // whether the target was reached within MaxRounds
}

// PurifyTo iterates BBPSSW from fRaw until the fidelity reaches fTarget or
// maxRounds is exhausted, tracking the expected raw-pair consumption
// n(k) = 2·n(k-1)/Ps(k).
func PurifyTo(fRaw, fTarget float64, maxRounds int) PurifyPlan {
	plan := PurifyPlan{Fidelity: fRaw, RawPairs: 1}
	if fRaw >= fTarget {
		plan.Converged = true
		return plan
	}
	if fRaw <= MinPurifiableFidelity {
		return plan
	}
	f := fRaw
	pairs := 1.0
	for r := 1; r <= maxRounds; r++ {
		fNew, ps := PurifyStep(f)
		if fNew <= f {
			// Fixed point reached below target; no further progress.
			break
		}
		pairs = 2 * pairs / ps
		f = fNew
		plan.Rounds = r
		plan.Fidelity = f
		plan.RawPairs = pairs
		if f >= fTarget {
			plan.Converged = true
			return plan
		}
	}
	return plan
}

// SwapStages returns the number of dyadic swapping stages needed to span
// links links (⌈log2 links⌉; 0 for a single link).
func SwapStages(links int) int {
	if links <= 0 {
		panic("teleport: link count must be positive")
	}
	s := 0
	for (1 << s) < links {
		s++
	}
	return s
}
