package layout

import (
	"fmt"
	"math"
)

// Yield modeling for Section 6 ("Computer Area"): "QLA offers an inherent
// redundancy within itself ... all logical qubits and channels are
// identical in both their structure and ability to support different
// functionalities. Defects can be diagnosed and masked out in software
// running on our classical control processor."
//
// The model: every tile is independently defective with probability
// defectProb; the floorplan provisions spare tiles so that the machine
// still fields its required logical-qubit count with probability at least
// yieldTarget.

// TileYield returns the probability that a single tile is usable given a
// per-cell defect probability (a tile needs all of its TilePitchCells
// cells functional).
func TileYield(cellDefectProb float64) float64 {
	if cellDefectProb < 0 || cellDefectProb > 1 {
		panic("layout: defect probability outside [0,1]")
	}
	return math.Pow(1-cellDefectProb, float64(TilePitchCells))
}

// SparesNeeded returns how many spare tiles must be provisioned beyond
// `required` so that P(usable ≥ required) ≥ yieldTarget when each tile
// works independently with probability tileYield. It uses a normal
// approximation with continuity correction, exact enough for the
// thousands-of-tiles regime the QLA lives in, and errs upward.
func SparesNeeded(required int, tileYield, yieldTarget float64) (int, error) {
	if required <= 0 {
		return 0, fmt.Errorf("layout: need a positive tile count")
	}
	if tileYield <= 0 || tileYield > 1 {
		return 0, fmt.Errorf("layout: tile yield %g outside (0,1]", tileYield)
	}
	if yieldTarget <= 0 || yieldTarget >= 1 {
		return 0, fmt.Errorf("layout: yield target %g outside (0,1)", yieldTarget)
	}
	if tileYield == 1 {
		return 0, nil
	}
	z := normalQuantile(yieldTarget)
	for spares := 0; ; spares++ {
		n := float64(required + spares)
		mean := n * tileYield
		sd := math.Sqrt(n * tileYield * (1 - tileYield))
		// P(usable >= required) with continuity correction.
		if mean-z*sd >= float64(required)+0.5 {
			return spares, nil
		}
		if spares > required*10 {
			return 0, fmt.Errorf("layout: yield %g too low to provision %d tiles", tileYield, required)
		}
	}
}

// normalQuantile computes the standard normal quantile by bisection on the
// complementary error function (stdlib-only, no statistics dependency).
func normalQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if normalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
