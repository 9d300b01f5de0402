// Package multichip models the multi-chip QLA systems the paper's
// Section 6 identifies as the way past fabrication limits: "the sheer
// sizes of the ion-trap chips required make the physical realization of
// such systems a considerable engineering challenge, which may be
// impractical for N > 128 with current single chip technology... a
// multi-chip solution for solving such large problems is desirable."
//
// Chips are tiled QLA floorplans bounded by a maximum edge length; the
// chips are joined by heralded photonic entanglement links (the
// Cabrillo/DLCZ/Blinov experiments the paper cites), whose raw pairs
// are purified to the interconnect's target fidelity. The model answers
// the paper's question quantitatively: how many chips does an N-bit
// factorization need, how many optical links per chip boundary keep the
// inter-chip traffic hidden under error correction, and what slowdown
// results when the link budget falls short.
package multichip

import (
	"fmt"
	"math"

	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/layout"
	"qla/internal/shor"
	"qla/internal/teleport"
)

// LinkParams characterizes one heralded photonic inter-chip link.
type LinkParams struct {
	// AttemptHz is the entanglement-attempt repetition rate.
	AttemptHz float64
	// SuccessProb is the heralding probability per attempt.
	SuccessProb float64
	// RawFidelity is the fidelity of a heralded pair.
	RawFidelity float64
	// TargetFidelity is the required post-purification fidelity
	// (matched to the on-chip interconnect's target).
	TargetFidelity float64
	// MaxPurifyRounds bounds the purification ladder.
	MaxPurifyRounds int
}

// DefaultLinkParams reflects mid-2000s trapped-ion/photon interfaces
// (probabilistic, MHz-class attempt rates, heralded fidelities near
// 0.9) with the QLA interconnect's delivery target.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		AttemptHz:       1e6,
		SuccessProb:     1e-3,
		RawFidelity:     0.92,
		TargetFidelity:  0.99,
		MaxPurifyRounds: 12,
	}
}

// Validate checks physical bounds.
func (lp LinkParams) Validate() error {
	switch {
	case lp.AttemptHz <= 0:
		return fmt.Errorf("multichip: attempt rate %g", lp.AttemptHz)
	case lp.SuccessProb <= 0 || lp.SuccessProb > 1:
		return fmt.Errorf("multichip: success probability %g", lp.SuccessProb)
	case lp.RawFidelity <= teleport.MinPurifiableFidelity || lp.RawFidelity > 1:
		return fmt.Errorf("multichip: raw fidelity %g not purifiable", lp.RawFidelity)
	case lp.TargetFidelity <= lp.RawFidelity && lp.TargetFidelity != lp.RawFidelity:
		return fmt.Errorf("multichip: target fidelity %g below raw %g", lp.TargetFidelity, lp.RawFidelity)
	case lp.TargetFidelity > 1:
		return fmt.Errorf("multichip: target fidelity %g", lp.TargetFidelity)
	case lp.MaxPurifyRounds <= 0:
		return fmt.Errorf("multichip: purify rounds %d", lp.MaxPurifyRounds)
	}
	return nil
}

// RawPairHz is the heralded raw-pair generation rate of one link.
func (lp LinkParams) RawPairHz() float64 { return lp.AttemptHz * lp.SuccessProb }

// PurifiedPairHz is the delivered-pair rate after the purification
// ladder consumes its expected raw-pair budget. An error is returned
// when the ladder cannot reach the target.
func (lp LinkParams) PurifiedPairHz() (float64, error) {
	if err := lp.Validate(); err != nil {
		return 0, err
	}
	plan := teleport.PurifyTo(lp.RawFidelity, lp.TargetFidelity, lp.MaxPurifyRounds)
	if !plan.Converged {
		return 0, fmt.Errorf("multichip: purification cannot reach %g from %g in %d rounds",
			lp.TargetFidelity, lp.RawFidelity, lp.MaxPurifyRounds)
	}
	return lp.RawPairHz() / plan.RawPairs, nil
}

// Partition is the multi-chip plan for one problem size.
type Partition struct {
	// N is the Shor modulus width in bits.
	N int
	// LogicalQubits is the total machine size.
	LogicalQubits int
	// Chips is the number of chips required under the edge limit.
	Chips int
	// QubitsPerChip is the per-chip logical capacity used.
	QubitsPerChip int
	// ChipEdgeCM is the per-chip edge after partitioning.
	ChipEdgeCM float64
	// MonolithicEdgeCM is the single-chip edge the partition avoids.
	MonolithicEdgeCM float64
	// BoundaryDemandHz is the EPR-pair demand per chip boundary needed
	// to keep inter-chip gates overlapped with error correction.
	BoundaryDemandHz float64
	// LinksPerBoundary is the optical-link count meeting that demand.
	LinksPerBoundary int
	// Overlapped reports whether the demand is met within MaxLinks.
	Overlapped bool
	// Slowdown is the algorithm-level stretch factor when links cap
	// out (1.0 when fully overlapped).
	Slowdown float64
}

// BoundaryBandwidthPairs is the inter-chip analogue of the paper's
// on-chip result that channel bandwidth 2 fully overlaps communication
// with error correction: each chip boundary must sustain two EPR
// deliveries per level-2 EC step.
const BoundaryBandwidthPairs = 2

// Plan partitions an N-bit factorization machine across chips with the
// given maximum edge, and sizes the photonic links per boundary.
// maxLinks caps the links available per boundary (0 means unlimited).
func Plan(nBits int, maxEdgeCM float64, maxLinks int, lp LinkParams, p iontrap.Params) (Partition, error) {
	if maxEdgeCM <= 0 {
		return Partition{}, fmt.Errorf("multichip: non-positive edge limit")
	}
	res, err := shor.Estimate(nBits, p)
	if err != nil {
		return Partition{}, err
	}
	mono, err := layout.NewFloorplan(res.LogicalQubits)
	if err != nil {
		return Partition{}, err
	}
	part := Partition{
		N:                nBits,
		LogicalQubits:    res.LogicalQubits,
		MonolithicEdgeCM: mono.EdgeCM(),
	}

	// Area-based partitioning: chips hold equal shares; the per-chip
	// floorplan must respect the edge limit.
	maxAreaM2 := (maxEdgeCM / 100) * (maxEdgeCM / 100)
	chips := int(math.Ceil(mono.AreaM2() / maxAreaM2))
	if chips < 1 {
		chips = 1
	}
	for {
		perChip := (res.LogicalQubits + chips - 1) / chips
		f, err := layout.NewFloorplan(perChip)
		if err != nil {
			return Partition{}, err
		}
		if f.EdgeCM() <= maxEdgeCM || chips > res.LogicalQubits {
			part.Chips = chips
			part.QubitsPerChip = perChip
			part.ChipEdgeCM = f.EdgeCM()
			break
		}
		chips++
	}

	// Boundary traffic: BoundaryBandwidthPairs per level-2 EC step.
	ecStep := ft.NewLatencyModel(p).ECTime(2)
	part.BoundaryDemandHz = BoundaryBandwidthPairs / ecStep

	supply, err := lp.PurifiedPairHz()
	if err != nil {
		return Partition{}, err
	}
	links := int(math.Ceil(part.BoundaryDemandHz / supply))
	if links < 1 {
		links = 1
	}
	part.LinksPerBoundary = links
	part.Overlapped = maxLinks <= 0 || links <= maxLinks
	part.Slowdown = 1
	if !part.Overlapped {
		// Communication stretches each EC window by the supply gap.
		part.Slowdown = part.BoundaryDemandHz / (supply * float64(maxLinks))
		part.LinksPerBoundary = maxLinks
	}
	return part, nil
}
