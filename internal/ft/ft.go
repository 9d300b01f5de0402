// Package ft implements the fault-tolerance analysis of the QLA paper:
//
//   - Equation 1: the recursive error-correction latency model over the
//     Figure-6 Steane [[7,1,3]] circuit, evaluated with Table-1 component
//     times (Section 4.1.1: ≈0.003 s at level 1 and ≈0.043 s at level 2);
//   - Equation 2: Gottesman's local-architecture failure-rate estimate,
//     used to size the recursion level (Section 4.1.2: level 2 yields
//     P_f ≈ 1.0×10⁻¹⁶, i.e. a computer of S ≈ 9.9×10¹⁵ elementary steps);
//   - the fault-tolerant Toffoli cost model (Section 5: 15 EC steps of
//     ancilla preparation + 6 EC steps to finish the gate).
package ft

import (
	"fmt"
	"math"

	"qla/internal/iontrap"
	"qla/internal/layout"
)

// Threshold constants quoted by the paper.
const (
	// PthLocal is the Steane-code threshold accounting for movement and
	// gates on a local architecture (Svore, Terhal, DiVincenzo).
	PthLocal = 7.5e-5
	// PthEmpiricalQLA is the paper's measured pseudo-threshold for the QLA
	// logical qubit: (2.1 ± 1.8)×10⁻³.
	PthEmpiricalQLA = 2.1e-3
)

// Toffoli gate cost in error-correction steps (Section 5).
const (
	ToffoliPrepECSteps   = 15
	ToffoliFinishECSteps = 6
	// ToffoliECSteps is the total EC steps charged per Toffoli on the
	// modular-exponentiation critical path (ancilla prep overlaps the
	// previous Toffoli except when operands share ancilla, so the paper
	// charges all 21).
	ToffoliECSteps = ToffoliPrepECSteps + ToffoliFinishECSteps
)

// GottesmanFailure evaluates Equation 2: the failure probability of a
// level-L logical gate on a local architecture,
//
//	P_f(L) = (p_th / r^L) · (p0/p_th)^(2^L),
//
// where p0 is the physical component failure rate, p_th the threshold and
// r the communication distance between level-1 blocks in cells.
func GottesmanFailure(p0, pth, r float64, level int) float64 {
	if level < 0 {
		panic("ft: negative recursion level")
	}
	if p0 <= 0 || pth <= 0 || r <= 0 {
		panic("ft: non-positive parameter in Equation 2")
	}
	return pth / math.Pow(r, float64(level)) * math.Pow(p0/pth, math.Pow(2, float64(level)))
}

// MaxSystemSize returns S = K·Q = 1/P_f, the largest computation (in
// elementary steps × logical qubits) executable at the given logical
// failure rate.
func MaxSystemSize(pf float64) float64 {
	if pf <= 0 {
		return math.Inf(1)
	}
	return 1 / pf
}

// RequiredLevel returns the smallest recursion level whose Equation-2
// failure rate supports a computation of size s, or an error when p0 is at
// or above threshold (no level suffices).
func RequiredLevel(p0, pth, r, s float64) (int, error) {
	if p0 >= pth {
		return 0, fmt.Errorf("ft: p0 = %g is not below threshold %g", p0, pth)
	}
	for level := 0; level <= 10; level++ {
		if MaxSystemSize(GottesmanFailure(p0, pth, r, level)) >= s {
			return level, nil
		}
	}
	return 0, fmt.Errorf("ft: no recursion level up to 10 reaches size %g", s)
}

// LatencyModel evaluates Equation 1 over the concrete Figure-6 circuit
// structure with Table-1 component times. Structural assumptions (see
// DESIGN.md §6):
//
//   - physical operations within one level-1 block are serial (one
//     addressing beam per block); transversal operations on distinct
//     blocks run in parallel;
//   - each block has MeasureParallelism simultaneous readout channels;
//   - ancilla verification follows the Figure-6 lower circuit: encode,
//     copy onto verification ions, read them out;
//   - at level L ≥ 2 every logical encoder gate is followed by level-(L-1)
//     error correction of the touched blocks (the fault-tolerance rule),
//     and X/Z syndromes extract in parallel on the two ancilla
//     conglomerations, repeated twice for the two-successive-agreeing-
//     syndromes rule; at level 1 the single ancilla block serializes X
//     then Z instead. Both cases give Equation 1's T_ecc = 2·T_synd.
type LatencyModel struct {
	P iontrap.Params

	// MeasureParallelism is the number of simultaneous ion readouts per
	// level-1 block (default 2).
	MeasureParallelism int

	// EncoderCNOTStages is the ASAP depth of the [[7,1,3]] encoder's CNOT
	// schedule (the steane.EncodeZero circuit has 5 CNOT layers after the
	// Hadamard layer).
	EncoderCNOTStages int

	// NonTrivialRate[L] is the probability that a level-L syndrome
	// extraction is non-trivial, triggering Equation 1's repeat branch.
	// Defaults are the paper's measured rates (Section 4.1.1).
	NonTrivialRate map[int]float64
}

// NewLatencyModel returns the model with the paper's structural defaults
// over the given technology parameters.
func NewLatencyModel(p iontrap.Params) *LatencyModel {
	return &LatencyModel{
		P:                  p,
		MeasureParallelism: 2,
		EncoderCNOTStages:  5,
		NonTrivialRate: map[int]float64{
			1: 3.35e-4,
			2: 7.92e-4,
		},
	}
}

// PhysGate2Intra is the cost of one physical two-qubit gate inside a
// block: split, shuttle a couple of cells, gate.
func (m *LatencyModel) PhysGate2Intra() float64 {
	mv := layout.IntraBlockGateMove()
	return m.P.MoveTime(mv.Cells, mv.Corners) + m.P.Time[iontrap.OpDouble]
}

// PhysGate2Inter is the cost of one physical two-qubit gate between
// neighbouring blocks: split, shuttle r = 12 cells with up to two turns,
// gate.
func (m *LatencyModel) PhysGate2Inter() float64 {
	mv := layout.InterBlockGateMove()
	return m.P.MoveTime(mv.Cells, mv.Corners) + m.P.Time[iontrap.OpDouble]
}

// Readout is the time to measure the 7 ions of one block with the model's
// readout parallelism (blocks read out in parallel with each other).
func (m *LatencyModel) Readout() float64 {
	per := (7 + m.MeasureParallelism - 1) / m.MeasureParallelism
	return float64(per) * m.P.Time[iontrap.OpMeasure]
}

// TransversalGate1 is a logical one-qubit gate at any level ≥ 1: seven
// serial physical gates within each block, blocks in parallel.
func (m *LatencyModel) TransversalGate1() float64 {
	return 7 * m.P.Time[iontrap.OpSingle]
}

// TransversalGate2 is a logical two-qubit gate at any level ≥ 1: seven
// serial inter-block physical CNOTs per block pair, pairs in parallel.
func (m *LatencyModel) TransversalGate2() float64 {
	return 7 * m.PhysGate2Inter()
}

// PrepTime returns the verified logical-ancilla preparation time at the
// given level (Figure 6, lower circuit).
func (m *LatencyModel) PrepTime(level int) float64 {
	switch {
	case level < 1:
		panic("ft: PrepTime needs level ≥ 1")
	case level == 1:
		// Serial physical encoding: 3 H + 9 intra-block CNOTs, then copy
		// onto the 7 verification ions and read them out.
		encode := 3*m.P.Time[iontrap.OpSingle] + 9*m.PhysGate2Intra()
		verify := 7*m.PhysGate2Intra() + m.Readout()
		return encode + verify
	default:
		// Logical-level encoding over 7 level-(L-1) ancillae prepared in
		// parallel; each encoder stage is a transversal gate followed by
		// level-(L-1) EC of the touched blocks; then transversal
		// verification and a final lower-level EC round before use.
		sub := m.PrepTime(level - 1)
		eccBelow := m.ECTime(level - 1)
		stages := m.TransversalGate1() + // Hadamard layer (no EC needed: Pauli-frame safe)
			float64(m.EncoderCNOTStages)*(m.TransversalGate2()+eccBelow)
		verify := m.TransversalGate2() + m.Readout()
		return sub + stages + verify + eccBelow
	}
}

// SyndromeTime returns T_{L,synd}: one syndrome extraction (one error
// kind) at the given level: ancilla preparation, transversal interaction
// with the data, lower-level EC of the data blocks (level ≥ 2), readout.
func (m *LatencyModel) SyndromeTime(level int) float64 {
	if level < 1 {
		panic("ft: SyndromeTime needs level ≥ 1")
	}
	t := m.PrepTime(level) + m.TransversalGate2() + m.Readout()
	if level >= 2 {
		t += m.ECTime(level - 1)
	}
	return t
}

// ECTime evaluates Equation 1: the expected duration of one error-
// correction step at the given level, weighting the trivial and
// non-trivial syndrome branches by the measured non-trivial rate.
//
//	T_{L,ecc} = 2·T_{L,synd}                                  (trivial)
//	T_{L,ecc} = 2·(2·T_{L,synd} + T_1 + T_{L-1,ecc})          (non-trivial)
func (m *LatencyModel) ECTime(level int) float64 {
	if level <= 0 {
		return 0
	}
	synd := m.SyndromeTime(level)
	trivial := 2 * synd
	pnt := m.NonTrivialRate[level]
	nontrivial := 2 * (2*synd + m.TransversalGate1() + m.ECTime(level-1))
	return (1-pnt)*trivial + pnt*nontrivial
}

// Summary holds the headline Equation-1 latencies.
type Summary struct {
	ECLevel1    float64 // T_{1,ecc} (paper ≈ 0.003 s)
	ECLevel2    float64 // T_{2,ecc} (paper ≈ 0.043 s)
	AncillaPrep float64 // level-2 logical ancilla preparation
}

// Summarize evaluates the model at levels 1 and 2.
func (m *LatencyModel) Summarize() Summary {
	return Summary{
		ECLevel1:    m.ECTime(1),
		ECLevel2:    m.ECTime(2),
		AncillaPrep: m.PrepTime(2),
	}
}
