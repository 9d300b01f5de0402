package threshold

import (
	"math/bits"

	"qla/internal/steane"
)

// The Figure-6 error-correction schedule, written once over lane masks.
// Every step takes the lane mask of the trials that execute it, and
// per-lane control flow — the "Start Over" ancilla-verification retry
// and the two-agreeing-syndromes rule — re-runs a step only for the
// lanes that still need it, leaving every other lane's frame untouched,
// exactly as if those lanes had not executed the gates. With one lane
// the masked rule is the scalar rule. The schedule issues no step with
// an empty mask.

// Group indexes one level-1 block: 7 data ions, 7 ancilla ions and 7
// verification ions (Section 4.1: "uses 7 ions as data and 7 ions as
// ancilla, the other 7 are used as verification bits").
type Group struct {
	Data  [7]int
	Anc   [7]int
	Verif [7]int
}

const groupSize = 21

func makeGroup(base int) Group {
	var g Group
	for i := 0; i < 7; i++ {
		g.Data[i] = base + i
		g.Anc[i] = base + 7 + i
		g.Verif[i] = base + 14 + i
	}
	return g
}

// l2FrameSize is the number of physical qubits simulated for one level-2
// logical qubit: 21 groups of 21 ions plus two 49-ion verification banks.
const l2FrameSize = 21*groupSize + 2*49

// frameSize is the number of physical qubits a trial at level simulates.
func frameSize(level int) int {
	if level == 1 {
		return groupSize
	}
	return l2FrameSize
}

// The level-2 logical qubit per Figure 5: seven level-1 data groups in
// the middle, and two ancilla conglomerations of seven level-1 groups
// each (one per syndrome kind, enabling parallel X/Z extraction), each
// with a 49-ion level-2 verification bank, one 7-ion word per group.
var l2Data, l2XSide, l2ZSide, l2XVerif, l2ZVerif = newL2Layout()

func newL2Layout() (data, xSide, zSide [7]Group, xVerif, zVerif [7][7]int) {
	for b := 0; b < 7; b++ {
		data[b] = makeGroup(b * groupSize)
		xSide[b] = makeGroup((7 + b) * groupSize)
		zSide[b] = makeGroup((14 + b) * groupSize)
		for i := 0; i < 7; i++ {
			xVerif[b][i] = 21*groupSize + b*7 + i
			zVerif[b][i] = 21*groupSize + 49 + b*7 + i
		}
	}
	return data, xSide, zSide, xVerif, zVerif
}

// maxPrepAttempts bounds ancilla re-preparation; beyond it the last
// preparation is used as-is (only reachable at absurd error rates).
const maxPrepAttempts = 5

// maxSyndromeRounds bounds the two-successive-agreeing-syndromes rule (the
// paper observed at most two extractions before agreement).
const maxSyndromeRounds = 3

// The [[7,1,3]] |0>_L encoder (see steane.EncodeZero): Hadamards on the
// pivots of the three stabilizer rows, then the CNOT fan-outs along the
// row supports. Level 2 runs the same schedule on level-1 blocks.
var (
	encoderPivots = [3]int{3, 1, 0}
	encoderCNOTs  = [9][2]int{
		{3, 4}, {3, 5}, {3, 6},
		{1, 2}, {1, 5}, {1, 6},
		{0, 2}, {0, 4}, {0, 6},
	}
)

// An executor runs the schedule's steps, each a transversal step over
// seven ions (or a one-ion correction) for the lanes in mask, with the
// step's error sites visited ion by ion. The batch executor runs 64
// trials per word; the scalar one runs one trial in lane 0 over its own
// frame, noise model and decoders, as the reference oracle.
type executor interface {
	// prep prepares each ion in |0>.
	prep(q [7]int, mask uint64)
	// h applies a transversal Hadamard.
	h(q [7]int, mask uint64)
	// encode runs the noisy [[7,1,3]] encoder over the ions; its CNOTs
	// stay within the block.
	encode(q [7]int, mask uint64)
	// cnot applies a transversal CNOT from c onto t; before each gate
	// the travel ion shuttles to its partner: a couple of cells within a
	// block, or across the inter-block distance when inter is set (QLA
	// never moves data: the ancilla-side ion travels r = 12 cells with
	// up to two turns).
	cnot(c, t, travel [7]int, inter bool, mask uint64)
	// measure reads each ion out in the Z basis, or in the X basis when
	// xBasis is set, returning the outcome flips as seven lane masks.
	measure(q [7]int, xBasis bool, mask uint64) [7]uint64
	// pauli applies a one-ion Pauli gate and its gate noise. x and z
	// name the Pauli a correction injects into the frame; the logical
	// gate under test injects neither, being frame-transparent.
	pauli(q int, x, z bool, mask uint64)
	// frame reads the residual X and Z error components of the ions.
	frame(q [7]int) (x, z [7]uint64)
	// syndrome returns the three bit planes of each lane's Hamming
	// syndrome of a 7-bit word (LSB first).
	syndrome(w [7]uint64) (s0, s1, s2 uint64)
	// decode ideally decodes a 7-bit error word, returning the lanes
	// whose residual is a logical operator.
	decode(w [7]uint64) uint64
}

// popcount is a local shorthand for lane-mask statistics.
func popcount(m uint64) int64 { return int64(bits.OnesCount64(m)) }

// schedule carries one run of the gadget on an executor.
type schedule struct {
	x executor

	// Lane-summed syndrome statistics per recursion level (1-indexed).
	extractions [3]int64
	nontrivial  [3]int64
	prepRetries int64
}

// gadget runs one trial per lane in active: a transversal logical
// one-qubit gate (a Pauli: frame-transparent, it contributes only its
// per-ion gate noise) followed by error correction at level. It returns
// the lane mask of logical failures (lanes outside active never fail)
// and the level's syndrome statistics.
func gadget(x executor, level int, active uint64) (fail uint64, st blockStats) {
	s := schedule{x: x}
	if level == 1 {
		g := makeGroup(0)
		for _, q := range g.Data {
			x.pauli(q, false, false, active)
		}
		s.ec1(g, active)
		fail = s.residualFail1(g)
	} else {
		for b := 0; b < 7; b++ {
			for _, q := range l2Data[b].Data {
				x.pauli(q, false, false, active)
			}
		}
		s.ec2(false, active)
		s.ec2(true, active)
		fail = s.residualFail2()
	}
	fail &= active
	return fail, blockStats{
		failures:    popcount(fail),
		extractions: s.extractions[level],
		nontrivial:  s.nontrivial[level],
		prepRetries: s.prepRetries,
	}
}

// prepVerifiedZero prepares anc in |0>_L with two verification screens
// using the block's 7 verification ions, restarting on any detection
// ("Start Over" in Figure 6):
//
//  1. Z screen: the verification ions are themselves encoded to |0>_L and
//     used as the control of a transversal CNOT onto the ancilla (a
//     logical identity), then read out in the X basis. Correlated Z
//     errors from the ancilla encoder — which would feed back into the
//     data during syndrome extraction — copy onto the verifier and are
//     caught here.
//  2. X screen: the codeword is copied transversally onto fresh
//     verification ions and read out in Z. It runs last so that it also
//     catches correlated X errors injected by the Z screen's own encoder.
//
// need tracks the lanes still requiring (re)preparation: an attempt
// re-runs the circuit only for those lanes, and any screen detection
// keeps the lane in need for the next attempt ("Start Over", per lane).
func (s *schedule) prepVerifiedZero(anc, verif [7]int, active uint64) {
	need := active
	for attempt := 0; attempt < maxPrepAttempts && need != 0; attempt++ {
		s.x.prep(anc, need)
		s.x.encode(anc, need)
		// Z screen.
		s.x.prep(verif, need)
		s.x.encode(verif, need)
		s.x.cnot(verif, anc, anc, false, need)
		bad := or7(s.x.measure(verif, true, need))
		// X screen.
		s.x.prep(verif, need)
		s.x.cnot(anc, verif, verif, false, need)
		bad |= or7(s.x.measure(verif, false, need))
		need &= bad
		s.prepRetries += popcount(need)
	}
}

func or7(w [7]uint64) uint64 {
	return w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6]
}

// couple is an extraction's transversal CNOT between a data block and
// its ancilla: data onto a |0>_L ancilla for the bit-flip syndrome, a
// |+>_L ancilla onto the data (reversed) for the phase-flip syndrome.
// The ancilla-side ions travel.
func (s *schedule) couple(data, anc [7]int, zKind bool, mask uint64) {
	if zKind {
		s.x.cnot(anc, data, anc, true, mask)
	} else {
		s.x.cnot(data, anc, anc, true, mask)
	}
}

// extract1 extracts a block's bit-flip (zKind false) or phase-flip
// syndrome: a verified |0>_L ancilla (|+>_L after a transversal H),
// coupled to the data, read out in Z (X) and Hamming-decoded.
func (s *schedule) extract1(g Group, zKind bool, mask uint64) (s0, s1, s2 uint64) {
	s.extractions[1] += popcount(mask)
	s.prepVerifiedZero(g.Anc, g.Verif, mask)
	if zKind {
		s.x.h(g.Anc, mask)
	}
	s.couple(g.Data, g.Anc, zKind, mask)
	s0, s1, s2 = s.x.syndrome(s.x.measure(g.Anc, zKind, mask))
	s.nontrivial[1] += popcount(s0 | s1 | s2)
	return s0, s1, s2
}

// agreeLoop runs the per-lane two-agreeing-syndromes rule over an
// extraction function: extract once for every active lane; lanes with a
// non-trivial syndrome re-extract (masked) until two successive
// syndromes agree or maxSyndromeRounds is reached, each lane settling
// on its last syndrome. It returns the three bit-planes of each lane's
// settled syndrome.
func agreeLoop(active uint64, extract func(mask uint64) (uint64, uint64, uint64)) (u0, u1, u2 uint64) {
	s0, s1, s2 := extract(active)
	u0, u1, u2 = s0, s1, s2
	pending := s0 | s1 | s2
	p0, p1, p2 := s0, s1, s2
	for round := 1; round < maxSyndromeRounds && pending != 0; round++ {
		n0, n1, n2 := extract(pending)
		u0 = u0&^pending | n0
		u1 = u1&^pending | n1
		u2 = u2&^pending | n2
		agree := pending &^ ((n0 ^ p0&pending) | (n1 ^ p1&pending) | (n2 ^ p2&pending))
		p0 = p0&^pending | n0
		p1 = p1&^pending | n1
		p2 = p2&^pending | n2
		pending &^= agree
	}
	return u0, u1, u2
}

// ec1 is one full level-1 error-correction step (X then Z serially; the
// level-1 qubit has a single ancilla block). Each kind settles its
// syndrome by the agreeing-syndromes rule, and lanes settling on
// syndrome value pos+1 get a correction on Data[pos]; the correction
// gate carries its own noise for exactly those lanes.
func (s *schedule) ec1(g Group, active uint64) {
	for _, zKind := range [2]bool{false, true} {
		u0, u1, u2 := agreeLoop(active, func(mask uint64) (uint64, uint64, uint64) {
			return s.extract1(g, zKind, mask)
		})
		for pos := 0; pos < 7; pos++ {
			if pm := steane.PositionMask(u0, u1, u2, pos); pm != 0 {
				s.x.pauli(g.Data[pos], !zKind, zKind, pm)
			}
		}
	}
}

// residualFail1 scores a level-1 block per lane by ideal decoding of its
// residual frame.
func (s *schedule) residualFail1(g Group) uint64 {
	x, z := s.x.frame(g.Data)
	return s.x.decode(x) | s.x.decode(z)
}

// prepL2Zero prepares a verified level-2 |0>_L on the given
// conglomeration: seven verified level-1 blocks, the transversal encoder
// at the logical level, then a level-2 verification copy onto the
// 49-ion bank, hierarchically decoded; a residual logical error in any
// sub-block restarts the preparation for that lane.
func (s *schedule) prepL2Zero(side *[7]Group, verif *[7][7]int, active uint64) {
	need := active
	for attempt := 0; attempt < maxPrepAttempts && need != 0; attempt++ {
		for b := 0; b < 7; b++ {
			// Each level-1 block of the conglomeration is prepared with
			// the full two-screen verified preparation.
			s.prepVerifiedZero(side[b].Data, side[b].Verif, need)
		}
		// Logical-level encoder: transversal H on the pivot blocks, then
		// level-1 logical CNOTs (transversal physical CNOTs; the target
		// block's ions travel). The QLA design follows a logical gate
		// with level-1 EC of the blocks it touched, but between encoder
		// stages that EC is unnecessary — the level-2 verification bank
		// screens the finished ancilla, and skipping it keeps the
		// ancilla preparation lean (the paper's design goal: "reduce ...
		// the ancillary qubits required by the error correction
		// algorithm" at the cost of EC time elsewhere).
		for _, b := range encoderPivots {
			s.x.h(side[b].Data, need)
		}
		for _, p := range encoderCNOTs {
			s.x.cnot(side[p[0]].Data, side[p[1]].Data, side[p[1]].Data, true, need)
		}
		// Level-2 verification.
		for b := 0; b < 7; b++ {
			s.x.prep(verif[b], need)
		}
		for b := 0; b < 7; b++ {
			s.x.cnot(side[b].Data, verif[b], verif[b], true, need)
		}
		var bad uint64
		for b := 0; b < 7; b++ {
			bad |= s.x.decode(s.x.measure(verif[b], false, need))
		}
		need &= bad
		s.prepRetries += popcount(need)
	}
}

// extract2 extracts the level-2 bit-flip (zKind false) or phase-flip
// syndrome: a verified |0>_L2 ancilla conglomeration (|+>_L2 after a
// transversal H), a transversal logical CNOT with the data, readout in
// Z (X) and hierarchical decode. A lane whose readout carried a
// non-trivial level-1 syndrome in any sub-block word also counts in the
// paper's non-trivial-syndrome statistics.
func (s *schedule) extract2(zKind bool, mask uint64) (s0, s1, s2 uint64) {
	s.extractions[2] += popcount(mask)
	side, verif := &l2XSide, &l2XVerif
	if zKind {
		side, verif = &l2ZSide, &l2ZVerif
	}
	s.prepL2Zero(side, verif, mask)
	if zKind {
		for b := 0; b < 7; b++ {
			s.x.h(side[b].Data, mask)
		}
	}
	for b := 0; b < 7; b++ {
		s.couple(l2Data[b].Data, side[b].Data, zKind, mask)
	}
	var ell [7]uint64
	var blockSyn uint64
	for b := 0; b < 7; b++ {
		w := s.x.measure(side[b].Data, zKind, mask)
		b0, b1, b2 := s.x.syndrome(w)
		blockSyn |= b0 | b1 | b2
		ell[b] = s.x.decode(w)
	}
	s0, s1, s2 = s.x.syndrome(ell)
	s.nontrivial[2] += popcount(s0 | s1 | s2 | blockSyn)
	return s0, s1, s2
}

// ec2 runs one error-kind correction at level 2 with the
// agreeing-syndromes rule; corrections are transversal logical Paulis on
// the identified level-1 block, masked to the lanes that corrected it.
func (s *schedule) ec2(zKind bool, active uint64) {
	u0, u1, u2 := agreeLoop(active, func(mask uint64) (uint64, uint64, uint64) {
		return s.extract2(zKind, mask)
	})
	for pos := 0; pos < 7; pos++ {
		pm := steane.PositionMask(u0, u1, u2, pos)
		if pm == 0 {
			continue
		}
		for _, q := range l2Data[pos].Data {
			s.x.pauli(q, !zKind, zKind, pm)
		}
		// Equation 1's non-trivial branch: "correct the error with the
		// appropriate gate followed by a lower level error correction
		// cycle" — level-1 EC of the corrected block.
		s.ec1(l2Data[pos], pm)
	}
}

// residualFail2 scores each lane by ideal hierarchical decoding of the
// residual frame over the 49 data ions: each block decodes to a logical
// bit, and the seven bits decode as a level-1 word.
func (s *schedule) residualFail2() uint64 {
	var xl, zl [7]uint64
	for b := 0; b < 7; b++ {
		x, z := s.x.frame(l2Data[b].Data)
		xl[b], zl[b] = s.x.decode(x), s.x.decode(z)
	}
	return s.x.decode(xl) | s.x.decode(zl)
}
