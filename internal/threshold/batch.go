package threshold

import (
	"math/bits"

	"qla/internal/iontrap"
	"qla/internal/layout"
	"qla/internal/noise"
	"qla/internal/pauliframe"
	"qla/internal/steane"
)

// Batched (bit-sliced) Monte Carlo backend: 64 independent trials per
// uint64 word, the default engine for the Figure-7 threshold pipeline.
//
// Each simulated circuit runs ONCE per 64-trial block; Clifford
// propagation, noise injection and syndrome extraction are branch-free
// word-wide bitwise operations on pauliframe.Batch lane masks. Per-lane
// control flow — the "Start Over" ancilla-verification retry of Figure 6
// and the two-agreeing-syndromes rule — is expressed with execution
// masks: a retried preparation or a repeated extraction re-runs the
// (masked) circuit only for the lanes that still need it, leaving every
// other lane's frame untouched, exactly as if those lanes had not
// executed the gates. Steane syndromes decode bit-sliced (three
// syndrome-bit lane masks -> per-lane correction position masks; see
// steane.SyndromeMasks).
//
// The scalar path (sim/l2sim) remains the reference oracle: the two
// backends agree exactly under deterministic single-fault injection and
// statistically under random noise (see batch_test.go).

// popcount is a local shorthand for lane-mask statistics.
func popcount(m uint64) int64 { return int64(bits.OnesCount64(m)) }

// bsim is the batched counterpart of sim: shared machinery for one
// 64-trial block.
type bsim struct {
	f *pauliframe.Batch
	m *noise.BatchModel
	// The schedule's error sites, resolved once (see newBsim).
	single, double, prep, meas, intraMove, interMove noise.Site

	// Lane-summed syndrome statistics per recursion level (1-indexed).
	extractions [3]int64
	nontrivial  [3]int64
	prepRetries int64
}

// newBsim binds a block's simulator to its frame and noise model,
// resolving each error site of the Figure-6 schedule once: the four op
// classes and the two move shapes.
func newBsim(f *pauliframe.Batch, m *noise.BatchModel) bsim {
	intra, inter := layout.IntraBlockGateMove(), layout.InterBlockGateMove()
	return bsim{
		f: f, m: m,
		single:    m.Site(iontrap.OpSingle),
		double:    m.Site(iontrap.OpDouble),
		prep:      m.Site(iontrap.OpPrep),
		meas:      m.Site(iontrap.OpMeasure),
		intraMove: m.MoveSite(intra.Cells, intra.Corners),
		interMove: m.MoveSite(inter.Cells, inter.Corners),
	}
}

func (s *bsim) prep0(q int, mask uint64) {
	s.f.Reset(q, mask)
	if hits := s.prep.Hits(mask); hits != 0 {
		s.f.InjectX(q, hits) // hit lanes come up flipped
	}
}

func (s *bsim) h(q int, mask uint64) {
	s.f.H(q, mask)
	s.gate1Noise(q, mask)
}

// gate1Noise charges a one-qubit gate that is a Pauli (frame-transparent).
func (s *bsim) gate1Noise(q int, mask uint64) {
	if hits := s.single.Hits(mask); hits != 0 {
		s.m.Pauli1(s.f, q, hits)
	}
}

func (s *bsim) cnotIntra(c, t int, mask uint64) {
	s.cnot(c, t, t, &s.intraMove, mask)
}

func (s *bsim) cnotInter(c, t, travel int, mask uint64) {
	s.cnot(c, t, travel, &s.interMove, mask)
}

// cnot shuttles travel along the move site's path, then applies the
// gate and its two-qubit error.
func (s *bsim) cnot(c, t, travel int, move *noise.Site, mask uint64) {
	if hits := move.Hits(mask); hits != 0 {
		s.m.Pauli1(s.f, travel, hits)
	}
	s.f.CNOT(c, t, mask)
	if hits := s.double.Hits(mask); hits != 0 {
		s.m.Pauli2(s.f, c, t, hits)
	}
}

func (s *bsim) measureZ(q int, mask uint64) uint64 {
	return s.f.MeasureZ(q, mask) ^ s.meas.Hits(mask)
}

func (s *bsim) measureX(q int, mask uint64) uint64 {
	// Physical X-basis readout: H then fluorescence readout.
	s.h(q, mask)
	return s.measureZ(q, mask)
}

func (s *bsim) encodeZero(q [7]int, mask uint64) {
	s.h(q[3], mask)
	s.h(q[1], mask)
	s.h(q[0], mask)
	for _, p := range encoderCNOTs {
		s.cnotIntra(q[p[0]], q[p[1]], mask)
	}
}

// prepVerifiedZero is the batched two-screen verified |0>_L preparation
// (see sim.prepVerifiedZero for the physics). need tracks the lanes
// still requiring (re)preparation: an attempt re-runs the circuit only
// for those lanes, and any screen detection keeps the lane in need for
// the next attempt ("Start Over" in Figure 6, per lane).
func (s *bsim) prepVerifiedZero(anc, verif [7]int, active uint64) {
	need := active
	for attempt := 0; attempt < maxPrepAttempts && need != 0; attempt++ {
		for _, q := range anc {
			s.prep0(q, need)
		}
		s.encodeZero(anc, need)
		var bad uint64
		// Z screen.
		for _, q := range verif {
			s.prep0(q, need)
		}
		s.encodeZero(verif, need)
		for i := 0; i < 7; i++ {
			s.cnotIntra(verif[i], anc[i], need)
		}
		for i := 0; i < 7; i++ {
			bad |= s.measureX(verif[i], need)
		}
		// X screen.
		for _, q := range verif {
			s.prep0(q, need)
		}
		for i := 0; i < 7; i++ {
			s.cnotIntra(anc[i], verif[i], need)
		}
		for i := 0; i < 7; i++ {
			bad |= s.measureZ(verif[i], need)
		}
		need &= bad
		s.prepRetries += popcount(need)
	}
}

func (s *bsim) prepVerifiedPlus(anc, verif [7]int, active uint64) {
	s.prepVerifiedZero(anc, verif, active)
	for _, q := range anc {
		s.h(q, active)
	}
}

// l1ExtractX extracts the bit-flip syndrome for the masked lanes,
// returned as three syndrome-bit lane masks (LSB first).
func (s *bsim) l1ExtractX(g Group, mask uint64) (s0, s1, s2 uint64) {
	s.prepVerifiedZero(g.Anc, g.Verif, mask)
	for i := 0; i < 7; i++ {
		s.cnotInter(g.Data[i], g.Anc[i], g.Anc[i], mask)
	}
	var w [7]uint64
	for i := 0; i < 7; i++ {
		w[i] = s.measureZ(g.Anc[i], mask)
	}
	return steane.SyndromeMasks(&w)
}

// l1ExtractZ extracts the phase-flip syndrome for the masked lanes.
func (s *bsim) l1ExtractZ(g Group, mask uint64) (s0, s1, s2 uint64) {
	s.prepVerifiedPlus(g.Anc, g.Verif, mask)
	for i := 0; i < 7; i++ {
		s.cnotInter(g.Anc[i], g.Data[i], g.Anc[i], mask)
	}
	var w [7]uint64
	for i := 0; i < 7; i++ {
		w[i] = s.measureX(g.Anc[i], mask)
	}
	return steane.SyndromeMasks(&w)
}

// agreeLoop runs the per-lane two-agreeing-syndromes rule over an
// extraction function: extract once for every active lane; lanes with a
// non-trivial syndrome re-extract (masked) until two successive
// syndromes agree or maxSyndromeRounds is reached, each lane settling
// on its last syndrome — the exact per-lane semantics of l1ECKind.
// It returns the three bit-planes of each lane's settled syndrome.
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

// l1ECKind runs one error-kind correction for the masked lanes.
func (s *bsim) l1ECKind(g Group, zKind bool, active uint64) {
	extract := func(mask uint64) (uint64, uint64, uint64) {
		s.extractions[1] += popcount(mask)
		var s0, s1, s2 uint64
		if zKind {
			s0, s1, s2 = s.l1ExtractZ(g, mask)
		} else {
			s0, s1, s2 = s.l1ExtractX(g, mask)
		}
		s.nontrivial[1] += popcount(s0 | s1 | s2)
		return s0, s1, s2
	}
	u0, u1, u2 := agreeLoop(active, extract)
	// Bit-sliced decode: lanes settling on syndrome value pos+1 get a
	// correction on Data[pos]; the correction gate carries its own noise
	// for exactly those lanes.
	for pos := 0; pos < 7; pos++ {
		pm := steane.PositionMask(u0, u1, u2, pos)
		if pm == 0 {
			continue
		}
		q := g.Data[pos]
		if zKind {
			s.f.InjectZ(q, pm)
		} else {
			s.f.InjectX(q, pm)
		}
		s.gate1Noise(q, pm)
	}
}

// l1EC is one full level-1 error-correction step for the masked lanes.
func (s *bsim) l1EC(g Group, active uint64) {
	s.l1ECKind(g, false, active)
	s.l1ECKind(g, true, active)
}

// dataResidualFailMask scores a level-1 block per lane by ideal
// decoding of its residual frame.
func (s *bsim) dataResidualFailMask(g Group) uint64 {
	var xs, zs [7]uint64
	for i, q := range g.Data {
		xs[i] = s.f.XBits(q)
		zs[i] = s.f.ZBits(q)
	}
	return steane.DecodeBlockMasks(&xs) | steane.DecodeBlockMasks(&zs)
}

// bl2sim is the batched counterpart of l2sim (Figure-5 layout).
type bl2sim struct {
	bsim
	data   [7]Group
	xSide  [7]Group
	zSide  [7]Group
	xVerif [49]int
	zVerif [49]int
}

// logicalCNOTL1 applies a level-1 logical CNOT between two groups for
// the masked lanes (transversal physical CNOTs; the target travels).
func (s *bl2sim) logicalCNOTL1(from, to Group, mask uint64) {
	for i := 0; i < 7; i++ {
		s.cnotInter(from.Data[i], to.Data[i], to.Data[i], mask)
	}
}

// prepL2Zero is the batched verified level-2 |0>_L preparation: a
// residual logical error in any sub-block restarts the preparation for
// that lane only.
func (s *bl2sim) prepL2Zero(side *[7]Group, verif *[49]int, active uint64) {
	need := active
	for attempt := 0; attempt < maxPrepAttempts && need != 0; attempt++ {
		for b := 0; b < 7; b++ {
			s.prepVerifiedZero(side[b].Data, side[b].Verif, need)
		}
		// Logical-level encoder (see l2sim.prepL2Zero for why level-1 EC
		// between stages is skipped).
		for _, b := range [3]int{3, 1, 0} {
			for _, q := range side[b].Data {
				s.h(q, need)
			}
		}
		for _, p := range encoderCNOTs {
			s.logicalCNOTL1(side[p[0]], side[p[1]], need)
		}
		// Level-2 verification bank.
		for i := 0; i < 49; i++ {
			s.prep0(verif[i], need)
		}
		for b := 0; b < 7; b++ {
			for i := 0; i < 7; i++ {
				s.cnotInter(side[b].Data[i], verif[b*7+i], verif[b*7+i], need)
			}
		}
		var bad uint64
		for b := 0; b < 7; b++ {
			var w [7]uint64
			for i := 0; i < 7; i++ {
				w[i] = s.measureZ(verif[b*7+i], need)
			}
			bad |= steane.DecodeBlockMasks(&w)
		}
		need &= bad
		s.prepRetries += popcount(need)
	}
}

func (s *bl2sim) prepL2Plus(side *[7]Group, verif *[49]int, active uint64) {
	s.prepL2Zero(side, verif, active)
	for b := 0; b < 7; b++ {
		for _, q := range side[b].Data {
			s.h(q, active)
		}
	}
}

// l2ExtractX extracts the level-2 bit-flip syndrome for the masked
// lanes; blockSyn is the lane mask of trials whose readout carried a
// non-trivial level-1 syndrome in any sub-block.
func (s *bl2sim) l2ExtractX(mask uint64) (s0, s1, s2, blockSyn uint64) {
	s.prepL2Zero(&s.xSide, &s.xVerif, mask)
	for b := 0; b < 7; b++ {
		for i := 0; i < 7; i++ {
			s.cnotInter(s.data[b].Data[i], s.xSide[b].Data[i], s.xSide[b].Data[i], mask)
		}
	}
	var ell [7]uint64
	for b := 0; b < 7; b++ {
		var w [7]uint64
		for i := 0; i < 7; i++ {
			w[i] = s.measureZ(s.xSide[b].Data[i], mask)
		}
		b0, b1, b2 := steane.SyndromeMasks(&w)
		blockSyn |= b0 | b1 | b2
		ell[b] = steane.DecodeBlockMasks(&w)
	}
	s0, s1, s2 = steane.SyndromeMasks(&ell)
	return s0, s1, s2, blockSyn
}

// l2ExtractZ extracts the level-2 phase-flip syndrome for the masked
// lanes.
func (s *bl2sim) l2ExtractZ(mask uint64) (s0, s1, s2, blockSyn uint64) {
	s.prepL2Plus(&s.zSide, &s.zVerif, mask)
	for b := 0; b < 7; b++ {
		for i := 0; i < 7; i++ {
			s.cnotInter(s.zSide[b].Data[i], s.data[b].Data[i], s.zSide[b].Data[i], mask)
		}
	}
	var ell [7]uint64
	for b := 0; b < 7; b++ {
		var w [7]uint64
		for i := 0; i < 7; i++ {
			w[i] = s.measureX(s.zSide[b].Data[i], mask)
		}
		b0, b1, b2 := steane.SyndromeMasks(&w)
		blockSyn |= b0 | b1 | b2
		ell[b] = steane.DecodeBlockMasks(&w)
	}
	s0, s1, s2 = steane.SyndromeMasks(&ell)
	return s0, s1, s2, blockSyn
}

// l2ECKind runs one error-kind correction at level 2 for the masked
// lanes; corrections are transversal logical Paulis on the identified
// level-1 block, followed by level-1 EC of that block (Equation 1's
// non-trivial branch), masked to the lanes that corrected it.
func (s *bl2sim) l2ECKind(zKind bool, active uint64) {
	extract := func(mask uint64) (uint64, uint64, uint64) {
		s.extractions[2] += popcount(mask)
		var s0, s1, s2, blockSyn uint64
		if zKind {
			s0, s1, s2, blockSyn = s.l2ExtractZ(mask)
		} else {
			s0, s1, s2, blockSyn = s.l2ExtractX(mask)
		}
		s.nontrivial[2] += popcount(s0 | s1 | s2 | blockSyn)
		return s0, s1, s2
	}
	u0, u1, u2 := agreeLoop(active, extract)
	for pos := 0; pos < 7; pos++ {
		pm := steane.PositionMask(u0, u1, u2, pos)
		if pm == 0 {
			continue
		}
		for _, q := range s.data[pos].Data {
			if zKind {
				s.f.InjectZ(q, pm)
			} else {
				s.f.InjectX(q, pm)
			}
			s.gate1Noise(q, pm)
		}
		s.l1EC(s.data[pos], pm)
	}
}

func (s *bl2sim) l2EC(active uint64) {
	s.l2ECKind(false, active)
	s.l2ECKind(true, active)
}

// residualFailMask scores the block's lanes by ideal hierarchical
// decoding of the residual frame over the 49 data ions.
func (s *bl2sim) residualFailMask() uint64 {
	var xl, zl [7]uint64
	for b := 0; b < 7; b++ {
		var xs, zs [7]uint64
		for i := 0; i < 7; i++ {
			q := s.data[b].Data[i]
			xs[i] = s.f.XBits(q)
			zs[i] = s.f.ZBits(q)
		}
		xl[b] = steane.DecodeBlockMasks(&xs)
		zl[b] = steane.DecodeBlockMasks(&zs)
	}
	return steane.DecodeBlockMasks(&xl) | steane.DecodeBlockMasks(&zl)
}

// blockStats aggregates one 64-trial block.
type blockStats struct {
	failures    int64
	extractions int64
	nontrivial  int64
	prepRetries int64
}

// runBlock simulates one 64-trial block (lanes may be short for the
// final block of a run) with a per-block deterministic seed: fixed
// Seed + Backend "batch" reproduces bit-identical statistics at any
// parallelism, because blocks are independent and integer-summed.
func runBlock(cfg Config, params iontrap.Params, block uint64, lanes int) blockStats {
	seed := cfg.Seed ^ (block+1)*0x9e3779b97f4a7c15 ^ uint64(cfg.Level)<<60 ^ 0xb175c1ed
	active := pauliframe.LaneMask(lanes)
	fail, st := runBlockModel(cfg.Level, noise.NewBatchModel(params, seed), active)
	st.failures = popcount(fail & active)
	return st
}

// runBlockModel runs the level-1 or level-2 gadget schedule once for
// every lane in active, under the given (possibly force-mode) model. It
// returns the lane mask of logical failures (lanes outside active
// never fail) and the block's syndrome statistics.
func runBlockModel(level int, model *noise.BatchModel, active uint64) (fail uint64, st blockStats) {
	if level == 1 {
		s := newBsim(pauliframe.NewBatch(groupSize), model)
		g := makeGroup(0)
		// Transversal logical one-qubit gate (Pauli: frame-transparent,
		// contributes only its per-ion gate noise).
		for _, q := range g.Data {
			s.gate1Noise(q, active)
		}
		s.l1EC(g, active)
		st.extractions = s.extractions[1]
		st.nontrivial = s.nontrivial[1]
		st.prepRetries = s.prepRetries
		return s.dataResidualFailMask(g), st
	}
	s := bl2sim{bsim: newBsim(pauliframe.NewBatch(l2FrameSize), model)}
	s.data, s.xSide, s.zSide, s.xVerif, s.zVerif = newL2Layout()
	for b := 0; b < 7; b++ {
		for _, q := range s.data[b].Data {
			s.gate1Noise(q, active)
		}
	}
	s.l2EC(active)
	st.extractions = s.extractions[2]
	st.nontrivial = s.nontrivial[2]
	st.prepRetries = s.prepRetries
	return s.residualFailMask(), st
}

// SingleFaultTrialBatch is the batched counterpart of SingleFaultTrial:
// one block with exactly one forced error (site/choice, as in
// noise.Model) injected into the given lane, and no other noise. It
// reports whether that lane failed, whether every other lane stayed
// clean (they must: their trials are fault-free), and the number of
// sites visited. With only one lane's control flow deviating, the batch
// visits sites in exactly the scalar order, so site numbers and the
// census agree with SingleFaultTrial.
func SingleFaultTrialBatch(level int, site int64, choice, lane int) (fail, othersClean bool, totalSites int64) {
	model := noise.NewBatchModel(iontrap.Uniform(0, 0), 1)
	model.ForceEnabled = true
	model.ForceSite = site
	model.ForceChoice = choice
	model.ForceLane = lane
	if site < 0 {
		model.ForceSite = -1 << 62
	}
	failMask, _ := runBlockModel(level, model, ^uint64(0))
	fail = failMask>>uint(lane)&1 == 1
	othersClean = failMask&^(1<<uint(lane)) == 0
	return fail, othersClean, model.Sites()
}
