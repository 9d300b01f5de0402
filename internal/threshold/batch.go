package threshold

import (
	"qla/internal/iontrap"
	"qla/internal/layout"
	"qla/internal/noise"
	"qla/internal/pauliframe"
	"qla/internal/steane"
)

// Batched (bit-sliced) executor: 64 independent trials per uint64 word,
// the default engine for the Figure-7 threshold pipeline.
//
// The schedule runs ONCE per 64-trial block; Clifford propagation,
// noise injection and syndrome extraction are branch-free word-wide
// bitwise operations on pauliframe.Batch lane masks, and the masked
// steps leave the lanes outside their mask untouched. Steane syndromes
// decode bit-sliced (three syndrome-bit lane masks -> per-lane
// correction position masks; see steane.SyndromeMasks).

// batchExec runs the schedule for one 64-trial block.
type batchExec struct {
	f *pauliframe.Batch
	m *noise.BatchModel
	// The schedule's error sites, resolved once (see newBatchExec).
	singleOp, doubleOp, prepOp, measOp, intraMove, interMove noise.Site
}

// newBatchExec binds a block's executor to a fresh frame for level and
// its noise model, resolving each error site of the Figure-6 schedule
// once: the four op classes and the two move shapes.
func newBatchExec(level int, m *noise.BatchModel) *batchExec {
	intra, inter := layout.IntraBlockGateMove(), layout.InterBlockGateMove()
	return &batchExec{
		f: pauliframe.NewBatch(frameSize(level)), m: m,
		singleOp:  m.Site(iontrap.OpSingle),
		doubleOp:  m.Site(iontrap.OpDouble),
		prepOp:    m.Site(iontrap.OpPrep),
		measOp:    m.Site(iontrap.OpMeasure),
		intraMove: m.MoveSite(intra.Cells, intra.Corners),
		interMove: m.MoveSite(inter.Cells, inter.Corners),
	}
}

func (e *batchExec) prep(q [7]int, mask uint64) {
	for _, i := range q {
		e.f.Reset(i, mask)
		if hits := e.prepOp.Hits(mask); hits != 0 {
			e.f.InjectX(i, hits) // hit lanes come up flipped
		}
	}
}

func (e *batchExec) h(q [7]int, mask uint64) {
	for _, i := range q {
		e.h1(i, mask)
	}
}

func (e *batchExec) h1(q int, mask uint64) {
	e.f.H(q, mask)
	e.gate1Noise(q, mask)
}

// gate1Noise charges a one-qubit gate's error.
func (e *batchExec) gate1Noise(q int, mask uint64) {
	if hits := e.singleOp.Hits(mask); hits != 0 {
		e.m.Pauli1(e.f, q, hits)
	}
}

func (e *batchExec) encode(q [7]int, mask uint64) {
	for _, p := range encoderPivots {
		e.h1(q[p], mask)
	}
	for _, p := range encoderCNOTs {
		e.cnot1(q[p[0]], q[p[1]], q[p[1]], &e.intraMove, mask)
	}
}

func (e *batchExec) cnot(c, t, travel [7]int, inter bool, mask uint64) {
	move := &e.intraMove
	if inter {
		move = &e.interMove
	}
	for i := 0; i < 7; i++ {
		e.cnot1(c[i], t[i], travel[i], move, mask)
	}
}

// cnot1 shuttles travel along the move site's path, then applies the
// gate and its two-qubit error.
func (e *batchExec) cnot1(c, t, travel int, move *noise.Site, mask uint64) {
	if hits := move.Hits(mask); hits != 0 {
		e.m.Pauli1(e.f, travel, hits)
	}
	e.f.CNOT(c, t, mask)
	if hits := e.doubleOp.Hits(mask); hits != 0 {
		e.m.Pauli2(e.f, c, t, hits)
	}
}

func (e *batchExec) measure(q [7]int, xBasis bool, mask uint64) (w [7]uint64) {
	for i, qi := range q {
		if xBasis {
			// Physical X-basis readout: H then fluorescence readout.
			e.h1(qi, mask)
		}
		w[i] = e.f.MeasureZ(qi, mask) ^ e.measOp.Hits(mask)
	}
	return w
}

func (e *batchExec) pauli(q int, x, z bool, mask uint64) {
	if x {
		e.f.InjectX(q, mask)
	}
	if z {
		e.f.InjectZ(q, mask)
	}
	e.gate1Noise(q, mask)
}

func (e *batchExec) frame(q [7]int) (x, z [7]uint64) {
	for i, qi := range q {
		x[i], z[i] = e.f.XBits(qi), e.f.ZBits(qi)
	}
	return x, z
}

func (e *batchExec) syndrome(w [7]uint64) (s0, s1, s2 uint64) { return steane.SyndromeMasks(&w) }

func (e *batchExec) decode(w [7]uint64) uint64 { return steane.DecodeBlockMasks(&w) }

// runBlock simulates one 64-trial block (lanes may be short for the
// final block of a run) with a per-block deterministic seed: fixed
// Seed + Backend "batch" reproduces bit-identical statistics at any
// parallelism, because blocks are independent and integer-summed.
func runBlock(cfg Config, params iontrap.Params, block uint64, lanes int) blockStats {
	seed := cfg.Seed ^ (block+1)*0x9e3779b97f4a7c15 ^ uint64(cfg.Level)<<60 ^ 0xb175c1ed
	_, st := gadget(newBatchExec(cfg.Level, noise.NewBatchModel(params, seed)), cfg.Level, pauliframe.LaneMask(lanes))
	return st
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
	failMask, _ := gadget(newBatchExec(level, model), level, ^uint64(0))
	fail = failMask>>uint(lane)&1 == 1
	othersClean = failMask&^(1<<uint(lane)) == 0
	return fail, othersClean, model.Sites()
}
