package threshold

import (
	"qla/internal/iontrap"
	"qla/internal/layout"
	"qla/internal/noise"
	"qla/internal/pauliframe"
	"qla/internal/steane"
)

// scalarExec is the reference oracle: it runs the schedule for one
// trial in lane 0, over its own one-trial Pauli frame, a noise model
// that samples every site by its own Bernoulli draw, and steane's scalar
// decoders. Every step it is handed includes lane 0 (the trial's active
// mask is 1, and the schedule issues no empty step), so it ignores the
// masks.
type scalarExec struct {
	f *pauliframe.Frame
	m *noise.Model
}

func newScalarExec(level int, m *noise.Model) *scalarExec {
	return &scalarExec{f: pauliframe.New(frameSize(level)), m: m}
}

func (e *scalarExec) prep(q [7]int, _ uint64) {
	for _, i := range q {
		e.f.Reset(i)
		e.m.PrepError(e.f, i)
	}
}

func (e *scalarExec) h(q [7]int, _ uint64) {
	for _, i := range q {
		e.h1(i)
	}
}

func (e *scalarExec) h1(q int) {
	e.f.H(q)
	e.m.GateError1(e.f, q)
}

func (e *scalarExec) encode(q [7]int, _ uint64) {
	for _, p := range encoderPivots {
		e.h1(q[p])
	}
	for _, p := range encoderCNOTs {
		e.cnot1(q[p[0]], q[p[1]], q[p[1]], layout.IntraBlockGateMove())
	}
}

func (e *scalarExec) cnot(c, t, travel [7]int, inter bool, _ uint64) {
	mv := layout.IntraBlockGateMove()
	if inter {
		mv = layout.InterBlockGateMove()
	}
	for i := 0; i < 7; i++ {
		e.cnot1(c[i], t[i], travel[i], mv)
	}
}

func (e *scalarExec) cnot1(c, t, travel int, mv layout.GateMove) {
	e.m.MoveError(e.f, travel, mv.Cells, mv.Corners)
	e.f.CNOT(c, t)
	e.m.GateError2(e.f, c, t)
}

func (e *scalarExec) measure(q [7]int, xBasis bool, _ uint64) (w [7]uint64) {
	for i, qi := range q {
		if xBasis {
			// Physical X-basis readout: H then fluorescence readout.
			e.h1(qi)
		}
		w[i] = uint64(e.f.MeasureZ(qi) ^ e.m.MeasureFlip())
	}
	return w
}

func (e *scalarExec) pauli(q int, x, z bool, _ uint64) {
	if x {
		e.f.InjectX(q)
	}
	if z {
		e.f.InjectZ(q)
	}
	e.m.GateError1(e.f, q)
}

func (e *scalarExec) frame(q [7]int) (x, z [7]uint64) {
	for i, qi := range q {
		if e.f.XBit(qi) {
			x[i] = 1
		}
		if e.f.ZBit(qi) {
			z[i] = 1
		}
	}
	return x, z
}

func (e *scalarExec) syndrome(w [7]uint64) (s0, s1, s2 uint64) {
	v := uint64(steane.Syndrome(lane0(w)))
	return v & 1, v >> 1 & 1, v >> 2
}

func (e *scalarExec) decode(w [7]uint64) uint64 { return uint64(steane.DecodeBlock(lane0(w))) }

// lane0 is lane 0's 7-bit word.
func lane0(w [7]uint64) (bits [7]int) {
	for i, m := range w {
		bits[i] = int(m & 1)
	}
	return bits
}

// runTrial simulates one logical one-qubit gate followed by error
// correction at the configured level, returning failure and syndrome
// statistics for the top level.
func runTrial(cfg Config, trial uint64) blockStats {
	params := iontrap.Uniform(cfg.PhysError, cfg.MovePerCell)
	seed := cfg.Seed ^ (trial+1)*0x9e3779b97f4a7c15 ^ uint64(cfg.Level)<<60
	_, st := gadget(newScalarExec(cfg.Level, noise.NewModel(params, seed)), cfg.Level, 1)
	return st
}

// SingleFaultTrial runs one level-1 or level-2 trial with exactly one
// forced error at the given noise site (choice selects the error variant;
// see noise.Model) and no other noise anywhere. It reports whether the
// trial ended in logical failure and how many sites the trial visited.
// Running with site < 0 injects nothing (a clean census pass).
//
// This is the fault-tolerance verifier: a correct gadget never fails under
// any single fault.
func SingleFaultTrial(level int, site int64, choice int) (fail bool, totalSites int64) {
	model := noise.NewModel(iontrap.Uniform(0, 0), 1)
	model.ForceEnabled = true
	model.ForceSite = site
	model.ForceChoice = choice
	if site < 0 {
		model.ForceSite = -1 << 62
	}
	failMask, _ := gadget(newScalarExec(level, model), level, 1)
	return failMask == 1, model.Sites()
}
