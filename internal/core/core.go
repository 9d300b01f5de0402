// Package core composes the QLA microarchitecture model — the paper's
// primary contribution: an array of level-2 Steane-encoded logical qubits
// (Figure 5) on a QCCD substrate, connected by a teleportation-island
// interconnect (Figure 1), with error correction as the clock tick.
//
// The Machine answers architecture-level questions: what does a logical
// gate cost, can a given communication hide under the EC step, what is the
// logical failure rate, how large a computation fits, how long does a
// mapped circuit run.
package core

import (
	"fmt"

	"qla/internal/circuit"
	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/layout"
	"qla/internal/teleport"
)

// Machine is a configured QLA instance.
type Machine struct {
	Params    iontrap.Params
	Floorplan layout.Floorplan
	Latency   *ft.LatencyModel
	Link      teleport.LinkParams
	Level     int // recursion level of every logical qubit
	Bandwidth int // physical channels per direction (paper: 2)

	ecStep float64
}

// Option configures a Machine.
type Option func(*Machine)

// WithParams overrides the technology parameters (default: Expected).
func WithParams(p iontrap.Params) Option {
	return func(m *Machine) { m.Params = p }
}

// WithLevel overrides the recursion level (default 2).
func WithLevel(level int) Option {
	return func(m *Machine) { m.Level = level }
}

// WithBandwidth overrides the channel bandwidth (default 2).
func WithBandwidth(b int) Option {
	return func(m *Machine) { m.Bandwidth = b }
}

// New builds a QLA machine holding the given number of logical qubits.
func New(logicalQubits int, opts ...Option) (*Machine, error) {
	fp, err := layout.NewFloorplan(logicalQubits)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Params:    iontrap.Expected(),
		Floorplan: fp,
		Link:      teleport.DefaultLinkParams(),
		Level:     2,
		Bandwidth: 2,
	}
	for _, o := range opts {
		o(m)
	}
	if m.Level < 1 || m.Level > 4 {
		return nil, fmt.Errorf("core: recursion level %d out of the modeled range [1,4]", m.Level)
	}
	if m.Bandwidth < 1 {
		return nil, fmt.Errorf("core: bandwidth must be at least 1")
	}
	if err := m.Params.Validate(); err != nil {
		return nil, err
	}
	m.Latency = ft.NewLatencyModel(m.Params)
	m.Link.P = m.Params
	m.ecStep = m.Latency.ECTime(m.Level)
	return m, nil
}

// LogicalQubits returns the machine's capacity.
func (m *Machine) LogicalQubits() int { return m.Floorplan.Q }

// ECStepTime is the architecture's clock tick: one level-L error
// correction step (0.043 s at level 2 under expected parameters).
func (m *Machine) ECStepTime() float64 { return m.ecStep }

// AreaM2 returns the chip area.
func (m *Machine) AreaM2() float64 { return m.Floorplan.AreaM2() }

// PhysicalIons returns the number of ions on the machine: every logical
// qubit tile carries a full Figure-5 structure (21 level-1 groups of 21
// ions) plus verification banks.
func (m *Machine) PhysicalIons() int {
	perTile := 21*21 + 2*49 // data+ancilla conglomerations + verification banks
	return m.Floorplan.Q * perTile
}

// LogicalFailureRate evaluates Equation 2 at the machine's level with the
// empirical QLA threshold.
func (m *Machine) LogicalFailureRate() float64 {
	return ft.GottesmanFailure(m.Params.AverageComponentFailure(), ft.PthEmpiricalQLA,
		float64(layout.InterBlockCells), m.Level)
}

// MaxComputationSize returns S = K·Q supportable at the machine's logical
// failure rate.
func (m *Machine) MaxComputationSize() float64 {
	return ft.MaxSystemSize(m.LogicalFailureRate())
}

// CommunicationTime plans a teleportation connection between two logical
// qubits and returns its latency.
func (m *Machine) CommunicationTime(a, b int) (float64, error) {
	d := m.Floorplan.DistanceCells(a, b)
	if d == 0 {
		return 0, nil
	}
	_, t, err := m.Link.BestSeparation(d)
	return t, err
}

// Overlapped reports whether the communication between two logical qubits
// hides entirely under one EC step (the paper's headline interconnect
// property: "the complete overlap between communication and computation").
func (m *Machine) Overlapped(a, b int) (bool, error) {
	t, err := m.CommunicationTime(a, b)
	if err != nil {
		return false, err
	}
	return t <= m.ecStep, nil
}

// Report summarizes the estimated execution of a mapped circuit.
type Report struct {
	LogicalQubits  int
	ECSteps        int64
	Seconds        float64
	CommOverlapped int // two-qubit gates whose communication hid under EC
	CommExposed    int // two-qubit gates that stalled on communication
	ExtraCommTime  float64
	FailureBudget  float64 // S consumed / S available
}

// EstimateCircuit walks a logical circuit mapped onto the machine
// (placement[i] = tile of circuit qubit i; nil means identity) and
// estimates its wall-clock time, charging one EC step per logical gate
// layer and checking communication overlap for two-qubit gates.
func (m *Machine) EstimateCircuit(c *circuit.Circuit, placement []int) (Report, error) {
	if placement == nil {
		placement = make([]int, c.N)
		for i := range placement {
			placement[i] = i
		}
	}
	if len(placement) != c.N {
		return Report{}, fmt.Errorf("core: placement covers %d of %d qubits", len(placement), c.N)
	}
	for _, p := range placement {
		if p < 0 || p >= m.Floorplan.Q {
			return Report{}, fmt.Errorf("core: placement target %d outside the %d-qubit machine", p, m.Floorplan.Q)
		}
	}
	var rep Report
	rep.LogicalQubits = c.N
	for _, l := range c.Layers() {
		rep.ECSteps++ // one EC step per logical layer
		for _, op := range l {
			if !op.Type.IsTwoQubit() {
				continue
			}
			t, err := m.CommunicationTime(placement[op.Q[0]], placement[op.Q[1]])
			if err != nil {
				return Report{}, fmt.Errorf("core: qubits %d-%d unreachable: %w", op.Q[0], op.Q[1], err)
			}
			if t <= m.ecStep {
				rep.CommOverlapped++
			} else {
				rep.CommExposed++
				rep.ExtraCommTime += t - m.ecStep
			}
		}
	}
	rep.Seconds = float64(rep.ECSteps)*m.ecStep + rep.ExtraCommTime
	ops := float64(len(c.Ops))
	rep.FailureBudget = ops * float64(c.N) / m.MaxComputationSize()
	return rep, nil
}
