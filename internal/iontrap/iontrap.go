// Package iontrap models the physical technology layer of the QLA
// microarchitecture: trapped-ion (QCCD) operation latencies and component
// failure rates as published in Table 1 of Metodi et al., MICRO 2005.
//
// The package is deliberately free of simulation logic: it is the single
// source of truth for "what does a physical operation cost and how often
// does it fail", consumed by the noise models, the latency engine and the
// resource estimators.
package iontrap

import (
	"fmt"
	"time"
)

// OpClass enumerates the physical operation classes of Table 1.
type OpClass int

const (
	// OpSingle is a one-qubit laser gate (X, Z, H, S, ...).
	OpSingle OpClass = iota
	// OpDouble is a two-qubit gate between ions in a shared trap region.
	OpDouble
	// OpMeasure is state-dependent resonance-fluorescence readout.
	OpMeasure
	// OpMoveCell is ballistic shuttling across one 20 µm grid cell.
	OpMoveCell
	// OpSplit separates an ion from a linear chain to start a move.
	OpSplit
	// OpCorner turns a corner at a QCCD channel intersection
	// (the paper charges it at the split cost).
	OpCorner
	// OpCool is one sympathetic-recooling step.
	OpCool
	// OpPrep initializes an ion to |0> (charged as a single-qubit op).
	OpPrep
	// OpMemory is one idle "memory slot": the per-operation decoherence
	// of a resting ion, derived from the 10-100 s lifetime.
	OpMemory

	numOpClasses
)

// String returns the Table-1 row name for the op class.
func (c OpClass) String() string {
	switch c {
	case OpSingle:
		return "single-gate"
	case OpDouble:
		return "double-gate"
	case OpMeasure:
		return "measure"
	case OpMoveCell:
		return "move-cell"
	case OpSplit:
		return "split"
	case OpCorner:
		return "corner"
	case OpCool:
		return "cooling"
	case OpPrep:
		return "prepare"
	case OpMemory:
		return "memory"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// NumOpClasses is the number of distinct physical operation classes.
const NumOpClasses = int(numOpClasses)

// Params bundles the per-op latencies and failure probabilities used by a
// QLA model instance. Durations are in seconds; probabilities are per
// operation (for OpMoveCell, per cell traversed).
type Params struct {
	Name string

	// Time holds the latency of each op class in seconds.
	Time [NumOpClasses]float64
	// Fail holds the failure probability of each op class.
	Fail [NumOpClasses]float64

	// CellSizeUM is the trap/cell pitch in micrometers (paper: 20 µm).
	CellSizeUM float64
	// MemoryLifetime is the qubit lifetime in seconds (paper: 10-100 s).
	MemoryLifetime float64
}

// Table-1 latencies, shared by the current and expected parameter sets.
//
// The paper quotes movement two ways: 10 ns/µm in Table 1 (local,
// within-trap shuttling) and "a single trap can be traversed with a time
// cost of T = 0.01 µs" for pipelined ballistic channel transport
// (Section 2.1). Channel transport dominates QLA communication, so
// OpMoveCell uses the 0.01 µs/cell figure.
const (
	TimeSingle   = 1e-6   // 1 µs
	TimeDouble   = 10e-6  // 10 µs
	TimeMeasure  = 100e-6 // 100 µs
	TimeMoveCell = 0.01e-6
	TimeSplit    = 10e-6
	TimeCorner   = 10e-6 // "corner-turning speed equivalent to splitting"
	TimeCool     = 1e-6
	TimePrep     = 1e-6

	// CellSizeUM is the default trap separation (ARDA roadmap scaling).
	CellSizeUM = 20.0
)

func baseTimes() [NumOpClasses]float64 {
	var t [NumOpClasses]float64
	t[OpSingle] = TimeSingle
	t[OpDouble] = TimeDouble
	t[OpMeasure] = TimeMeasure
	t[OpMoveCell] = TimeMoveCell
	t[OpSplit] = TimeSplit
	t[OpCorner] = TimeCorner
	t[OpCool] = TimeCool
	t[OpPrep] = TimePrep
	t[OpMemory] = TimeSingle // an idle slot is charged at one gate time
	return t
}

// Current returns the experimentally achieved failure rates (Table 1,
// column Pcurrent: NIST 9Be+ data with 24Mg+ sympathetic cooling).
func Current() Params {
	p := Params{
		Name:           "current",
		Time:           baseTimes(),
		CellSizeUM:     CellSizeUM,
		MemoryLifetime: 10,
	}
	p.Fail[OpSingle] = 1e-4
	p.Fail[OpDouble] = 0.03
	p.Fail[OpMeasure] = 0.01
	// Table 1: 0.005/µm -> per 20 µm cell.
	p.Fail[OpMoveCell] = 0.005 * CellSizeUM
	p.Fail[OpSplit] = 0.005 * CellSizeUM // charged like one cell of motion
	p.Fail[OpCorner] = 0.005 * CellSizeUM
	p.Fail[OpCool] = 0
	p.Fail[OpPrep] = 1e-4
	p.Fail[OpMemory] = memoryFailPerOp(10)
	return p
}

// Expected returns the projected failure rates (Table 1, column Pexpected:
// ARDA-roadmap extrapolation) used to model QLA performance.
func Expected() Params {
	p := Params{
		Name:           "expected",
		Time:           baseTimes(),
		CellSizeUM:     CellSizeUM,
		MemoryLifetime: 100,
	}
	p.Fail[OpSingle] = 1e-8
	p.Fail[OpDouble] = 1e-7
	p.Fail[OpMeasure] = 1e-8
	p.Fail[OpMoveCell] = 1e-6 // per cell
	p.Fail[OpSplit] = 1e-6
	p.Fail[OpCorner] = 1e-6
	p.Fail[OpCool] = 0
	p.Fail[OpPrep] = 1e-8
	p.Fail[OpMemory] = memoryFailPerOp(100)
	return p
}

// memoryFailPerOp converts a memory lifetime into a per-gate-time idle error
// probability: p = t_gate / lifetime for one single-gate-duration slot.
func memoryFailPerOp(lifetimeSec float64) float64 {
	return TimeSingle / lifetimeSec
}

// Uniform returns a parameter set whose gate, measurement and preparation
// failure rates all equal p. Movement keeps the supplied per-cell rate.
// This is the knob used by the Figure-7 threshold sweep ("we fixed the
// movement failure rate to be the expected rate, but varied the rest").
func Uniform(p, movePerCell float64) Params {
	ps := Params{
		Name:           fmt.Sprintf("uniform(%.3g)", p),
		Time:           baseTimes(),
		CellSizeUM:     CellSizeUM,
		MemoryLifetime: 100,
	}
	ps.Fail[OpSingle] = p
	ps.Fail[OpDouble] = p
	ps.Fail[OpMeasure] = p
	ps.Fail[OpMoveCell] = movePerCell
	ps.Fail[OpSplit] = movePerCell
	ps.Fail[OpCorner] = movePerCell
	ps.Fail[OpCool] = 0
	ps.Fail[OpPrep] = p
	ps.Fail[OpMemory] = 0
	return ps
}

// AverageComponentFailure is the paper's p0: the mean of the single-gate,
// double-gate, measurement and per-cell movement failure probabilities.
// Section 4.1.2 feeds this into Equation 2.
func (p Params) AverageComponentFailure() float64 {
	return (p.Fail[OpSingle] + p.Fail[OpDouble] + p.Fail[OpMeasure] + p.Fail[OpMoveCell]) / 4
}

// MoveTime returns the ballistic-channel latency for a path: the split cost
// plus per-cell transport plus corner turns. This is the paper's
// (tau + T×D) channel latency model extended with corner costs.
func (p Params) MoveTime(cells, corners int) float64 {
	if cells < 0 || corners < 0 {
		panic("iontrap: negative path component")
	}
	if cells == 0 && corners == 0 {
		return 0
	}
	return p.Time[OpSplit] + float64(cells)*p.Time[OpMoveCell] + float64(corners)*p.Time[OpCorner]
}

// MoveFailure returns the probability that a ballistic move over the given
// path corrupts the ion, treating per-cell and per-corner failures as
// independent.
func (p Params) MoveFailure(cells, corners int) float64 {
	if cells < 0 || corners < 0 {
		panic("iontrap: negative path component")
	}
	surv := 1.0
	for i := 0; i < cells; i++ {
		surv *= 1 - p.Fail[OpMoveCell]
	}
	for i := 0; i < corners; i++ {
		surv *= 1 - p.Fail[OpCorner]
	}
	return 1 - surv
}

// ChannelBandwidthQBPS returns the pipelined ballistic channel bandwidth in
// qubits per second: one ion delivered per per-cell transport interval.
// With T = 0.01 µs this is the paper's ~100 Mqbps.
func (p Params) ChannelBandwidthQBPS() float64 {
	return 1 / p.Time[OpMoveCell]
}

// Duration converts one op-class latency to a time.Duration for display.
func (p Params) Duration(c OpClass) time.Duration {
	return time.Duration(p.Time[c] * float64(time.Second))
}

// Validate checks internal consistency of a parameter set.
func (p Params) Validate() error {
	for c := 0; c < NumOpClasses; c++ {
		if p.Time[c] < 0 {
			return fmt.Errorf("iontrap: %v has negative time %g", OpClass(c), p.Time[c])
		}
		if p.Fail[c] < 0 || p.Fail[c] > 1 {
			return fmt.Errorf("iontrap: %v has failure probability %g outside [0,1]", OpClass(c), p.Fail[c])
		}
	}
	if p.CellSizeUM <= 0 {
		return fmt.Errorf("iontrap: non-positive cell size %g", p.CellSizeUM)
	}
	return nil
}
