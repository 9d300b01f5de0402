// Package control models the classical resources that drive a QLA
// machine — the part of the system the paper's Section 6 singles out as
// decisive for physical realization: "the control of lasers for precise
// manipulation of thousands of logical qubits; the amount of laser
// power possible; the number of photodetectors required for
// measurement; and even the wiring of the electrodes".
//
// Given a timed pulse schedule (the output of the ARQ lowering pass,
// internal/arq.Job.Lower), the package computes:
//
//   - the peak number of simultaneously firing lasers, both with one
//     laser per ion and under SIMD grouping, where simultaneous pulses
//     of the same gate type share a single laser fanned out through a
//     MEMS mirror array (the Lucent LambdaRouter technique the paper
//     cites in Section 3);
//   - the photodetector count (peak concurrent fluorescence readouts);
//   - the classical-control event rate the surrounding processors must
//     sustain, compared against the paper's observation that quantum
//     latencies are orders of magnitude above classical ones.
package control

import (
	"sort"

	"qla/internal/arq"
	"qla/internal/circuit"
)

// Budget is the classical-resource bill for one pulse schedule.
type Budget struct {
	// Ops is the number of scheduled pulses.
	Ops int
	// Makespan is the schedule's wall-clock span in seconds.
	Makespan float64
	// PeakLasers is the peak number of concurrent laser pulses with a
	// dedicated laser per target (no sharing).
	PeakLasers int
	// PeakLasersSIMD is the peak laser count when concurrent pulses of
	// the same gate type share one laser through MEMS fanout.
	PeakLasersSIMD int
	// PeakDetectors is the peak number of concurrent measurements.
	PeakDetectors int
	// MeanEventRate is scheduled pulses per second over the makespan —
	// the classical dispatch rate the control processors must sustain.
	MeanEventRate float64
	// PeakEventRate is the largest number of pulse starts in any
	// window of EventWindow seconds.
	PeakEventRate float64
	// EventWindow is the sliding window used for PeakEventRate.
	EventWindow float64
}

// Option configures AnalyzeSchedule.
type Option func(*config)

type config struct {
	eventWindow float64
}

// WithEventWindow sets the sliding window (in seconds) used for the
// peak control-event rate; non-positive keeps the 10 µs default.
func WithEventWindow(seconds float64) Option {
	return func(c *config) { c.eventWindow = seconds }
}

// AnalyzeSchedule computes the classical-resource budget of a pulse
// schedule under functional options (the Engine-era entry point;
// Analyze remains for positional callers).
func AnalyzeSchedule(pulses []arq.PulseOp, opts ...Option) Budget {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return Analyze(pulses, cfg.eventWindow)
}

// laserDriven reports whether the op class is implemented by a laser
// pulse (gates, preparation and measurement are; pure transport is
// electrode-driven).
func laserDriven(t circuit.OpType) bool {
	return t != circuit.Move
}

type edge struct {
	t     float64
	delta int
	kind  circuit.OpType
}

// Analyze computes the classical-resource budget of a pulse schedule.
// The event window defaults to 10 µs when non-positive.
func Analyze(pulses []arq.PulseOp, eventWindow float64) Budget {
	if eventWindow <= 0 {
		eventWindow = 10e-6
	}
	b := Budget{Ops: len(pulses), EventWindow: eventWindow}
	if len(pulses) == 0 {
		return b
	}

	var edges []edge
	var starts []float64
	for _, p := range pulses {
		if end := p.Start + p.Duration; end > b.Makespan {
			b.Makespan = end
		}
		starts = append(starts, p.Start)
		if !laserDriven(p.Op.Type) {
			continue
		}
		edges = append(edges, edge{p.Start, +1, p.Op.Type})
		edges = append(edges, edge{p.Start + p.Duration, -1, p.Op.Type})
	}
	// Peak concurrency sweeps: ends sort before starts at equal time so
	// back-to-back pulses on one qubit need one laser, not two.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	cur := 0
	curByType := map[circuit.OpType]int{}
	curDetectors := 0
	simdPeak := 0
	for _, e := range edges {
		cur += e.delta
		curByType[e.kind] += e.delta
		if e.kind.IsMeasurement() {
			curDetectors += e.delta
		}
		if cur > b.PeakLasers {
			b.PeakLasers = cur
		}
		if curDetectors > b.PeakDetectors {
			b.PeakDetectors = curDetectors
		}
		simd := 0
		for _, n := range curByType {
			if n > 0 {
				simd++
			}
		}
		if simd > simdPeak {
			simdPeak = simd
		}
	}
	b.PeakLasersSIMD = simdPeak

	if b.Makespan > 0 {
		b.MeanEventRate = float64(len(pulses)) / b.Makespan
	}
	// Peak dispatch rate over a sliding window.
	sort.Float64s(starts)
	lo := 0
	peak := 0
	for hi := range starts {
		for starts[hi]-starts[lo] > eventWindow {
			lo++
		}
		if n := hi - lo + 1; n > peak {
			peak = n
		}
	}
	b.PeakEventRate = float64(peak) / eventWindow
	return b
}

// ClassicalHeadroom returns the ratio between the control deadline (one
// single-qubit gate time, the shortest quantum latency) and a classical
// processor cycle at the given clock rate: how many classical cycles
// fit inside the tightest quantum scheduling window. The paper argues
// this ratio is large ("several orders of magnitude"), making run-time
// scheduling by classical processors easy.
func ClassicalHeadroom(gateSeconds float64, clockHz float64) float64 {
	if gateSeconds <= 0 || clockHz <= 0 {
		return 0
	}
	return gateSeconds * clockHz
}
