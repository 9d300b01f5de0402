// Package shor implements the workload model of Section 5: resource and
// latency estimation for Shor's factoring algorithm on the QLA, built on
// the quantum carry-lookahead adder (QCLA, Draper et al.) and the Van
// Meter–Itoh latency-optimized modular exponentiation, with the
// fault-tolerant Toffoli cost model (15 + 6 error-correction steps).
//
// The closed forms reproduce Table 2:
//
//	logical qubits  Q(N) = 294·N − 48·⌈log2 N⌉ + 675        (exact)
//	Toffoli depth   T(N) = 2N · (⌈log2 N⌉+2) · 4⌈log2 N⌉    (within ~2%)
//	total gates     G(N) = T(N) + 2N² + 20.4·N·⌈log2 N⌉     (within ~1%)
//	area            A(N) = Q(N) · 7473 cells · (20 µm)²     (exact)
//	time            (21·T(N) + QFT(N)) · T(2,ecc) · 1.3 retries
package shor

import (
	"fmt"
	"math"

	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/layout"
)

// Repetitions is the expected number of algorithm repetitions: "assuming
// success of all the gates, the circuit is repeated on average 1.3 times".
const Repetitions = 1.3

// Log2Ceil returns ⌈log2 n⌉ for n ≥ 1.
func Log2Ceil(n int) int {
	if n <= 0 {
		panic("shor: log2 of non-positive value")
	}
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

// QCLAToffoliDepth is the Toffoli-gate latency of one n-bit quantum
// carry-lookahead addition: "4·log2 n Toffoli gates, 4 CNOTs and 2 NOTs".
func QCLAToffoliDepth(n int) int {
	return 4 * Log2Ceil(n)
}

// MultiplierCalls is IM: the number of calls to the modular multiplier
// (one per bit of the 2N-bit exponent register).
func MultiplierCalls(n int) int { return 2 * n }

// AdderCallsPerMultiply is MAC: adder invocations per modular
// multiplication after the argument-indirection optimization of Van
// Meter–Itoh ("ArgSet refers to the technique of indirection which allows
// us to reduce the number of multiplications"): ⌈log2 N⌉ + 2.
func AdderCallsPerMultiply(n int) int { return Log2Ceil(n) + 2 }

// LogicalQubits is Q(N): the Table-2 logical-qubit count (closed form
// reproducing all four table entries exactly).
func LogicalQubits(n int) int {
	return 294*n - 48*Log2Ceil(n) + 675
}

// ToffoliDepth is T(N): the serial (critical-path) Toffoli count of the
// modular exponentiation, IM × MAC × QCLA depth.
func ToffoliDepth(n int) int64 {
	return int64(MultiplierCalls(n)) * int64(AdderCallsPerMultiply(n)) * int64(QCLAToffoliDepth(n))
}

// TotalGates is G(N): the Table-2 total gate count; the non-Toffoli work
// is dominated by the 2N² CNOTs of the multiplication network plus the
// adders' CNOT/NOT terms (coefficient calibrated to Table 2, see
// DESIGN.md §6).
func TotalGates(n int) int64 {
	nonToffoli := 2*int64(n)*int64(n) + int64(math.Round(20.4*float64(n)*float64(Log2Ceil(n))))
	return ToffoliDepth(n) + nonToffoli
}

// QFTSteps is the error-correction-step cost of the final quantum Fourier
// transform on the 2N-bit register, using a banded (approximate) QFT of
// depth 2N·(log2(2N)+2).
func QFTSteps(n int) int64 {
	return int64(2*n) * int64(Log2Ceil(2*n)+2)
}

// ECSteps is the total number of level-2 error-correction steps on the
// critical path: 21 per Toffoli plus the QFT ("The error correction steps
// of the entire algorithm amount to 21×63730 + QFT = 1.34×10⁶" for N=128).
func ECSteps(n int) int64 {
	return int64(ft.ToffoliECSteps)*ToffoliDepth(n) + QFTSteps(n)
}

// Resources is one row of Table 2 plus derived quantities.
type Resources struct {
	N             int
	LogicalQubits int
	ToffoliDepth  int64
	TotalGates    int64
	QFTSteps      int64
	ECSteps       int64
	AreaM2        float64
	TimeSeconds   float64 // one algorithm run
	TimeDays      float64 // including Repetitions
	TimeHours     float64 // including Repetitions
	SystemSize    float64 // S = K·Q
	ECStepSeconds float64 // the T(2,ecc) used
}

// Estimate computes the full Table-2 row for factoring an N-bit number,
// using the Equation-1 latency model at level-2 recursion over the given
// technology parameters.
func Estimate(n int, p iontrap.Params) (Resources, error) {
	if n < 8 {
		return Resources{}, fmt.Errorf("shor: modulus of %d bits is below the model's range", n)
	}
	ecc := ft.NewLatencyModel(p).ECTime(2)
	q := LogicalQubits(n)
	steps := ECSteps(n)
	oneRun := float64(steps) * ecc
	return Resources{
		N:             n,
		LogicalQubits: q,
		ToffoliDepth:  ToffoliDepth(n),
		TotalGates:    TotalGates(n),
		QFTSteps:      QFTSteps(n),
		ECSteps:       steps,
		AreaM2:        float64(q) * layout.TilePitchAreaM2(),
		TimeSeconds:   oneRun,
		TimeDays:      oneRun * Repetitions / 86400,
		TimeHours:     oneRun * Repetitions / 3600,
		SystemSize:    float64(steps) * float64(q),
		ECStepSeconds: ecc,
	}, nil
}

// Table2Sizes are the moduli evaluated in Table 2.
var Table2Sizes = []int{128, 512, 1024, 2048}

// Table2 computes all four Table-2 rows under the expected parameters.
func Table2() ([]Resources, error) {
	var rows []Resources
	for _, n := range Table2Sizes {
		r, err := Estimate(n, iontrap.Expected())
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// PaperTable2 holds the values printed in the paper, for side-by-side
// comparison in EXPERIMENTS.md and the benchmark harness.
var PaperTable2 = map[int]struct {
	LogicalQubits int
	Toffoli       int64
	TotalGates    int64
	AreaM2        float64
	TimeDays      float64
}{
	128:  {37971, 63729, 115033, 0.11, 0.9},
	512:  {150771, 397910, 1016295, 0.45, 5.5},
	1024: {301251, 964919, 3270582, 0.90, 13.4},
	2048: {602259, 2301767, 11148214, 1.80, 32.1},
}

// ClassicalNFSSeconds estimates the classical number-field-sieve runtime
// for an n-bit modulus in MIPS-years-equivalent seconds, anchored to the
// paper's reference point: a 512-bit factorization took 8400 MIPS-years.
//
//	L(N) = exp((1.923+o(1)) (ln N)^(1/3) (ln ln N)^(2/3))
func ClassicalNFSMIPSYears(nBits int) float64 {
	lnN := float64(nBits) * math.Ln2
	l := func(ln float64) float64 {
		return math.Exp(1.923 * math.Cbrt(ln) * math.Pow(math.Log(ln), 2.0/3.0))
	}
	anchor := 512.0 * math.Ln2
	return 8400 * l(lnN) / l(anchor)
}
