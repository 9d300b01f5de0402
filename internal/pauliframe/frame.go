// Package pauliframe implements Pauli-frame simulation: tracking only the
// error displacement of a noisy Clifford circuit relative to its noiseless
// reference execution.
//
// For stabilizer circuits with Pauli noise this is exactly equivalent to
// full stabilizer simulation (the frame commutes through Clifford gates by
// conjugation), but costs O(1) per gate instead of O(n). It is the fast
// path used for the paper's Figure-7 threshold Monte Carlo, where millions
// of level-2 error-correction circuits must be sampled.
//
// Two layouts are provided: Frame simulates one trial (one bit per qubit
// per error component), and Batch bit-slices 64 independent trials into
// each word (see batch.go), turning gate propagation and measurement into
// branch-free lane-parallel bitwise operations.
//
// Measurement semantics: MeasureZ returns the bit by which the noisy
// outcome differs from the noiseless reference outcome. Circuits whose
// decoded quantities (syndromes, verification parities, logical parities)
// are deterministically zero in the noiseless run — which holds for all the
// fault-tolerant gadgets in this repository — can therefore treat the
// returned bit directly as the measured value.
package pauliframe

import (
	"fmt"
	"math/bits"

	"qla/internal/pauli"
)

// Frame is the Pauli error frame over n qubits.
type Frame struct {
	n int
	x []uint64
	z []uint64
}

// New returns an empty (all-identity) frame over n qubits.
func New(n int) *Frame {
	if n <= 0 {
		panic("pauliframe: number of qubits must be positive")
	}
	w := (n + 63) / 64
	return &Frame{n: n, x: make([]uint64, w), z: make([]uint64, w)}
}

// N returns the number of qubits.
func (f *Frame) N() int { return f.n }

func (f *Frame) check(q int) {
	if q < 0 || q >= f.n {
		panic(fmt.Sprintf("pauliframe: qubit %d out of range [0,%d)", q, f.n))
	}
}

// XBit reports whether the frame has an X error component on q.
func (f *Frame) XBit(q int) bool { f.check(q); return f.x[q/64]>>(uint(q)%64)&1 == 1 }

// ZBit reports whether the frame has a Z error component on q.
func (f *Frame) ZBit(q int) bool { f.check(q); return f.z[q/64]>>(uint(q)%64)&1 == 1 }

// InjectX multiplies an X error onto qubit q.
func (f *Frame) InjectX(q int) { f.check(q); f.x[q/64] ^= 1 << (uint(q) % 64) }

// InjectZ multiplies a Z error onto qubit q.
func (f *Frame) InjectZ(q int) { f.check(q); f.z[q/64] ^= 1 << (uint(q) % 64) }

// InjectY multiplies a Y error onto qubit q.
func (f *Frame) InjectY(q int) { f.InjectX(q); f.InjectZ(q) }

// Inject multiplies the k-th non-identity Pauli (0=X, 1=Y, 2=Z) onto q;
// used by depolarizing samplers.
func (f *Frame) Inject(q, k int) {
	switch k {
	case 0:
		f.InjectX(q)
	case 1:
		f.InjectY(q)
	case 2:
		f.InjectZ(q)
	default:
		panic("pauliframe: Inject index out of range")
	}
}

// --- Clifford propagation (conjugation of the frame) ---

// H propagates the frame through a Hadamard on q (X <-> Z).
func (f *Frame) H(q int) {
	f.check(q)
	w, m := q/64, uint64(1)<<(uint(q)%64)
	xb, zb := f.x[w]&m, f.z[w]&m
	if (xb != 0) != (zb != 0) {
		f.x[w] ^= m
		f.z[w] ^= m
	}
}

// S propagates the frame through a phase gate on q (X -> Y).
func (f *Frame) S(q int) {
	f.check(q)
	w, m := q/64, uint64(1)<<(uint(q)%64)
	if f.x[w]&m != 0 {
		f.z[w] ^= m
	}
}

// Sdg propagates the frame through an inverse phase gate (same bit action
// as S; the sign difference is invisible to the frame).
func (f *Frame) Sdg(q int) { f.S(q) }

// CNOT propagates the frame through a controlled-NOT: X errors copy
// control->target, Z errors copy target->control.
func (f *Frame) CNOT(c, t int) {
	f.check(c)
	f.check(t)
	cw, cm := c/64, uint64(1)<<(uint(c)%64)
	tw, tm := t/64, uint64(1)<<(uint(t)%64)
	if f.x[cw]&cm != 0 {
		f.x[tw] ^= tm
	}
	if f.z[tw]&tm != 0 {
		f.z[cw] ^= cm
	}
}

// CZ propagates the frame through a controlled-Z.
func (f *Frame) CZ(a, b int) {
	f.check(a)
	f.check(b)
	aw, am := a/64, uint64(1)<<(uint(a)%64)
	bw, bm := b/64, uint64(1)<<(uint(b)%64)
	if f.x[aw]&am != 0 {
		f.z[bw] ^= bm
	}
	if f.x[bw]&bm != 0 {
		f.z[aw] ^= am
	}
}

// SWAP exchanges the frame bits of a and b.
func (f *Frame) SWAP(a, b int) {
	f.check(a)
	f.check(b)
	ax, az := f.XBit(a), f.ZBit(a)
	bx, bz := f.XBit(b), f.ZBit(b)
	f.setX(a, bx)
	f.setZ(a, bz)
	f.setX(b, ax)
	f.setZ(b, az)
}

func (f *Frame) setX(q int, v bool) {
	w, m := q/64, uint64(1)<<(uint(q)%64)
	if v {
		f.x[w] |= m
	} else {
		f.x[w] &^= m
	}
}

func (f *Frame) setZ(q int, v bool) {
	w, m := q/64, uint64(1)<<(uint(q)%64)
	if v {
		f.z[w] |= m
	} else {
		f.z[w] &^= m
	}
}

// MeasureZ returns the Z-basis outcome flip of qubit q (1 when the frame
// carries an X component) and leaves the frame untouched; the measured
// qubit's post-measurement Z component is irrelevant and cleared.
func (f *Frame) MeasureZ(q int) int {
	f.check(q)
	out := 0
	if f.XBit(q) {
		out = 1
	}
	f.setZ(q, false)
	return out
}

// MeasureX returns the X-basis outcome flip (1 when the frame carries a Z
// component); the X component is cleared.
func (f *Frame) MeasureX(q int) int {
	f.check(q)
	out := 0
	if f.ZBit(q) {
		out = 1
	}
	f.setX(q, false)
	return out
}

// Reset clears the frame on q (fresh |0⟩ preparation discards errors).
func (f *Frame) Reset(q int) {
	f.setX(q, false)
	f.setZ(q, false)
}

// Clear empties the whole frame.
func (f *Frame) Clear() {
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
}

// Weight returns the number of qubits carrying a non-identity error.
func (f *Frame) Weight() int {
	w := 0
	for i := range f.x {
		w += bits.OnesCount64(f.x[i] | f.z[i])
	}
	return w
}

// IsClean reports whether the frame is the identity.
func (f *Frame) IsClean() bool {
	for i := range f.x {
		if f.x[i] != 0 || f.z[i] != 0 {
			return false
		}
	}
	return true
}

// Pauli exports the frame as a Pauli string (phase +).
func (f *Frame) Pauli() pauli.String {
	p := pauli.NewIdentity(f.n)
	copy(p.X, f.x)
	copy(p.Z, f.z)
	return p
}

// Clone returns an independent copy of the frame.
func (f *Frame) Clone() *Frame {
	c := New(f.n)
	copy(c.x, f.x)
	copy(c.z, f.z)
	return c
}
