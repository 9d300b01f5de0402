package pauliframe

import "fmt"

// Lanes is the number of independent trials a Batch packs per word.
const Lanes = 64

// LaneMask returns the active-lane mask of a block carrying the given
// number of trials (the final block of a run may be short).
func LaneMask(lanes int) uint64 {
	if lanes >= Lanes {
		return ^uint64(0)
	}
	return 1<<uint(lanes) - 1
}

// Batch is a bit-sliced Pauli error frame: the X/Z components of Lanes
// (64) independent trials packed one bit per lane, so that Clifford
// propagation, error injection and measurement become branch-free
// word-wide bitwise operations. x[q] and z[q] hold the lane masks of
// qubit q; lane l of every word belongs to trial l of the batch.
//
// Every operation has a masked variant taking a lane mask of the trials
// that actually execute it; lanes outside the mask are untouched, which
// is how per-lane control flow (ancilla re-preparation, the
// agreeing-syndromes rule) is expressed on top of a single shared
// instruction stream. The unmasked forms are the masked forms at the
// full mask.
type Batch struct {
	n int
	x []uint64
	z []uint64
}

// NewBatch returns an all-identity batch frame over n qubits.
func NewBatch(n int) *Batch {
	if n <= 0 {
		panic("pauliframe: number of qubits must be positive")
	}
	return &Batch{n: n, x: make([]uint64, n), z: make([]uint64, n)}
}

// N returns the number of qubits.
func (b *Batch) N() int { return b.n }

func (b *Batch) check(q int) {
	if q < 0 || q >= b.n {
		panic(fmt.Sprintf("pauliframe: qubit %d out of range [0,%d)", q, b.n))
	}
}

// XBits returns the lane mask of trials with an X component on q.
func (b *Batch) XBits(q int) uint64 { b.check(q); return b.x[q] }

// ZBits returns the lane mask of trials with a Z component on q.
func (b *Batch) ZBits(q int) uint64 { b.check(q); return b.z[q] }

// InjectX multiplies an X error onto q in the masked lanes.
func (b *Batch) InjectX(q int, mask uint64) { b.check(q); b.x[q] ^= mask }

// InjectZ multiplies a Z error onto q in the masked lanes.
func (b *Batch) InjectZ(q int, mask uint64) { b.check(q); b.z[q] ^= mask }

// InjectY multiplies a Y error onto q in the masked lanes.
func (b *Batch) InjectY(q int, mask uint64) {
	b.check(q)
	b.x[q] ^= mask
	b.z[q] ^= mask
}

// H propagates the masked lanes through a Hadamard on q (X <-> Z).
func (b *Batch) H(q int, mask uint64) {
	b.check(q)
	diff := (b.x[q] ^ b.z[q]) & mask
	b.x[q] ^= diff
	b.z[q] ^= diff
}

// S propagates the masked lanes through a phase gate on q (X -> Y).
func (b *Batch) S(q int, mask uint64) {
	b.check(q)
	b.z[q] ^= b.x[q] & mask
}

// Sdg propagates the masked lanes through an inverse phase gate (the
// frame cannot see the sign difference from S).
func (b *Batch) Sdg(q int, mask uint64) { b.S(q, mask) }

// CNOT propagates the masked lanes through a controlled-NOT: X errors
// copy control->target, Z errors copy target->control.
func (b *Batch) CNOT(c, t int, mask uint64) {
	b.check(c)
	b.check(t)
	b.x[t] ^= b.x[c] & mask
	b.z[c] ^= b.z[t] & mask
}

// CZ propagates the masked lanes through a controlled-Z.
func (b *Batch) CZ(p, q int, mask uint64) {
	b.check(p)
	b.check(q)
	b.z[q] ^= b.x[p] & mask
	b.z[p] ^= b.x[q] & mask
}

// SWAP exchanges the frame bits of p and q in the masked lanes.
func (b *Batch) SWAP(p, q int, mask uint64) {
	b.check(p)
	b.check(q)
	dx := (b.x[p] ^ b.x[q]) & mask
	dz := (b.z[p] ^ b.z[q]) & mask
	b.x[p] ^= dx
	b.x[q] ^= dx
	b.z[p] ^= dz
	b.z[q] ^= dz
}

// MeasureZ returns the Z-basis outcome flips of the masked lanes (set
// where the frame carries an X component) and clears their irrelevant
// post-measurement Z components, mirroring Frame.MeasureZ per lane.
func (b *Batch) MeasureZ(q int, mask uint64) uint64 {
	b.check(q)
	out := b.x[q] & mask
	b.z[q] &^= mask
	return out
}

// MeasureX returns the X-basis outcome flips of the masked lanes (set
// where the frame carries a Z component) and clears their X components.
func (b *Batch) MeasureX(q int, mask uint64) uint64 {
	b.check(q)
	out := b.z[q] & mask
	b.x[q] &^= mask
	return out
}

// Reset clears the frame on q in the masked lanes (fresh |0⟩
// preparation discards errors).
func (b *Batch) Reset(q int, mask uint64) {
	b.check(q)
	b.x[q] &^= mask
	b.z[q] &^= mask
}

// Clear empties the whole frame in every lane.
func (b *Batch) Clear() {
	for i := range b.x {
		b.x[i] = 0
		b.z[i] = 0
	}
}

// Weight returns the number of qubits carrying a non-identity error in
// the given lane.
func (b *Batch) Weight(lane int) int {
	if lane < 0 || lane >= Lanes {
		panic("pauliframe: lane out of range")
	}
	w := 0
	for q := 0; q < b.n; q++ {
		w += int((b.x[q] | b.z[q]) >> uint(lane) & 1)
	}
	return w
}

// DirtyLanes returns the lane mask of trials whose frame is not the
// identity.
func (b *Batch) DirtyLanes() uint64 {
	var m uint64
	for q := 0; q < b.n; q++ {
		m |= b.x[q] | b.z[q]
	}
	return m
}
