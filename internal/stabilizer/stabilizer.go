// Package stabilizer implements the Aaronson–Gottesman tableau simulation
// of stabilizer circuits (CHP): Clifford gates and Pauli measurements on n
// qubits in O(n) / O(n²) time instead of O(2^n).
//
// This is the mathematical core of ARQ, the paper's quantum-architecture
// simulator: "ARQ avoids exponential simulation costs by simulating only a
// subset of the possible quantum gates, which can be simulated in
// polynomial time using a mathematical stabilizer formalism".
//
// The tableau stores 2n+1 rows of X/Z bit vectors plus a sign bit: rows
// 0..n-1 are destabilizer generators, rows n..2n-1 stabilizer generators,
// and row 2n is scratch space for determinate measurements.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"

	"qla/internal/pauli"
)

// State is an n-qubit stabilizer state.
type State struct {
	n    int
	w    int // words per row
	x    [][]uint64
	z    [][]uint64
	r    []uint8 // sign bits (0 => +, 1 => -)
	rng  *rand.Rand
	xbuf []uint64 // scratch for MeasurePauli
	zbuf []uint64
}

// New returns the n-qubit state |0…0⟩ with a deterministically seeded RNG.
func New(n int) *State {
	return NewSeeded(n, 0x51ab1712)
}

// NewSeeded returns |0…0⟩ on n qubits using the given RNG seed for random
// measurement outcomes.
func NewSeeded(n int, seed uint64) *State {
	return NewWithRand(n, rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)))
}

// NewWithRand returns |0…0⟩ on n qubits drawing measurement randomness from
// rng.
func NewWithRand(n int, rng *rand.Rand) *State {
	if n <= 0 {
		panic("stabilizer: number of qubits must be positive")
	}
	w := (n + 63) / 64
	s := &State{
		n:    n,
		w:    w,
		x:    make([][]uint64, 2*n+1),
		z:    make([][]uint64, 2*n+1),
		r:    make([]uint8, 2*n+1),
		rng:  rng,
		xbuf: make([]uint64, w),
		zbuf: make([]uint64, w),
	}
	backing := make([]uint64, 2*(2*n+1)*w)
	for i := range s.x {
		s.x[i] = backing[:w:w]
		backing = backing[w:]
		s.z[i] = backing[:w:w]
		backing = backing[w:]
	}
	for i := 0; i < n; i++ {
		s.x[i][i/64] |= 1 << (uint(i) % 64)   // destabilizer i = X_i
		s.z[i+n][i/64] |= 1 << (uint(i) % 64) // stabilizer i  = Z_i
	}
	return s
}

// N returns the number of qubits.
func (s *State) N() int { return s.n }

// Clone returns a deep copy sharing nothing with s. The RNG position is
// NOT preserved: the clone's RNG stream is split off the parent's
// (Clone advances the parent RNG by two draws), so sibling clones of
// the same state draw independent measurement randomness — seeding them
// identically would silently correlate Monte Carlo branches that fork a
// shared prefix state — while a fixed parent seed still reproduces the
// same clone streams in the same clone order.
func (s *State) Clone() *State {
	c := NewWithRand(s.n, rand.New(rand.NewPCG(s.rng.Uint64(), s.rng.Uint64())))
	for i := range s.x {
		copy(c.x[i], s.x[i])
		copy(c.z[i], s.z[i])
	}
	copy(c.r, s.r)
	return c
}

func (s *State) check(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("stabilizer: qubit %d out of range [0,%d)", q, s.n))
	}
}

func setBit(v []uint64, q int, b uint64) {
	if b != 0 {
		v[q/64] |= 1 << (uint(q) % 64)
	} else {
		v[q/64] &^= 1 << (uint(q) % 64)
	}
}

// --- Clifford gates ---

// H applies the Hadamard gate to qubit q.
func (s *State) H(q int) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	for i := 0; i <= 2*s.n; i++ {
		xv, zv := s.x[i][wi]&m, s.z[i][wi]&m
		if xv != 0 && zv != 0 {
			s.r[i] ^= 1
		}
		if (xv != 0) != (zv != 0) {
			s.x[i][wi] ^= m
			s.z[i][wi] ^= m
		}
	}
}

// S applies the phase gate diag(1, i) to qubit q.
func (s *State) S(q int) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	for i := 0; i <= 2*s.n; i++ {
		xv := s.x[i][wi] & m
		if xv != 0 && s.z[i][wi]&m != 0 {
			s.r[i] ^= 1
		}
		if xv != 0 {
			s.z[i][wi] ^= m
		}
	}
}

// Sdg applies the inverse phase gate diag(1, -i) to qubit q.
func (s *State) Sdg(q int) {
	s.Z(q)
	s.S(q)
}

// X applies the Pauli X gate to qubit q.
func (s *State) X(q int) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	for i := 0; i <= 2*s.n; i++ {
		if s.z[i][wi]&m != 0 {
			s.r[i] ^= 1
		}
	}
}

// Z applies the Pauli Z gate to qubit q.
func (s *State) Z(q int) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	for i := 0; i <= 2*s.n; i++ {
		if s.x[i][wi]&m != 0 {
			s.r[i] ^= 1
		}
	}
}

// Y applies the Pauli Y gate to qubit q.
func (s *State) Y(q int) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	for i := 0; i <= 2*s.n; i++ {
		if (s.x[i][wi]&m != 0) != (s.z[i][wi]&m != 0) {
			s.r[i] ^= 1
		}
	}
}

// CNOT applies a controlled-NOT with control c and target t.
func (s *State) CNOT(c, t int) {
	s.check(c)
	s.check(t)
	if c == t {
		panic("stabilizer: CNOT control equals target")
	}
	cw, cm := c/64, uint64(1)<<(uint(c)%64)
	tw, tm := t/64, uint64(1)<<(uint(t)%64)
	for i := 0; i <= 2*s.n; i++ {
		xc := s.x[i][cw]&cm != 0
		zc := s.z[i][cw]&cm != 0
		xt := s.x[i][tw]&tm != 0
		zt := s.z[i][tw]&tm != 0
		if xc && zt && (xt == zc) {
			s.r[i] ^= 1
		}
		if xc {
			s.x[i][tw] ^= tm
		}
		if zt {
			s.z[i][cw] ^= cm
		}
	}
}

// CZ applies a controlled-Z between qubits a and b.
func (s *State) CZ(a, b int) {
	s.H(b)
	s.CNOT(a, b)
	s.H(b)
}

// SWAP exchanges qubits a and b.
func (s *State) SWAP(a, b int) {
	s.CNOT(a, b)
	s.CNOT(b, a)
	s.CNOT(a, b)
}

// ApplyPauli applies the Pauli operator p (which must act on s.n qubits) as
// a gate. Its phase must be ±1 (a phase of -1 is a global phase and is
// ignored, as stabilizer states carry no global phase).
func (s *State) ApplyPauli(p pauli.String) {
	if p.N != s.n {
		panic("stabilizer: ApplyPauli size mismatch")
	}
	for q := 0; q < s.n; q++ {
		switch p.At(q) {
		case 'X':
			s.X(q)
		case 'Y':
			s.Y(q)
		case 'Z':
			s.Z(q)
		}
	}
}

// --- rowsum: the AG phase-tracking group product ---

// rowsum multiplies row h by row i (R_h := R_i · R_h), maintaining signs.
func (s *State) rowsum(h, i int) {
	sum := 2*int(s.r[h]) + 2*int(s.r[i])
	xi, zi := s.x[i], s.z[i]
	xh, zh := s.x[h], s.z[h]
	for w := 0; w < s.w; w++ {
		a, b, c, d := xi[w], zi[w], xh[w], zh[w]
		// positive (g=+1) and negative (g=-1) contribution masks; see
		// Aaronson & Gottesman (2004), eq. for g(x1,z1,x2,z2).
		pos := (a & b & ^c & d) | (a & ^b & c & d) | (^a & b & c & ^d)
		neg := (a & b & c & ^d) | (a & ^b & ^c & d) | (^a & b & c & d)
		sum += bits.OnesCount64(pos) - bits.OnesCount64(neg)
		xh[w] = a ^ c
		zh[w] = b ^ d
	}
	if ((sum%4)+4)%4 == 2 {
		s.r[h] = 1
	} else {
		s.r[h] = 0
	}
}

// --- measurement ---

// Measure performs a Z-basis measurement of qubit q, collapsing the state.
// It returns 0 or 1.
func (s *State) Measure(q int) int {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	p := -1
	for i := s.n; i < 2*s.n; i++ {
		if s.x[i][wi]&m != 0 {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i <= 2*s.n; i++ {
			if i != p && s.x[i][wi]&m != 0 {
				s.rowsum(i, p)
			}
		}
		copy(s.x[p-s.n], s.x[p])
		copy(s.z[p-s.n], s.z[p])
		s.r[p-s.n] = s.r[p]
		for w := 0; w < s.w; w++ {
			s.x[p][w] = 0
			s.z[p][w] = 0
		}
		setBit(s.z[p], q, 1)
		out := uint8(s.rng.IntN(2))
		s.r[p] = out
		return int(out)
	}
	// Determinate outcome via scratch row.
	sc := 2 * s.n
	for w := 0; w < s.w; w++ {
		s.x[sc][w] = 0
		s.z[sc][w] = 0
	}
	s.r[sc] = 0
	for i := 0; i < s.n; i++ {
		if s.x[i][wi]&m != 0 {
			s.rowsum(sc, i+s.n)
		}
	}
	return int(s.r[sc])
}

// MeasureReset measures qubit q and resets it to |0⟩, returning the
// pre-reset outcome.
func (s *State) MeasureReset(q int) int {
	out := s.Measure(q)
	if out == 1 {
		s.X(q)
	}
	return out
}

// Reset forces qubit q to |0⟩ regardless of its state.
func (s *State) Reset(q int) {
	s.MeasureReset(q)
}

// ResetAllZero returns the state to |0…0⟩ in place, reusing the tableau
// allocation — the scratch-reuse primitive for Monte Carlo worker pools
// that run many trials per State. The RNG (and its stream position) is
// untouched; callers needing a per-trial deterministic outcome stream
// reseed the rand.Source they passed to NewWithRand.
func (s *State) ResetAllZero() {
	for i := range s.x {
		clear(s.x[i])
		clear(s.z[i])
	}
	clear(s.r)
	for i := 0; i < s.n; i++ {
		s.x[i][i/64] |= 1 << (uint(i) % 64)     // destabilizer i = X_i
		s.z[i+s.n][i/64] |= 1 << (uint(i) % 64) // stabilizer i  = Z_i
	}
}

// --- Pauli-operator measurement and expectations ---

func (s *State) anticommutesRow(i int, px, pz []uint64) bool {
	parity := 0
	for w := 0; w < s.w; w++ {
		parity ^= bits.OnesCount64(s.x[i][w]&pz[w]) & 1
		parity ^= bits.OnesCount64(s.z[i][w]&px[w]) & 1
	}
	return parity == 1
}

// Expectation returns the expectation value of the Hermitian Pauli operator
// p in the current state: +1, -1, or 0 when the outcome would be random.
// p.Phase must be 0 or 2 (a ± sign).
func (s *State) Expectation(p pauli.String) int {
	if p.N != s.n {
		panic("stabilizer: Expectation size mismatch")
	}
	if p.Phase%2 != 0 {
		panic("stabilizer: non-Hermitian Pauli (phase ±i)")
	}
	for i := s.n; i < 2*s.n; i++ {
		if s.anticommutesRow(i, p.X, p.Z) {
			return 0
		}
	}
	// p commutes with the stabilizer: ±p is in the group. Accumulate the
	// product of stabilizers selected by anticommuting destabilizers.
	sc := 2 * s.n
	for w := 0; w < s.w; w++ {
		s.x[sc][w] = 0
		s.z[sc][w] = 0
	}
	s.r[sc] = 0
	for i := 0; i < s.n; i++ {
		if s.anticommutesRow(i, p.X, p.Z) {
			s.rowsum(sc, i+s.n)
		}
	}
	// The scratch row now equals ±p as an operator. Tableau rows are
	// letter-form Paulis (bits 11 mean Y, not XZ) with sign (-1)^r, so the
	// letter-form phase exponent is simply 2r.
	if 2*int(s.r[sc]) == int(p.Phase)%4 {
		return +1
	}
	return -1
}

// MeasurePauli measures the Hermitian Pauli operator p, collapsing the
// state, and returns the outcome bit (0 for +1 eigenvalue, 1 for -1).
func (s *State) MeasurePauli(p pauli.String) int {
	if p.N != s.n {
		panic("stabilizer: MeasurePauli size mismatch")
	}
	if p.Phase%2 != 0 {
		panic("stabilizer: non-Hermitian Pauli (phase ±i)")
	}
	anti := -1
	for i := s.n; i < 2*s.n; i++ {
		if s.anticommutesRow(i, p.X, p.Z) {
			anti = i
			break
		}
	}
	if anti < 0 {
		if s.Expectation(p) == +1 {
			return 0
		}
		return 1
	}
	for i := 0; i <= 2*s.n; i++ {
		if i != anti && s.anticommutesRow(i, p.X, p.Z) {
			s.rowsum(i, anti)
		}
	}
	copy(s.x[anti-s.n], s.x[anti])
	copy(s.z[anti-s.n], s.z[anti])
	s.r[anti-s.n] = s.r[anti]
	// Install (-1)^out · p as the new stabilizer row; rows are letter-form
	// Paulis, so the row sign is p's sign plus the outcome.
	out := s.rng.IntN(2)
	copy(s.x[anti], p.X)
	copy(s.z[anti], p.Z)
	s.r[anti] = uint8((int(p.Phase)/2 + out) % 2)
	return out
}

// --- inspection ---

// Stabilizer returns the i-th stabilizer generator (0 ≤ i < n) as a Pauli
// string in letter form with sign.
func (s *State) Stabilizer(i int) pauli.String {
	if i < 0 || i >= s.n {
		panic("stabilizer: generator index out of range")
	}
	return s.rowPauli(i + s.n)
}

func (s *State) rowPauli(row int) pauli.String {
	p := pauli.NewIdentity(s.n)
	copy(p.X, s.x[row])
	copy(p.Z, s.z[row])
	p.Phase = uint8(2 * int(s.r[row]))
	return p
}

// SameState reports whether s and o describe the same quantum state. It
// checks that every stabilizer generator of o has expectation +1 in s
// (sufficient for two n-qubit stabilizer states).
func (s *State) SameState(o *State) bool {
	if s.n != o.n {
		return false
	}
	for i := 0; i < o.n; i++ {
		if s.Expectation(o.Stabilizer(i)) != +1 {
			return false
		}
	}
	return true
}

// String renders the stabilizer generators, one per line.
func (s *State) String() string {
	var sb strings.Builder
	for i := 0; i < s.n; i++ {
		sb.WriteString(s.Stabilizer(i).String())
		if i < s.n-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
