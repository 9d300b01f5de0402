// Package codes provides a generic stabilizer quantum error-correcting
// code framework: code definitions as stabilizer generators plus logical
// operators, structural validation, GF(2) symplectic linear algebra,
// brute-force distance certification, syndrome-table decoding, and a
// projective encoder that prepares logical states on the stabilizer
// backend.
//
// The QLA paper fixes the Steane [[7,1,3]] code for its logical qubits
// but notes the block structure "is easily extended to 7-bit and larger
// codes" (Section 3) and that "the structure of our qubit is optimized
// for the error correction circuit and may vary for different codes"
// (Section 4.1.3). This package makes that claim testable: it ships the
// 3-qubit bit-flip code the paper's Figure 4 illustrates, the Steane
// code it adopts, and the Shor [[9,1,3]] and perfect [[5,1,3]] codes as
// alternatives, with a uniform cost model (internal/codes/cost.go) that
// quantifies the qubit-count/latency trade the paper's design decision
// rests on.
package codes

import (
	"errors"
	"fmt"

	"qla/internal/pauli"
	"qla/internal/stabilizer"
)

// Code is an [[n,k,d]] stabilizer code: n-k independent commuting
// stabilizer generators and k pairs of logical operators.
type Code struct {
	// Name identifies the code in reports, e.g. "Steane [[7,1,3]]".
	Name string
	// N is the number of physical qubits per block.
	N int
	// K is the number of logical qubits per block.
	K int
	// D is the claimed code distance; Distance certifies it.
	D int
	// Stabilizers holds the n-k generators, each with positive phase.
	Stabilizers []pauli.String
	// LogicalX and LogicalZ hold one representative per logical qubit.
	LogicalX, LogicalZ []pauli.String
}

// Validate checks the structural invariants of the code definition:
// operator widths and counts, positive generator phases, pairwise
// commutation of generators, generator independence, commutation of
// logicals with the group, and the symplectic pairing of the logicals
// (X̄_i anticommutes with Z̄_i and commutes with every other logical).
func (c *Code) Validate() error {
	if c.N <= 0 || c.K < 0 || c.K > c.N {
		return fmt.Errorf("codes: bad parameters n=%d k=%d", c.N, c.K)
	}
	if len(c.Stabilizers) != c.N-c.K {
		return fmt.Errorf("codes: %d generators, want n-k=%d", len(c.Stabilizers), c.N-c.K)
	}
	if len(c.LogicalX) != c.K || len(c.LogicalZ) != c.K {
		return fmt.Errorf("codes: %d logical X and %d logical Z, want k=%d",
			len(c.LogicalX), len(c.LogicalZ), c.K)
	}
	all := make([]pauli.String, 0, c.N+c.K)
	all = append(all, c.Stabilizers...)
	all = append(all, c.LogicalX...)
	all = append(all, c.LogicalZ...)
	for i, p := range all {
		if p.N != c.N {
			return fmt.Errorf("codes: operator %d has width %d, want %d", i, p.N, c.N)
		}
	}
	for i, g := range c.Stabilizers {
		if g.Phase != 0 {
			return fmt.Errorf("codes: generator %d has non-positive phase", i)
		}
		if g.IsIdentity() {
			return fmt.Errorf("codes: generator %d is the identity", i)
		}
		for j := i + 1; j < len(c.Stabilizers); j++ {
			if !g.Commutes(c.Stabilizers[j]) {
				return fmt.Errorf("codes: generators %d and %d anticommute", i, j)
			}
		}
	}
	if r := rank(vectors(c.Stabilizers), 2*c.N); r != len(c.Stabilizers) {
		return fmt.Errorf("codes: generators dependent: rank %d of %d", r, len(c.Stabilizers))
	}
	for i, l := range append(append([]pauli.String{}, c.LogicalX...), c.LogicalZ...) {
		for j, g := range c.Stabilizers {
			if !l.Commutes(g) {
				return fmt.Errorf("codes: logical %d anticommutes with generator %d", i, j)
			}
		}
	}
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			wantAnti := i == j
			if c.LogicalX[i].Commutes(c.LogicalZ[j]) == wantAnti {
				return fmt.Errorf("codes: X̄_%d / Z̄_%d pairing violated", i, j)
			}
		}
		for j := i + 1; j < c.K; j++ {
			if !c.LogicalX[i].Commutes(c.LogicalX[j]) || !c.LogicalZ[i].Commutes(c.LogicalZ[j]) {
				return fmt.Errorf("codes: logicals %d and %d of the same type anticommute", i, j)
			}
		}
	}
	for i, l := range append(append([]pauli.String{}, c.LogicalX...), c.LogicalZ...) {
		if c.IsStabilizer(l) {
			return fmt.Errorf("codes: logical %d lies in the stabilizer group", i)
		}
	}
	return nil
}

// IsCSS reports whether every generator is purely X-type or purely
// Z-type (Calderbank–Shor–Steane structure). CSS codes admit
// transversal CNOT, the property the QLA relies on for logical gates.
func (c *Code) IsCSS() bool {
	for _, g := range c.Stabilizers {
		hasX, hasZ := false, false
		for q := 0; q < g.N; q++ {
			switch g.At(q) {
			case 'X':
				hasX = true
			case 'Z':
				hasZ = true
			case 'Y':
				return false
			}
		}
		if hasX && hasZ {
			return false
		}
	}
	return true
}

// SyndromeOf returns the syndrome of an error: bit i is set iff the
// error anticommutes with generator i. Errors differing by a stabilizer
// share a syndrome.
func (c *Code) SyndromeOf(err pauli.String) uint64 {
	if len(c.Stabilizers) > 64 {
		panic("codes: more than 64 generators")
	}
	var s uint64
	for i, g := range c.Stabilizers {
		if !err.Commutes(g) {
			s |= 1 << uint(i)
		}
	}
	return s
}

// IsStabilizer reports whether p lies in the stabilizer group up to
// phase (its symplectic vector is in the span of the generators).
func (c *Code) IsStabilizer(p pauli.String) bool {
	return inSpan(vectors(c.Stabilizers), vector(p), 2*c.N)
}

// IsLogical reports whether p is a non-trivial logical operator: it
// commutes with every generator but is not in the stabilizer group.
func (c *Code) IsLogical(p pauli.String) bool {
	return c.SyndromeOf(p) == 0 && !p.IsIdentity() && !c.IsStabilizer(p)
}

// Distance searches for the minimum weight of a non-trivial logical
// operator, scanning weights 1..maxWeight. It returns the weight found
// and true, or 0 and false if no logical exists within the budget (so
// the distance exceeds maxWeight).
func (c *Code) Distance(maxWeight int) (int, bool) {
	for w := 1; w <= maxWeight; w++ {
		if c.searchWeight(w) {
			return w, true
		}
	}
	return 0, false
}

// searchWeight enumerates weight-w Paulis and reports whether any is a
// logical.
func (c *Code) searchWeight(w int) bool {
	positions := make([]int, w)
	letters := []byte{'X', 'Y', 'Z'}
	var rec func(start, depth int) bool
	assign := make([]byte, w)
	var tryLetters func(depth int) bool
	tryLetters = func(depth int) bool {
		if depth == w {
			p := pauli.NewIdentity(c.N)
			for i, q := range positions {
				p.Set(q, assign[i])
			}
			return c.IsLogical(p)
		}
		for _, l := range letters {
			assign[depth] = l
			if tryLetters(depth + 1) {
				return true
			}
		}
		return false
	}
	rec = func(start, depth int) bool {
		if depth == w {
			return tryLetters(0)
		}
		for q := start; q <= c.N-(w-depth); q++ {
			positions[depth] = q
			if rec(q+1, depth+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

// PureErrors returns one "pure error" (destabilizer) per generator:
// D_i anticommutes with generator i, commutes with every other
// generator and with every logical representative. Applying the product
// of D_i over the set bits of a syndrome returns the state to the code
// space (possibly up to a stabilizer).
func (c *Code) PureErrors() ([]pauli.String, error) {
	m := len(c.Stabilizers)
	out := make([]pauli.String, m)
	// Constraint system: for unknown v, the symplectic product with a
	// fixed operator u is an ordinary GF(2) dot product with swap(u).
	ops := make([]pauli.String, 0, m+2*c.K)
	ops = append(ops, c.Stabilizers...)
	ops = append(ops, c.LogicalX...)
	ops = append(ops, c.LogicalZ...)
	rows := make([][]uint64, len(ops))
	for i, u := range ops {
		rows[i] = swapHalves(vector(u), c.N)
	}
	for i := 0; i < m; i++ {
		b := make([]bool, len(ops))
		b[i] = true
		v, err := solve(rows, b, 2*c.N)
		if err != nil {
			return nil, fmt.Errorf("codes: no pure error for generator %d: %w", i, err)
		}
		out[i] = fromVector(v, c.N)
	}
	return out, nil
}

// PrepareZero projects a stabilizer state into the code's logical
// |0…0⟩: it measures each generator and each logical Z, applying the
// precomputed fix-up operator whenever the outcome is -1. The state
// must have exactly c.N qubits. After return, every generator and
// every logical Z has expectation +1.
func (c *Code) PrepareZero(s *stabilizer.State) error {
	if s.N() != c.N {
		return fmt.Errorf("codes: state width %d, want %d", s.N(), c.N)
	}
	pure, err := c.PureErrors()
	if err != nil {
		return err
	}
	// MeasurePauli returns the outcome bit: 0 for the +1 eigenvalue,
	// 1 for -1. A -1 outcome is flipped by the pure error.
	for i, g := range c.Stabilizers {
		if s.MeasurePauli(g) == 1 {
			s.ApplyPauli(pure[i])
		}
	}
	for i, z := range c.LogicalZ {
		if s.MeasurePauli(z) == 1 {
			s.ApplyPauli(c.LogicalX[i])
		}
	}
	for i, g := range c.Stabilizers {
		if s.Expectation(g) != 1 {
			return fmt.Errorf("codes: generator %d not stabilized after preparation", i)
		}
	}
	for i, z := range c.LogicalZ {
		if s.Expectation(z) != 1 {
			return fmt.Errorf("codes: logical Z %d not stabilized after preparation", i)
		}
	}
	return nil
}

// --- GF(2) symplectic linear algebra -----------------------------------

// vector flattens a Pauli into its 2n-bit symplectic vector (x|z),
// packed into uint64 words. Phase is dropped.
func vector(p pauli.String) []uint64 {
	words := (2*p.N + 63) / 64
	v := make([]uint64, words)
	for q := 0; q < p.N; q++ {
		if p.XBit(q) {
			setBit(v, q)
		}
		if p.ZBit(q) {
			setBit(v, p.N+q)
		}
	}
	return v
}

// fromVector rebuilds a Pauli from a symplectic vector.
func fromVector(v []uint64, n int) pauli.String {
	p := pauli.NewIdentity(n)
	for q := 0; q < n; q++ {
		p.SetX(q, getBit(v, q))
		p.SetZ(q, getBit(v, n+q))
	}
	return p
}

// swapHalves exchanges the x and z halves of a symplectic vector, so
// that the symplectic product ⟨u,v⟩ becomes the dot product
// swap(u)·v.
func swapHalves(v []uint64, n int) []uint64 {
	out := make([]uint64, len(v))
	for q := 0; q < n; q++ {
		if getBit(v, q) {
			setBit(out, n+q)
		}
		if getBit(v, n+q) {
			setBit(out, q)
		}
	}
	return out
}

func vectors(ps []pauli.String) [][]uint64 {
	out := make([][]uint64, len(ps))
	for i, p := range ps {
		out[i] = vector(p)
	}
	return out
}

func setBit(v []uint64, i int)      { v[i/64] |= 1 << (uint(i) % 64) }
func getBit(v []uint64, i int) bool { return v[i/64]>>(uint(i)%64)&1 == 1 }

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func isZero(v []uint64) bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

func cloneRows(rows [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, r := range rows {
		out[i] = append([]uint64(nil), r...)
	}
	return out
}

// rank computes the GF(2) rank of the rows over the given bit width.
func rank(rows [][]uint64, bits int) int {
	m := cloneRows(rows)
	r := 0
	for col := 0; col < bits && r < len(m); col++ {
		pivot := -1
		for i := r; i < len(m); i++ {
			if getBit(m[i], col) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[r], m[pivot] = m[pivot], m[r]
		for i := 0; i < len(m); i++ {
			if i != r && getBit(m[i], col) {
				xorInto(m[i], m[r])
			}
		}
		r++
	}
	return r
}

// inSpan reports whether v lies in the GF(2) row space of rows.
func inSpan(rows [][]uint64, v []uint64, bits int) bool {
	m := cloneRows(rows)
	res := append([]uint64(nil), v...)
	r := 0
	for col := 0; col < bits && r < len(m); col++ {
		pivot := -1
		for i := r; i < len(m); i++ {
			if getBit(m[i], col) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[r], m[pivot] = m[pivot], m[r]
		for i := 0; i < len(m); i++ {
			if i != r && getBit(m[i], col) {
				xorInto(m[i], m[r])
			}
		}
		if getBit(res, col) {
			xorInto(res, m[r])
		}
		r++
	}
	return isZero(res)
}

var errInconsistent = errors.New("codes: inconsistent linear system")

// solve finds v with rows[i]·v = b[i] over GF(2), width bits. Free
// variables are set to zero. Returns errInconsistent if no solution.
func solve(rows [][]uint64, b []bool, bits int) ([]uint64, error) {
	m := cloneRows(rows)
	rhs := append([]bool(nil), b...)
	type pivotCol struct{ row, col int }
	var pivots []pivotCol
	r := 0
	for col := 0; col < bits && r < len(m); col++ {
		pivot := -1
		for i := r; i < len(m); i++ {
			if getBit(m[i], col) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[r], m[pivot] = m[pivot], m[r]
		rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
		for i := 0; i < len(m); i++ {
			if i != r && getBit(m[i], col) {
				xorInto(m[i], m[r])
				rhs[i] = rhs[i] != rhs[r]
			}
		}
		pivots = append(pivots, pivotCol{r, col})
		r++
	}
	for i := r; i < len(m); i++ {
		if rhs[i] && isZero(m[i]) {
			return nil, errInconsistent
		}
	}
	v := make([]uint64, (bits+63)/64)
	for _, pc := range pivots {
		if rhs[pc.row] {
			setBit(v, pc.col)
		}
	}
	return v, nil
}
