// Package pauli implements n-qubit Pauli operators in the symplectic
// (X-bits, Z-bits, phase) representation used throughout the stabilizer
// formalism: P = i^phase * X^x * Z^z applied qubit-wise.
//
// The representation follows the Aaronson–Gottesman convention: a Pauli on
// qubit q is encoded by two bits (x_q, z_q) with 00=I, 10=X, 11=Y, 01=Z.
package pauli

import (
	"fmt"
	"math/bits"
	"strings"
)

// String is an n-qubit Pauli operator. Phase is the exponent of i modulo 4,
// so the overall operator is i^Phase · ⊗_q P_q with P_q determined by the
// X/Z bit vectors. The zero value is the empty (0-qubit) identity.
type String struct {
	X     []uint64 // bit q set: X component on qubit q
	Z     []uint64 // bit q set: Z component on qubit q
	N     int      // number of qubits
	Phase uint8    // exponent of i, mod 4
}

// words returns the number of 64-bit words needed for n qubits.
func words(n int) int { return (n + 63) / 64 }

// NewIdentity returns the n-qubit identity Pauli.
func NewIdentity(n int) String {
	return String{X: make([]uint64, words(n)), Z: make([]uint64, words(n)), N: n}
}

// Parse builds a Pauli from a string like "+XIZY" or "-iXYZ" (phase prefix
// optional: "", "+", "-", "+i", "-i", "i").
func Parse(s string) (String, error) {
	orig := s
	phase := uint8(0)
	switch {
	case strings.HasPrefix(s, "+i"):
		phase, s = 1, s[2:]
	case strings.HasPrefix(s, "-i"):
		phase, s = 3, s[2:]
	case strings.HasPrefix(s, "i"):
		phase, s = 1, s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	case strings.HasPrefix(s, "-"):
		phase, s = 2, s[1:]
	}
	p := NewIdentity(len(s))
	p.Phase = phase
	for q, ch := range s {
		switch ch {
		case 'I', 'i':
			// identity
		case 'X', 'x':
			p.SetX(q, true)
		case 'Z', 'z':
			p.SetZ(q, true)
		case 'Y', 'y':
			p.SetX(q, true)
			p.SetZ(q, true)
		default:
			return String{}, fmt.Errorf("pauli: bad character %q in %q", ch, orig)
		}
	}
	return p, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) String {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns a deep copy of p.
func (p String) Clone() String {
	q := String{X: make([]uint64, len(p.X)), Z: make([]uint64, len(p.Z)), N: p.N, Phase: p.Phase}
	copy(q.X, p.X)
	copy(q.Z, p.Z)
	return q
}

func (p String) xBit(q int) bool { return p.X[q/64]>>(uint(q)%64)&1 == 1 }
func (p String) zBit(q int) bool { return p.Z[q/64]>>(uint(q)%64)&1 == 1 }

// XBit reports whether the operator has an X component on qubit q.
func (p String) XBit(q int) bool { p.check(q); return p.xBit(q) }

// ZBit reports whether the operator has a Z component on qubit q.
func (p String) ZBit(q int) bool { p.check(q); return p.zBit(q) }

// SetX sets or clears the X component on qubit q.
func (p *String) SetX(q int, v bool) {
	p.check(q)
	if v {
		p.X[q/64] |= 1 << (uint(q) % 64)
	} else {
		p.X[q/64] &^= 1 << (uint(q) % 64)
	}
}

// SetZ sets or clears the Z component on qubit q.
func (p *String) SetZ(q int, v bool) {
	p.check(q)
	if v {
		p.Z[q/64] |= 1 << (uint(q) % 64)
	} else {
		p.Z[q/64] &^= 1 << (uint(q) % 64)
	}
}

// Set assigns the single-qubit Pauli at position q from a rune in "IXYZ".
func (p *String) Set(q int, pauli byte) {
	switch pauli {
	case 'I':
		p.SetX(q, false)
		p.SetZ(q, false)
	case 'X':
		p.SetX(q, true)
		p.SetZ(q, false)
	case 'Y':
		p.SetX(q, true)
		p.SetZ(q, true)
	case 'Z':
		p.SetX(q, false)
		p.SetZ(q, true)
	default:
		panic(fmt.Sprintf("pauli: bad pauli byte %q", pauli))
	}
}

// At returns the single-qubit Pauli at position q as one of 'I','X','Y','Z'.
func (p String) At(q int) byte {
	p.check(q)
	switch {
	case p.xBit(q) && p.zBit(q):
		return 'Y'
	case p.xBit(q):
		return 'X'
	case p.zBit(q):
		return 'Z'
	default:
		return 'I'
	}
}

func (p String) check(q int) {
	if q < 0 || q >= p.N {
		panic(fmt.Sprintf("pauli: qubit %d out of range [0,%d)", q, p.N))
	}
}

// Weight returns the number of qubits on which p acts non-trivially.
func (p String) Weight() int {
	w := 0
	for i := range p.X {
		w += bits.OnesCount64(p.X[i] | p.Z[i])
	}
	return w
}

// IsIdentity reports whether p is the identity operator (any phase).
func (p String) IsIdentity() bool {
	for i := range p.X {
		if p.X[i] != 0 || p.Z[i] != 0 {
			return false
		}
	}
	return true
}

// Commutes reports whether p and q commute. Two Paulis commute iff their
// symplectic inner product Σ(x_p·z_q + z_p·x_q) is even.
func (p String) Commutes(q String) bool {
	if p.N != q.N {
		panic("pauli: operator size mismatch")
	}
	parity := 0
	for i := range p.X {
		parity ^= bits.OnesCount64(p.X[i]&q.Z[i]) & 1
		parity ^= bits.OnesCount64(p.Z[i]&q.X[i]) & 1
	}
	return parity == 0
}

// Mul returns the product p·q with the correct phase.
func (p String) Mul(q String) String {
	if p.N != q.N {
		panic("pauli: operator size mismatch")
	}
	r := NewIdentity(p.N)
	phase := int(p.Phase) + int(q.Phase)
	for i := range p.X {
		r.X[i] = p.X[i] ^ q.X[i]
		r.Z[i] = p.Z[i] ^ q.Z[i]
	}
	// Per-qubit phase accounting: multiplying single-qubit Paulis
	// P1=(x1,z1), P2=(x2,z2) yields i^g with
	// g = per-qubit Levi-Civita contribution. Use the standard formula:
	// for each qubit, g = x1·z2 − z1·x2 counted with the Y adjustments.
	// We compute it exactly via lookup over the 16 combinations.
	for q64 := 0; q64 < len(p.X); q64++ {
		xa, za, xb, zb := p.X[q64], p.Z[q64], q.X[q64], q.Z[q64]
		if xa|za|xb|zb == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			m := uint64(1) << uint(b)
			if (xa|za|xb|zb)&m == 0 {
				continue
			}
			a := pidx(xa&m != 0, za&m != 0)
			c := pidx(xb&m != 0, zb&m != 0)
			phase += int(mulPhase[a][c])
		}
	}
	r.Phase = uint8(phase % 4)
	return r
}

// pidx maps (x,z) to 0=I,1=X,2=Y,3=Z.
func pidx(x, z bool) int {
	switch {
	case x && z:
		return 2
	case x:
		return 1
	case z:
		return 3
	default:
		return 0
	}
}

// mulPhase[a][b] is the exponent of i in P_a·P_b (a,b in 0..3 = I,X,Y,Z),
// e.g. X·Y = iZ -> mulPhase[1][2] = 1; Y·X = -iZ -> mulPhase[2][1] = 3.
var mulPhase = [4][4]uint8{
	{0, 0, 0, 0},
	{0, 0, 1, 3},
	{0, 3, 0, 1},
	{0, 1, 3, 0},
}

// Equal reports whether p and q are the same operator including phase.
func (p String) Equal(q String) bool {
	if p.N != q.N || p.Phase != q.Phase {
		return false
	}
	for i := range p.X {
		if p.X[i] != q.X[i] || p.Z[i] != q.Z[i] {
			return false
		}
	}
	return true
}

// EqualUpToPhase reports whether p and q have the same Pauli content.
func (p String) EqualUpToPhase(q String) bool {
	if p.N != q.N {
		return false
	}
	for i := range p.X {
		if p.X[i] != q.X[i] || p.Z[i] != q.Z[i] {
			return false
		}
	}
	return true
}

// String renders the operator as a phase prefix plus one letter per qubit.
func (p String) String() string {
	var sb strings.Builder
	switch p.Phase {
	case 0:
		sb.WriteByte('+')
	case 1:
		sb.WriteString("+i")
	case 2:
		sb.WriteByte('-')
	case 3:
		sb.WriteString("-i")
	}
	for q := 0; q < p.N; q++ {
		sb.WriteByte(p.At(q))
	}
	return sb.String()
}

// Embed places p (acting on len(qubits) qubits) into an n-qubit identity at
// the given positions: result acts as p on qubits[i] and I elsewhere.
func (p String) Embed(n int, qubits []int) String {
	if len(qubits) != p.N {
		panic("pauli: Embed position count mismatch")
	}
	r := NewIdentity(n)
	r.Phase = p.Phase
	for i, q := range qubits {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("pauli: Embed target %d out of range [0,%d)", q, n))
		}
		r.SetX(q, p.xBit(i))
		r.SetZ(q, p.zBit(i))
	}
	return r
}
