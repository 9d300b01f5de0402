// Package adder implements the quantum adder circuits the QLA paper's
// Shor workload is built from, as explicit reversible circuits over the
// NOT/CNOT/Toffoli alphabet (internal/revcirc).
//
// Two in-place adders with identical interfaces are provided:
//
//   - Ripple: the Cuccaro–Draper–Kutin–Moulton ripple-carry adder, the
//     linear-depth baseline. Toffoli depth 2n.
//   - CLA: the Draper–Kutin–Rains–Svore quantum carry-lookahead adder
//     (quant-ph/0406142), the adder the paper selects for Table 2
//     because it is "most optimized for time of computation rather than
//     system size". Toffoli depth Θ(log n); the paper's latency model
//     charges 4·log2(n) Toffoli time steps per addition.
//
// Both compute b := (a + b + cin) mod 2^n in place, XOR the carry-out
// onto a dedicated wire, restore a and every ancilla, and are verified
// exhaustively for small widths and randomly for large widths against
// integer addition. The measured Toffoli depths back the paper's model:
// the CLA critical path grows logarithmically and overtakes the ripple
// baseline by n = 8, which is the structural fact behind the paper's
// choice of the QCLA for modular exponentiation.
package adder

import (
	"fmt"

	"qla/internal/revcirc"
)

// Layout names the wires of an adder circuit so callers can pack inputs
// and unpack results.
type Layout struct {
	// N is the operand width in bits.
	N int
	// A and B are the operand wires, least-significant bit first.
	// After execution B holds the low n bits of the sum; A is restored.
	A, B []int
	// Cin is the carry-in wire, or -1 if the adder has none.
	Cin int
	// Cout is the wire the carry-out is XORed onto.
	Cout int
	// Anc lists ancilla wires; the adder restores all of them to their
	// input values (callers supply zeros).
	Anc []int
	// Width is the total number of wires in the circuit.
	Width int
}

// Pack builds the circuit input word for operands a, b and carry-in.
// Operands must fit in n bits. Ancilla wires are zero.
func (l Layout) Pack(a, b uint64, cin bool) uint64 {
	if l.N < 64 && (a >= 1<<uint(l.N) || b >= 1<<uint(l.N)) {
		panic(fmt.Sprintf("adder: operand exceeds %d bits", l.N))
	}
	var x uint64
	for i := 0; i < l.N; i++ {
		x |= (a >> uint(i) & 1) << uint(l.A[i])
		x |= (b >> uint(i) & 1) << uint(l.B[i])
	}
	if cin {
		if l.Cin < 0 {
			panic("adder: adder has no carry-in wire")
		}
		x |= 1 << uint(l.Cin)
	}
	return x
}

// Unpack extracts (aOut, sum, carry) from the circuit output word and
// reports whether every ancilla wire was restored to zero. The carry-in
// wire is not inspected: it is restored to its input value, which the
// caller knows.
func (l Layout) Unpack(x uint64) (aOut, sum uint64, carry, ancClean bool) {
	for i := 0; i < l.N; i++ {
		aOut |= (x >> uint(l.A[i]) & 1) << uint(i)
		sum |= (x >> uint(l.B[i]) & 1) << uint(i)
	}
	carry = x>>uint(l.Cout)&1 == 1
	ancClean = true
	for _, w := range l.Anc {
		if x>>uint(w)&1 == 1 {
			ancClean = false
		}
	}
	return aOut, sum, carry, ancClean
}

// Ripple builds the Cuccaro ripple-carry adder for n-bit operands.
//
// Wire plan: cin, a[0..n-1], b[0..n-1], z. The circuit applies the MAJ
// chain forward, copies the carry-out onto z, and unwinds with UMA,
// leaving b = a+b+cin mod 2^n, z ^= carry, a and cin restored.
func Ripple(n int) (*revcirc.Circuit, Layout) {
	if n <= 0 {
		panic(fmt.Sprintf("adder: non-positive width %d", n))
	}
	lay := Layout{
		N:     n,
		Cin:   0,
		A:     make([]int, n),
		B:     make([]int, n),
		Cout:  2*n + 1,
		Width: 2*n + 2,
	}
	for i := 0; i < n; i++ {
		lay.A[i] = 1 + i
		lay.B[i] = 1 + n + i
	}
	c := revcirc.New(lay.Width)

	// MAJ(carry, b, a): after it, a holds MAJ(c,b,a) = carry-out of the
	// bit position, b holds a XOR b, carry holds a XOR c.
	maj := func(carry, b, a int) {
		c.CNOT(a, b)
		c.CNOT(a, carry)
		c.Toffoli(carry, b, a)
	}
	// UMA(carry, b, a): inverse of MAJ followed by the sum write; after
	// it, a and carry are restored and b holds the sum bit.
	uma := func(carry, b, a int) {
		c.Toffoli(carry, b, a)
		c.CNOT(a, carry)
		c.CNOT(carry, b)
	}

	carryOf := func(i int) int {
		if i == 0 {
			return lay.Cin
		}
		return lay.A[i-1]
	}
	for i := 0; i < n; i++ {
		maj(carryOf(i), lay.B[i], lay.A[i])
	}
	c.CNOT(lay.A[n-1], lay.Cout)
	for i := n - 1; i >= 0; i-- {
		uma(carryOf(i), lay.B[i], lay.A[i])
	}
	return c, lay
}

// CLA builds the Draper–Kutin–Rains–Svore in-place carry-lookahead
// adder for n-bit operands: b := (a+b) mod 2^n, Cout ^= carry, a and all
// ancilla restored. There is no carry-in wire (Cin = -1), matching the
// out-of-the-paper QCLA used by the QLA latency model.
//
// Structure (quant-ph/0406142, section 4): generate/propagate bits are
// computed with one Toffoli layer and one CNOT layer; carries are
// produced by a Brent–Kung prefix tree in P-rounds, G-rounds, C-rounds
// and inverse P-rounds, each of logarithmic depth; the sum is written;
// and the carries are erased by running the carry computation of
// a + NOT(s) backwards, which regenerates the same carry bits (the
// subtraction identity the DKRS paper exploits).
func CLA(n int) (*revcirc.Circuit, Layout) {
	if n <= 0 {
		panic(fmt.Sprintf("adder: non-positive width %d", n))
	}
	if n == 1 {
		// Degenerate width: sum = a XOR b, carry = a AND b.
		lay := Layout{N: 1, Cin: -1, A: []int{0}, B: []int{1}, Cout: 2, Width: 3}
		c := revcirc.New(3)
		c.Toffoli(0, 1, 2)
		c.CNOT(0, 1)
		return c, lay
	}

	b := newCLABuilder(n)
	b.emit()
	return b.c, b.lay
}

// claBuilder holds the wire plan and gate emission state for CLA.
type claBuilder struct {
	n   int
	c   *revcirc.Circuit
	lay Layout
	// carry[k] is the wire holding c_k (carry into bit k) for k=1..n;
	// carry[n] is the Cout wire and is never erased.
	carry []int
	// pp[t] maps block-end index k (a multiple of 2^t) to the ancilla
	// wire holding the block-propagate P_t[k]; pp[0] is the b register.
	pp []map[int]int
}

func newCLABuilder(n int) *claBuilder {
	lay := Layout{N: n, Cin: -1, A: make([]int, n), B: make([]int, n)}
	for i := 0; i < n; i++ {
		lay.A[i] = i
		lay.B[i] = n + i
	}
	next := 2 * n
	alloc := func() int { w := next; next++; return w }

	carry := make([]int, n+1) // index 0 unused (c_0 = 0)
	for k := 1; k < n; k++ {
		carry[k] = alloc()
		lay.Anc = append(lay.Anc, carry[k])
	}
	lay.Cout = alloc()
	carry[n] = lay.Cout

	// Propagate-tree ancilla: one wire per internal Brent–Kung node.
	pp := []map[int]int{nil} // pp[0] is the b register, resolved lazily
	for t := 1; 1<<uint(t) <= n; t++ {
		level := make(map[int]int)
		for k := 1 << uint(t); k <= n; k += 1 << uint(t) {
			level[k] = alloc()
			lay.Anc = append(lay.Anc, level[k])
		}
		pp = append(pp, level)
	}
	lay.Width = next
	return &claBuilder{n: n, c: revcirc.New(next), lay: lay, carry: carry, pp: pp}
}

// ppWire resolves the wire holding P_t[k]. Level 0 propagate bits live
// in the b register (block of size 1 ending at k is bit k-1).
func (b *claBuilder) ppWire(t, k int) int {
	if t == 0 {
		return b.lay.B[k-1]
	}
	w, ok := b.pp[t][k]
	if !ok {
		panic(fmt.Sprintf("adder: no P[%d][%d] node", t, k))
	}
	return w
}

// tree emits the Brent–Kung carry tree over the low m bits: given
// carry[k] = g_{k-1} for k = 1..m and propagate bits in b, it rewrites
// carry[k] = c_k for k = 1..m, restoring every propagate-tree ancilla.
// The rounds follow DKRS: P-rounds, G-rounds, C-rounds, inverse
// P-rounds, each of O(log m) Toffoli depth.
func (b *claBuilder) tree(m int) {
	maxT := 0
	for 1<<uint(maxT+1) <= m {
		maxT++
	}
	// P-rounds: P_t[k] = P_{t-1}[k-2^(t-1)] AND P_{t-1}[k].
	for t := 1; t <= maxT; t++ {
		for k := 1 << uint(t); k <= m; k += 1 << uint(t) {
			half := 1 << uint(t-1)
			b.c.Toffoli(b.ppWire(t-1, k-half), b.ppWire(t-1, k), b.ppWire(t, k))
		}
	}
	// G-rounds (up-sweep): G[k] ^= P_{t-1}[k] AND G[k-2^(t-1)].
	for t := 1; t <= maxT; t++ {
		for k := 1 << uint(t); k <= m; k += 1 << uint(t) {
			half := 1 << uint(t-1)
			b.c.Toffoli(b.carry[k-half], b.ppWire(t-1, k), b.carry[k])
		}
	}
	// C-rounds (down-sweep): spread prefixes to the block midpoints:
	// G[k] ^= P_{t-1}[k] AND G[k-2^(t-1)] for k = j*2^t + 2^(t-1).
	for t := maxT; t >= 1; t-- {
		step := 1 << uint(t)
		for k := step + step/2; k <= m; k += step {
			b.c.Toffoli(b.carry[k-step/2], b.ppWire(t-1, k), b.carry[k])
		}
	}
	// Inverse P-rounds restore the propagate-tree ancilla.
	for t := maxT; t >= 1; t-- {
		for k := 1 << uint(t); k <= m; k += 1 << uint(t) {
			half := 1 << uint(t-1)
			b.c.Toffoli(b.ppWire(t-1, k-half), b.ppWire(t-1, k), b.ppWire(t, k))
		}
	}
}

// treeInverse emits the exact inverse of tree(m). Every gate is
// self-inverse, so it replays the same gates in reverse order.
func (b *claBuilder) treeInverse(m int) {
	probe := newCLABuilder(b.n)
	probe.tree(m)
	gates := probe.c.Gates()
	for i := len(gates) - 1; i >= 0; i-- {
		g := gates[i]
		b.c.Toffoli(g.A, g.B, g.T)
	}
}

func (b *claBuilder) emit() {
	n, c, lay := b.n, b.c, b.lay

	// Phase 1 — generate and propagate: carry[i+1] = a_i AND b_i,
	// b_i = a_i XOR b_i.
	for i := 0; i < n; i++ {
		c.Toffoli(lay.A[i], lay.B[i], b.carry[i+1])
	}
	for i := 0; i < n; i++ {
		c.CNOT(lay.A[i], lay.B[i])
	}

	// Phase 2 — carry tree over all n bits: carry[k] becomes c_k.
	b.tree(n)

	// Phase 3 — sum: s_i = p_i XOR c_i (c_0 = 0, so bit 0 is done).
	for i := 1; i < n; i++ {
		c.CNOT(b.carry[i], lay.B[i])
	}

	// Phase 4 — erase carries c_1..c_{n-1} (Cout keeps c_n). The carry
	// computation of a + NOT(s) reproduces the same carry bits, so we
	// run that computation's inverse. Only bits 0..n-2 participate.
	m := n - 1
	if m == 0 {
		return
	}
	for i := 0; i < m; i++ {
		c.X(lay.B[i])
		c.CNOT(lay.A[i], lay.B[i]) // b_i = a_i XOR NOT s_i = p'_i
	}
	b.treeInverse(m)
	for i := 0; i < m; i++ {
		c.CNOT(lay.A[i], lay.B[i]) // b_i = NOT s_i
	}
	for i := 0; i < m; i++ {
		c.Toffoli(lay.A[i], lay.B[i], b.carry[i+1]) // erase g'_i
	}
	for i := 0; i < m; i++ {
		c.X(lay.B[i]) // b_i = s_i
	}
}

// Add is a convenience executor: it runs the circuit on (a, b, cin) and
// returns the sum register and carry-out. It panics if the adder failed
// to restore a, cin or an ancilla wire — by construction that cannot
// happen for the adders in this package, and the tests rely on it.
func Add(c *revcirc.Circuit, lay Layout, a, b uint64, cin bool) (sum uint64, carry bool) {
	out := c.RunUint(lay.Pack(a, b, cin))
	aOut, sum, carry, clean := lay.Unpack(out)
	if aOut != a || !clean {
		panic(fmt.Sprintf("adder: corrupted state a=%d aOut=%d clean=%v", a, aOut, clean))
	}
	if lay.Cin >= 0 {
		if restored := out>>uint(lay.Cin)&1 == 1; restored != cin {
			panic(fmt.Sprintf("adder: carry-in not restored: in=%v out=%v", cin, restored))
		}
	}
	return sum, carry
}
