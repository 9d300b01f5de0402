// Package steane implements the Steane [[7,1,3]] quantum error-correcting
// code: the building block of every QLA logical qubit. "We choose to model
// the Steane [[7,1,3]] code, where 7 physical qubits are encoded to form 1
// logical qubit that can correct at most (3-1)/2 = 1 error ... because it
// allows the implementation of a universal set of logical gates
// transversally."
//
// The package provides the stabilizer generators, logical operators, the
// |0⟩_L encoding circuit, and syndrome arithmetic (classical Hamming
// decode) with the ideal block decoding used to score logical failures;
// a level-2 word decodes hierarchically by decoding each block's logical
// bit and then the seven bits as one word.
package steane

import (
	"fmt"

	"qla/internal/circuit"
	"qla/internal/pauli"
)

// N is the number of physical qubits per code block.
const N = 7

// Supports lists the qubit support of the three Hamming parity checks; the
// code's X-stabilizers and Z-stabilizers both use these rows (the code is
// CSS and self-dual). Column q carries the binary representation of q+1:
// row 0 is the most significant bit.
var Supports = [3][4]int{
	{3, 4, 5, 6}, // 0001111
	{1, 2, 5, 6}, // 0110011
	{0, 2, 4, 6}, // 1010101
}

// genOn builds the generator of the given Pauli kind on a row support.
func genOn(kind byte, row int) pauli.String {
	p := pauli.NewIdentity(N)
	for _, q := range Supports[row] {
		p.Set(q, kind)
	}
	return p
}

// XStabilizers returns the three X-type stabilizer generators.
func XStabilizers() []pauli.String {
	return []pauli.String{genOn('X', 0), genOn('X', 1), genOn('X', 2)}
}

// ZStabilizers returns the three Z-type stabilizer generators.
func ZStabilizers() []pauli.String {
	return []pauli.String{genOn('Z', 0), genOn('Z', 1), genOn('Z', 2)}
}

// Generators returns all six stabilizer generators (X-type then Z-type).
func Generators() []pauli.String {
	return append(XStabilizers(), ZStabilizers()...)
}

// LogicalX returns the transversal logical X operator X⊗7.
func LogicalX() pauli.String {
	p := pauli.NewIdentity(N)
	for q := 0; q < N; q++ {
		p.Set(q, 'X')
	}
	return p
}

// LogicalZ returns the transversal logical Z operator Z⊗7.
func LogicalZ() pauli.String {
	p := pauli.NewIdentity(N)
	for q := 0; q < N; q++ {
		p.Set(q, 'Z')
	}
	return p
}

// EncodeZero returns the 7-qubit circuit preparing |0⟩_L from |0…0⟩:
// Hadamards on the pivot qubit of each X-stabilizer row followed by CNOT
// fan-outs along the row supports.
func EncodeZero() *circuit.Circuit {
	c := circuit.New(N)
	// Pivots: leading qubit of each row (3, 1, 0).
	c.H(3)
	c.H(1)
	c.H(0)
	// Row 0 from pivot 3: 3 -> 4,5,6.
	c.CNOT(3, 4)
	c.CNOT(3, 5)
	c.CNOT(3, 6)
	// Row 1 from pivot 1: 1 -> 2,5,6.
	c.CNOT(1, 2)
	c.CNOT(1, 5)
	c.CNOT(1, 6)
	// Row 2 from pivot 0: 0 -> 2,4,6.
	c.CNOT(0, 2)
	c.CNOT(0, 4)
	c.CNOT(0, 6)
	return c
}

// Syndrome computes the Hamming syndrome value (0..7) of a 7-bit
// measurement or error word: bit r of the result is the parity of the word
// over Supports[r], with row 0 as the most significant bit. A zero result
// means "no error detected"; otherwise the value-1 is the qubit to correct.
func Syndrome(bits [N]int) int {
	s := 0
	for r := 0; r < 3; r++ {
		par := 0
		for _, q := range Supports[r] {
			par ^= bits[q] & 1
		}
		s |= par << (2 - r)
	}
	return s
}

// DecodePosition maps a syndrome value to the physical qubit to correct, or
// -1 for the trivial syndrome.
func DecodePosition(syndrome int) int {
	if syndrome < 0 || syndrome > 7 {
		panic(fmt.Sprintf("steane: syndrome %d out of range", syndrome))
	}
	return syndrome - 1
}

// Parity returns the overall parity of a 7-bit word: the logical readout of
// a transversally measured block (both logical operators act on all 7
// qubits).
func Parity(bits [N]int) int {
	p := 0
	for _, b := range bits {
		p ^= b & 1
	}
	return p
}

// CorrectWord applies the Hamming decode to a 7-bit word in place and
// reports whether a correction was applied.
func CorrectWord(bits *[N]int) bool {
	pos := DecodePosition(Syndrome(*bits))
	if pos < 0 {
		return false
	}
	bits[pos] ^= 1
	return true
}

// DecodeBlock performs ideal decoding of one error-component word (the X
// bits or the Z bits of the residual error on a block): it corrects the
// word to the nearest coset and returns 1 when the residual is a logical
// operator (decoder failure), 0 when it is a stabilizer (harmless).
func DecodeBlock(bits [N]int) int {
	CorrectWord(&bits)
	return Parity(bits)
}
