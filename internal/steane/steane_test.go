package steane

import (
	"testing"

	"qla/internal/stabilizer"
)

func TestGeneratorsCommute(t *testing.T) {
	gens := Generators()
	if len(gens) != 6 {
		t.Fatalf("got %d generators", len(gens))
	}
	for i := range gens {
		for j := range gens {
			if !gens[i].Commutes(gens[j]) {
				t.Errorf("generators %d and %d anticommute", i, j)
			}
		}
	}
}

func TestLogicalOperators(t *testing.T) {
	lx, lz := LogicalX(), LogicalZ()
	if !lx.Commutes(lz) == false {
		// X⊗7 and Z⊗7 overlap on 7 qubits -> anticommute.
		t.Error("logical X and Z should anticommute")
	}
	for i, g := range Generators() {
		if !lx.Commutes(g) {
			t.Errorf("logical X anticommutes with generator %d", i)
		}
		if !lz.Commutes(g) {
			t.Errorf("logical Z anticommutes with generator %d", i)
		}
	}
	if lx.Weight() != 7 || lz.Weight() != 7 {
		t.Error("transversal logical operators should have weight 7")
	}
}

func TestEncodeZeroStabilized(t *testing.T) {
	s := stabilizer.New(N)
	EncodeZero().RunOn(s)
	for i, g := range Generators() {
		if e := s.Expectation(g); e != 1 {
			t.Errorf("<generator %d> = %d after encoding, want +1", i, e)
		}
	}
	if e := s.Expectation(LogicalZ()); e != 1 {
		t.Errorf("<Z_L> = %d on |0>_L, want +1", e)
	}
	if e := s.Expectation(LogicalX()); e != 0 {
		t.Errorf("<X_L> = %d on |0>_L, want 0 (random)", e)
	}
}

func TestTransversalXFlipsLogical(t *testing.T) {
	s := stabilizer.New(N)
	EncodeZero().RunOn(s)
	s.ApplyPauli(LogicalX())
	if e := s.Expectation(LogicalZ()); e != -1 {
		t.Errorf("<Z_L> = %d after logical X on |0>_L, want -1", e)
	}
	// Still in the code space.
	for i, g := range Generators() {
		if e := s.Expectation(g); e != 1 {
			t.Errorf("generator %d violated after transversal X: %d", i, e)
		}
	}
}

func TestTransversalCNOT(t *testing.T) {
	// Two blocks; logical CNOT = 7 transversal physical CNOTs.
	s := stabilizer.New(2 * N)
	enc := EncodeZero()
	blockA := make([]int, N)
	blockB := make([]int, N)
	for i := 0; i < N; i++ {
		blockA[i] = i
		blockB[i] = N + i
	}
	// Encode both blocks.
	for _, blk := range [][]int{blockA, blockB} {
		for _, op := range enc.Ops {
			switch op.Type.String() {
			case "h":
				s.H(blk[op.Q[0]])
			case "cnot":
				s.CNOT(blk[op.Q[0]], blk[op.Q[1]])
			}
		}
	}
	// Flip block A to logical |1>.
	for _, q := range blockA {
		s.X(q)
	}
	// Transversal CNOT A -> B.
	for i := 0; i < N; i++ {
		s.CNOT(blockA[i], blockB[i])
	}
	// Block B must now read logical 1.
	lzB := LogicalZ().Embed(2*N, blockB)
	if e := s.Expectation(lzB); e != -1 {
		t.Errorf("<Z_L(B)> = %d after logical CNOT from |1>_L, want -1", e)
	}
	lzA := LogicalZ().Embed(2*N, blockA)
	if e := s.Expectation(lzA); e != -1 {
		t.Errorf("<Z_L(A)> = %d, control should stay |1>_L", e)
	}
}

func TestSyndromeAllSingleErrors(t *testing.T) {
	// Every weight-1 error word must decode back to itself.
	for q := 0; q < N; q++ {
		var w [N]int
		w[q] = 1
		s := Syndrome(w)
		if got := DecodePosition(s); got != q {
			t.Errorf("error on qubit %d decoded to %d (syndrome %d)", q, got, s)
		}
	}
	// Trivial syndrome.
	var zero [N]int
	if Syndrome(zero) != 0 || DecodePosition(0) != -1 {
		t.Error("zero word should have trivial syndrome")
	}
}

func TestSyndromeOfStabilizersTrivial(t *testing.T) {
	// Stabilizer supports (and their sums) are codewords: syndrome 0.
	for r := 0; r < 3; r++ {
		var w [N]int
		for _, q := range Supports[r] {
			w[q] = 1
		}
		if s := Syndrome(w); s != 0 {
			t.Errorf("row %d has syndrome %d, want 0", r, s)
		}
		if Parity(w) != 0 {
			t.Errorf("stabilizer row %d has odd parity", r)
		}
	}
}

func TestDecodeBlock(t *testing.T) {
	// Single errors are corrected: no logical error.
	for q := 0; q < N; q++ {
		var w [N]int
		w[q] = 1
		if DecodeBlock(w) != 0 {
			t.Errorf("single error on %d caused logical failure", q)
		}
	}
	// The all-ones word is the logical operator: failure.
	var all [N]int
	for q := range all {
		all[q] = 1
	}
	if DecodeBlock(all) != 1 {
		t.Error("logical operator not detected as failure")
	}
	// Two errors exceed the distance: decoding must misfire into a
	// logical error for at least some pairs (weight-2 + correction =
	// weight 3 logical coset).
	fails := 0
	for a := 0; a < N; a++ {
		for b := a + 1; b < N; b++ {
			var w [N]int
			w[a], w[b] = 1, 1
			fails += DecodeBlock(w)
		}
	}
	if fails == 0 {
		t.Error("no weight-2 error produced a logical failure; decoder too strong for a d=3 code")
	}
}

func TestEncoderDetectsInjectedError(t *testing.T) {
	// Inject each single-qubit X error after encoding; the Z-stabilizer
	// syndrome measured via expectations must identify it.
	for q := 0; q < N; q++ {
		s := stabilizer.New(N)
		EncodeZero().RunOn(s)
		s.X(q)
		var word [N]int
		for r, g := range ZStabilizers() {
			e := s.Expectation(g)
			if e == 0 {
				t.Fatalf("Z stabilizer %d random after X error", r)
			}
			if e == -1 {
				// violated: record a 1 on any support qubit... build the
				// syndrome directly instead.
				word[Supports[r][0]] ^= 0 // no-op; syndrome assembled below
			}
		}
		// Assemble syndrome value from violated stabilizers directly.
		sv := 0
		for r, g := range ZStabilizers() {
			if s.Expectation(g) == -1 {
				sv |= 1 << (2 - r)
			}
		}
		if got := DecodePosition(sv); got != q {
			t.Errorf("X error on %d: syndrome %d decodes to %d", q, sv, got)
		}
	}
}

func TestCorrectWord(t *testing.T) {
	var w [N]int
	w[5] = 1
	if !CorrectWord(&w) {
		t.Error("correction should have been applied")
	}
	for q, b := range w {
		if b != 0 {
			t.Errorf("bit %d still set after correction", q)
		}
	}
	var clean [N]int
	if CorrectWord(&clean) {
		t.Error("no correction expected on clean word")
	}
}
