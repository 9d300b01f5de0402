package pauliframe

import (
	"math/rand/v2"
	"testing"

	"qla/internal/pauli"
	"qla/internal/stabilizer"
)

func TestInjectAndMeasure(t *testing.T) {
	f := New(3)
	if !f.IsClean() {
		t.Fatal("fresh frame not clean")
	}
	f.InjectX(1)
	if f.MeasureZ(1) != 1 {
		t.Error("X error should flip Z measurement")
	}
	if f.MeasureZ(0) != 0 {
		t.Error("clean qubit should not flip")
	}
	f.Clear()
	f.InjectZ(2)
	if f.MeasureZ(2) != 0 {
		t.Error("Z error should not flip Z measurement")
	}
	f.Clear()
	f.InjectZ(2)
	if f.MeasureX(2) != 1 {
		t.Error("Z error should flip X measurement")
	}
}

func TestHPropagation(t *testing.T) {
	f := New(1)
	f.InjectX(0)
	f.H(0)
	if !f.ZBit(0) || f.XBit(0) {
		t.Error("H should map X -> Z")
	}
	f.H(0)
	if !f.XBit(0) || f.ZBit(0) {
		t.Error("H should map Z -> X")
	}
	f.Clear()
	f.InjectY(0)
	f.H(0)
	if !(f.XBit(0) && f.ZBit(0)) {
		t.Error("H should fix Y")
	}
}

func TestSPropagation(t *testing.T) {
	f := New(1)
	f.InjectX(0)
	f.S(0)
	if !(f.XBit(0) && f.ZBit(0)) {
		t.Error("S should map X -> Y")
	}
	f.Clear()
	f.InjectZ(0)
	f.S(0)
	if f.XBit(0) || !f.ZBit(0) {
		t.Error("S should fix Z")
	}
}

func TestCNOTPropagation(t *testing.T) {
	// X on control copies to target.
	f := New(2)
	f.InjectX(0)
	f.CNOT(0, 1)
	if !f.XBit(0) || !f.XBit(1) {
		t.Error("CNOT should copy X from control to target")
	}
	// Z on target copies to control.
	f.Clear()
	f.InjectZ(1)
	f.CNOT(0, 1)
	if !f.ZBit(0) || !f.ZBit(1) {
		t.Error("CNOT should copy Z from target to control")
	}
	// X on target stays put.
	f.Clear()
	f.InjectX(1)
	f.CNOT(0, 1)
	if f.XBit(0) || !f.XBit(1) {
		t.Error("CNOT should leave X on target alone")
	}
}

func TestReset(t *testing.T) {
	f := New(2)
	f.InjectY(0)
	f.InjectY(1)
	f.Reset(0)
	if f.XBit(0) || f.ZBit(0) {
		t.Error("Reset should clear the frame on the qubit")
	}
	if !f.XBit(1) {
		t.Error("Reset should not touch other qubits")
	}
	if f.Weight() != 1 {
		t.Errorf("Weight = %d, want 1", f.Weight())
	}
}

func TestPauliRoundTrip(t *testing.T) {
	f := New(5)
	f.InjectX(0)
	f.InjectY(2)
	f.InjectZ(4)
	p := f.Pauli()
	if p.String() != "+XIYIZ" {
		t.Errorf("Pauli() = %s", p)
	}
	g := New(5)
	g.SetPauli(p)
	if g.Pauli().String() != "+XIYIZ" {
		t.Errorf("SetPauli round trip = %s", g.Pauli())
	}
}

// TestFrameMatchesTableau is the key equivalence property: propagating a
// random Pauli error through a random Clifford circuit with the frame gives
// the same operator as conjugating it on the full tableau.
func TestFrameMatchesTableau(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.IntN(8)
		type gate struct{ kind, a, b int }
		var gates []gate
		for g := 0; g < 50; g++ {
			k := r.IntN(5)
			a := r.IntN(n)
			b := r.IntN(n)
			for b == a {
				b = r.IntN(n)
			}
			gates = append(gates, gate{k, a, b})
		}
		// Random initial error.
		errP := pauli.NewIdentity(n)
		for q := 0; q < n; q++ {
			errP.Set(q, "IXYZ"[r.IntN(4)])
		}

		// Frame path.
		f := New(n)
		f.SetPauli(errP)
		apply := func(k, a, b int) {
			switch k {
			case 0:
				f.H(a)
			case 1:
				f.S(a)
			case 2:
				f.CNOT(a, b)
			case 3:
				f.CZ(a, b)
			case 4:
				f.SWAP(a, b)
			}
		}
		for _, g := range gates {
			apply(g.kind, g.a, g.b)
		}
		frameResult := f.Pauli()

		// Tableau path: prepare two states differing by errP, run the same
		// Clifford on both; the final states must differ by frameResult.
		s1 := stabilizer.NewSeeded(n, uint64(trial)+1)
		s2 := stabilizer.NewSeeded(n, uint64(trial)+1)
		// Scramble the start state identically on both.
		for q := 0; q < n; q++ {
			if r.IntN(2) == 0 {
				s1.H(q)
				s2.H(q)
			}
		}
		s2.ApplyPauli(errP)
		runTab := func(s *stabilizer.State) {
			for _, g := range gates {
				switch g.kind {
				case 0:
					s.H(g.a)
				case 1:
					s.S(g.a)
				case 2:
					s.CNOT(g.a, g.b)
				case 3:
					s.CZ(g.a, g.b)
				case 4:
					s.SWAP(g.a, g.b)
				}
			}
		}
		runTab(s1)
		runTab(s2)
		// Applying the frame's Pauli to s2 must recover s1.
		s2.ApplyPauli(frameResult)
		if !s1.SameState(s2) {
			t.Fatalf("trial %d: frame disagrees with tableau conjugation", trial)
		}
	}
}

func TestCZSymmetric(t *testing.T) {
	f := New(2)
	f.InjectX(0)
	f.CZ(0, 1)
	if !f.XBit(0) || !f.ZBit(1) {
		t.Error("CZ should add Z on the far side of an X error")
	}
}

func TestSWAP(t *testing.T) {
	f := New(2)
	f.InjectY(0)
	f.SWAP(0, 1)
	if f.XBit(0) || f.ZBit(0) || !f.XBit(1) || !f.ZBit(1) {
		t.Error("SWAP should move the whole error")
	}
}

func TestClone(t *testing.T) {
	f := New(2)
	f.InjectX(0)
	g := f.Clone()
	g.InjectX(1)
	if f.XBit(1) {
		t.Error("Clone should not share storage")
	}
}

func BenchmarkFrameCNOT(b *testing.B) {
	f := New(1024)
	f.InjectX(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CNOT(i%1023, (i%1023)+1)
	}
}

// The helpers below serve only this package's tests.

// SetPauli overwrites the frame with the content of p (phase ignored).
func (f *Frame) SetPauli(p pauli.String) {
	if p.N != f.n {
		panic("pauliframe: SetPauli size mismatch")
	}
	copy(f.x, p.X)
	copy(f.z, p.Z)
}
