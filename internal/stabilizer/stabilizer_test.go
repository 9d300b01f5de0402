package stabilizer

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"qla/internal/pauli"
)

func TestInitialState(t *testing.T) {
	s := New(3)
	for q := 0; q < 3; q++ {
		if got := s.Measure(q); got != 0 {
			t.Errorf("initial Measure(%d) = %d, want 0", q, got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestXFlipsMeasurement(t *testing.T) {
	s := New(2)
	s.X(1)
	if got := s.Measure(1); got != 1 {
		t.Errorf("Measure after X = %d, want 1", got)
	}
	if got := s.Measure(0); got != 0 {
		t.Errorf("Measure(0) = %d, want 0", got)
	}
}

func TestHadamardRandomness(t *testing.T) {
	ones := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		s := NewSeeded(1, uint64(i)+1)
		s.H(0)
		ones += s.Measure(0)
	}
	if ones < trials/4 || ones > 3*trials/4 {
		t.Errorf("H|0> measurement ones = %d of %d; expected balanced", ones, trials)
	}
}

func TestMeasurementRepeatable(t *testing.T) {
	s := New(1)
	s.H(0)
	first := s.Measure(0)
	for i := 0; i < 5; i++ {
		if got := s.Measure(0); got != first {
			t.Fatalf("repeated measurement changed: %d then %d", first, got)
		}
	}
}

func TestBellPairCorrelations(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := NewSeeded(2, seed)
		s.H(0)
		s.CNOT(0, 1)
		a, b := s.Measure(0), s.Measure(1)
		if a != b {
			t.Fatalf("Bell pair uncorrelated: %d %d (seed %d)", a, b, seed)
		}
	}
}

func TestGHZ(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		s := NewSeeded(5, seed)
		s.H(0)
		for q := 1; q < 5; q++ {
			s.CNOT(0, q)
		}
		// XXXXX and ZZIII etc. are stabilizers.
		if e := s.Expectation(pauli.MustParse("+XXXXX")); e != 1 {
			t.Fatalf("<XXXXX> = %d, want +1", e)
		}
		if e := s.Expectation(pauli.MustParse("+ZZIII")); e != 1 {
			t.Fatalf("<ZZIII> = %d, want +1", e)
		}
		if e := s.Expectation(pauli.MustParse("+ZIIII")); e != 0 {
			t.Fatalf("<ZIIII> = %d, want 0 (random)", e)
		}
		first := s.Measure(0)
		for q := 1; q < 5; q++ {
			if got := s.Measure(q); got != first {
				t.Fatalf("GHZ uncorrelated at qubit %d", q)
			}
		}
	}
}

func TestGateIdentities(t *testing.T) {
	// Build a random state, then check H²=I, S⁴=I, CNOT²=I, SWAP²=I, CZ²=I.
	build := func() *State {
		s := NewSeeded(4, 99)
		s.H(0)
		s.CNOT(0, 1)
		s.S(1)
		s.H(2)
		s.CNOT(2, 3)
		s.S(3)
		s.CNOT(1, 2)
		return s
	}
	ref := build()

	s := build()
	s.H(1)
	s.H(1)
	if !s.SameState(ref) {
		t.Error("H² != I")
	}

	s = build()
	for i := 0; i < 4; i++ {
		s.S(2)
	}
	if !s.SameState(ref) {
		t.Error("S⁴ != I")
	}

	s = build()
	s.S(0)
	s.Sdg(0)
	if !s.SameState(ref) {
		t.Error("S·Sdg != I")
	}

	s = build()
	s.CNOT(1, 3)
	s.CNOT(1, 3)
	if !s.SameState(ref) {
		t.Error("CNOT² != I")
	}

	s = build()
	s.CZ(0, 2)
	s.CZ(0, 2)
	if !s.SameState(ref) {
		t.Error("CZ² != I")
	}

	s = build()
	s.SWAP(0, 3)
	s.SWAP(0, 3)
	if !s.SameState(ref) {
		t.Error("SWAP² != I")
	}

	// X = H Z H ; Z = S S ; Y = i X Z (phases invisible to stabilizer states)
	s = build()
	s.X(2)
	s2 := build()
	s2.H(2)
	s2.Z(2)
	s2.H(2)
	if !s.SameState(s2) {
		t.Error("X != HZH")
	}
	s = build()
	s.Z(1)
	s2 = build()
	s2.S(1)
	s2.S(1)
	if !s.SameState(s2) {
		t.Error("Z != S²")
	}
}

func TestSConjugation(t *testing.T) {
	// S X S† = Y: prepare |+>, apply S, state should be +1 eigenstate of Y.
	s := New(1)
	s.H(0)
	if e := s.Expectation(pauli.MustParse("+X")); e != 1 {
		t.Fatalf("<X> after H = %d", e)
	}
	s.S(0)
	if e := s.Expectation(pauli.MustParse("+Y")); e != 1 {
		t.Fatalf("<Y> after S·H = %d, want +1", e)
	}
	s.Sdg(0)
	if e := s.Expectation(pauli.MustParse("+X")); e != 1 {
		t.Fatalf("<X> after Sdg·S·H = %d, want +1", e)
	}
}

func TestSwapMovesState(t *testing.T) {
	s := New(3)
	s.X(0)
	s.SWAP(0, 2)
	if got := s.Measure(0); got != 0 {
		t.Errorf("qubit 0 after swap = %d, want 0", got)
	}
	if got := s.Measure(2); got != 1 {
		t.Errorf("qubit 2 after swap = %d, want 1", got)
	}
}

func TestMeasureForced(t *testing.T) {
	s := New(2)
	s.H(0)
	out, random, ok := s.MeasureForced(0, 1)
	if !random || !ok || out != 1 {
		t.Fatalf("MeasureForced on random outcome: out=%d random=%v ok=%v", out, random, ok)
	}
	if got := s.Measure(0); got != 1 {
		t.Error("forced outcome did not persist")
	}
	// Forcing a determinate outcome to the wrong value must fail.
	out, random, ok = s.MeasureForced(0, 0)
	if random || ok || out != 1 {
		t.Fatalf("forcing determinate: out=%d random=%v ok=%v", out, random, ok)
	}
}

func TestMeasureReset(t *testing.T) {
	s := New(1)
	s.H(0)
	_ = s.MeasureReset(0)
	if got := s.Measure(0); got != 0 {
		t.Errorf("after MeasureReset, Measure = %d, want 0", got)
	}
}

func TestTeleportationIdentity(t *testing.T) {
	// Teleport an arbitrary stabilizer state of qubit 0 to qubit 2 using a
	// Bell pair on (1,2) and classical corrections; verify the output
	// state matches a reference preparation for several input states.
	preps := []func(s *State){
		func(s *State) {},                   // |0>
		func(s *State) { s.X(0) },           // |1>
		func(s *State) { s.H(0) },           // |+>
		func(s *State) { s.H(0); s.Z(0) },   // |->
		func(s *State) { s.H(0); s.S(0) },   // |+i>
		func(s *State) { s.H(0); s.Sdg(0) }, // |-i>
	}
	checks := []pauli.String{
		pauli.MustParse("+Z"), pauli.MustParse("-Z"),
		pauli.MustParse("+X"), pauli.MustParse("-X"),
		pauli.MustParse("+Y"), pauli.MustParse("-Y"),
	}
	for pi, prep := range preps {
		for seed := uint64(0); seed < 20; seed++ {
			s := NewSeeded(3, seed*7+1)
			prep(s)
			// Bell pair between 1 (Alice) and 2 (Bob).
			s.H(1)
			s.CNOT(1, 2)
			// Bell measurement on (0,1).
			s.CNOT(0, 1)
			s.H(0)
			m0 := s.Measure(0)
			m1 := s.Measure(1)
			if m1 == 1 {
				s.X(2)
			}
			if m0 == 1 {
				s.Z(2)
			}
			// Qubit 2 should now be in the prepared state.
			got := s.Expectation(checks[pi].Embed(3, []int{2}))
			if got != 1 {
				t.Fatalf("teleport prep %d seed %d: expectation %d, want +1", pi, seed, got)
			}
		}
	}
}

func TestExpectationSigns(t *testing.T) {
	s := New(2)
	s.X(0) // |10>
	if e := s.Expectation(pauli.MustParse("+ZI")); e != -1 {
		t.Errorf("<ZI> on |10> = %d, want -1", e)
	}
	if e := s.Expectation(pauli.MustParse("-ZI")); e != 1 {
		t.Errorf("<-ZI> on |10> = %d, want +1", e)
	}
	if e := s.Expectation(pauli.MustParse("+ZZ")); e != -1 {
		t.Errorf("<ZZ> on |10> = %d, want -1", e)
	}
	if e := s.Expectation(pauli.MustParse("+XI")); e != 0 {
		t.Errorf("<XI> on |10> = %d, want 0", e)
	}
	// Y eigenstate: S·H|0> = |+i>, <Y> = +1 (and -Y gives -1).
	s = New(1)
	s.H(0)
	s.S(0)
	if e := s.Expectation(pauli.MustParse("+Y")); e != 1 {
		t.Errorf("<Y> on |+i> = %d", e)
	}
	if e := s.Expectation(pauli.MustParse("-Y")); e != -1 {
		t.Errorf("<-Y> on |+i> = %d", e)
	}
}

func TestMeasurePauliJoint(t *testing.T) {
	// Measuring XX then ZZ on |00> prepares a Bell state (up to sign).
	for seed := uint64(1); seed < 40; seed++ {
		s := NewSeeded(2, seed)
		mxx := s.MeasurePauli(pauli.MustParse("+XX"))
		// After measuring XX, ZZ should still be +1 (it commutes and
		// stabilized |00>).
		if e := s.Expectation(pauli.MustParse("+ZZ")); e != 1 {
			t.Fatalf("<ZZ> after XX measurement = %d", e)
		}
		if e := s.Expectation(pauli.MustParse("+XX")); e != 1-2*mxx {
			t.Fatalf("<XX> = %d inconsistent with outcome %d", e, mxx)
		}
		// Repeat measurement must agree.
		if again := s.MeasurePauli(pauli.MustParse("+XX")); again != mxx {
			t.Fatalf("XX remeasurement changed: %d -> %d", mxx, again)
		}
	}
}

func TestMeasurePauliDeterminate(t *testing.T) {
	s := New(3)
	s.X(1)
	if m := s.MeasurePauli(pauli.MustParse("+IZI")); m != 1 {
		t.Errorf("measuring IZI on |010> = %d, want 1", m)
	}
	if m := s.MeasurePauli(pauli.MustParse("+ZII")); m != 0 {
		t.Errorf("measuring ZII on |010> = %d, want 0", m)
	}
	if m := s.MeasurePauli(pauli.MustParse("+ZZI")); m != 1 {
		t.Errorf("measuring ZZI on |010> = %d, want 1", m)
	}
}

func TestApplyPauli(t *testing.T) {
	s := New(3)
	s.ApplyPauli(pauli.MustParse("+XIX"))
	if got := s.Measure(0); got != 1 {
		t.Error("X not applied to qubit 0")
	}
	if got := s.Measure(1); got != 0 {
		t.Error("unexpected flip on qubit 1")
	}
	if got := s.Measure(2); got != 1 {
		t.Error("X not applied to qubit 2")
	}
}

func TestInvariantsUnderRandomCircuits(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.IntN(10)
		s := NewSeeded(n, uint64(trial)+100)
		for g := 0; g < 200; g++ {
			switch r.IntN(6) {
			case 0:
				s.H(r.IntN(n))
			case 1:
				s.S(r.IntN(n))
			case 2:
				a, b := r.IntN(n), r.IntN(n)
				if a != b {
					s.CNOT(a, b)
				}
			case 3:
				s.X(r.IntN(n))
			case 4:
				s.Measure(r.IntN(n))
			case 5:
				s.Z(r.IntN(n))
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSameStateDetectsDifference(t *testing.T) {
	a := New(2)
	b := New(2)
	if !a.SameState(b) {
		t.Error("identical fresh states reported different")
	}
	b.X(0)
	if a.SameState(b) {
		t.Error("different states reported same")
	}
	// Same state prepared via different circuits.
	c := New(2)
	c.H(0)
	c.CNOT(0, 1)
	d := New(2)
	d.H(1)
	d.CNOT(1, 0)
	if !c.SameState(d) {
		t.Error("Bell states prepared differently reported different")
	}
}

func TestLargeState(t *testing.T) {
	// Exercise multi-word rows: 200-qubit GHZ.
	n := 200
	s := New(n)
	s.H(0)
	for q := 1; q < n; q++ {
		s.CNOT(q-1, q)
	}
	first := s.Measure(0)
	for q := 1; q < n; q++ {
		if got := s.Measure(q); got != first {
			t.Fatalf("GHZ-%d uncorrelated at %d", n, q)
		}
	}
}

func TestStabilizerAccessors(t *testing.T) {
	s := New(2)
	s.H(0)
	s.CNOT(0, 1)
	// Stabilizer group of the Bell state is {XX, ZZ} (as generators).
	for i := 0; i < 2; i++ {
		g := s.Stabilizer(i)
		if e := s.Expectation(g); e != 1 {
			t.Errorf("own stabilizer %d (%s) has expectation %d", i, g, e)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCloneRNGIndependent: sibling clones of the same state must draw
// independent measurement randomness. (A fixed clone seed once made
// every clone produce the identical "random" outcome stream.)
func TestCloneRNGIndependent(t *testing.T) {
	s := New(1)
	s.H(0)
	outcomes := map[int]int{}
	for i := 0; i < 64; i++ {
		outcomes[s.Clone().Measure(0)]++
	}
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("64 sibling clones produced only outcome distribution %v; clone RNGs are correlated", outcomes)
	}
	// Clones must still be deep copies: measuring one leaves another (and
	// the original) untouched.
	a, b := s.Clone(), s.Clone()
	a.Measure(0)
	if !b.SameState(s.Clone()) {
		t.Error("measuring one clone disturbed a sibling")
	}
}

func BenchmarkCNOTChain100(b *testing.B) {
	s := New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CNOT(i%99, (i%99)+1)
	}
}

func BenchmarkMeasure100(b *testing.B) {
	s := New(100)
	for q := 0; q < 100; q++ {
		s.H(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % 100
		s.H(q)
		s.Measure(q)
	}
}

// The oracles below serve only this package's tests.

// MeasureForced measures qubit q and, when the outcome is random, forces it
// to the supplied value (postselection). It returns the outcome and whether
// the outcome was random. Forcing a determinate measurement to the opposite
// value is impossible and reported via ok=false with the true outcome.
func (s *State) MeasureForced(q, want int) (out int, random, ok bool) {
	s.check(q)
	wi, m := q/64, uint64(1)<<(uint(q)%64)
	p := -1
	for i := s.n; i < 2*s.n; i++ {
		if s.x[i][wi]&m != 0 {
			p = i
			break
		}
	}
	if p < 0 {
		got := s.Measure(q)
		return got, false, got == want
	}
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
	s.r[p] = uint8(want)
	return want, true, true
}

// CheckInvariants verifies the tableau's structural invariants:
// destabilizer i anticommutes with stabilizer i and commutes with all other
// rows. It returns an error describing the first violation.
func (s *State) CheckInvariants() error {
	for i := 0; i < s.n; i++ {
		di := s.rowPauli(i)
		for j := 0; j < s.n; j++ {
			sj := s.rowPauli(j + s.n)
			comm := di.Commutes(sj)
			if i == j && comm {
				return fmt.Errorf("stabilizer: destabilizer %d commutes with its stabilizer", i)
			}
			if i != j && !comm {
				return fmt.Errorf("stabilizer: destabilizer %d anticommutes with stabilizer %d", i, j)
			}
		}
		for j := i + 1; j < s.n; j++ {
			if !s.rowPauli(i).Commutes(s.rowPauli(j)) {
				return fmt.Errorf("stabilizer: destabilizers %d and %d anticommute", i, j)
			}
			if !s.rowPauli(i + s.n).Commutes(s.rowPauli(j + s.n)) {
				return fmt.Errorf("stabilizer: stabilizers %d and %d anticommute", i, j)
			}
		}
	}
	return nil
}
