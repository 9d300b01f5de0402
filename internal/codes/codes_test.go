package codes

import (
	"testing"

	"qla/internal/pauli"
	"qla/internal/stabilizer"
)

func TestCatalogValidates(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestCSSClassification(t *testing.T) {
	want := map[string]bool{
		Bitflip3().Name:   true,
		Phaseflip3().Name: true,
		Shor9().Name:      true,
		Steane7().Name:    true,
		Perfect5().Name:   false, // mixed X/Z generators
	}
	for _, c := range All() {
		if got := c.IsCSS(); got != want[c.Name] {
			t.Errorf("%s: IsCSS = %v, want %v", c.Name, got, want[c.Name])
		}
	}
}

// TestDistances certifies the claimed distance of every catalog code by
// brute force.
func TestDistances(t *testing.T) {
	for _, c := range All() {
		d, ok := c.Distance(c.D)
		if !ok || d != c.D {
			t.Errorf("%s: measured distance (%d,%v), want %d", c.Name, d, ok, c.D)
		}
	}
}

func TestValidateRejectsBrokenCodes(t *testing.T) {
	broken := func(mutate func(*Code)) *Code {
		c := Steane7()
		mutate(c)
		return c
	}
	cases := []struct {
		name string
		c    *Code
	}{
		{"anticommuting generators", broken(func(c *Code) {
			c.Stabilizers[0] = pauli.MustParse("+ZIIIIII")
			c.Stabilizers[1] = pauli.MustParse("+XIIIIII")
		})},
		{"dependent generators", broken(func(c *Code) {
			c.Stabilizers[1] = c.Stabilizers[0].Clone()
		})},
		{"logical anticommutes with generator", broken(func(c *Code) {
			c.LogicalX[0] = pauli.MustParse("+XIIIIII")
		})},
		{"logical in group", broken(func(c *Code) {
			c.LogicalX[0] = c.Stabilizers[0].Clone()
			// keep pairing plausible: X-type generator commutes with Z⊗7?
			// It does (even overlap), so the in-group check must fire.
		})},
		{"wrong width", broken(func(c *Code) {
			c.Stabilizers[0] = pauli.MustParse("+ZZ")
		})},
		{"negative phase", broken(func(c *Code) {
			g := c.Stabilizers[0].Clone()
			g.Phase = 2
			c.Stabilizers[0] = g
		})},
		{"bad counts", broken(func(c *Code) {
			c.Stabilizers = c.Stabilizers[:5]
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); err == nil {
				t.Fatalf("Validate accepted a broken code")
			}
		})
	}
}

// TestPureErrors verifies the destabilizer construction: D_i flips
// exactly syndrome bit i and commutes with the logicals.
func TestPureErrors(t *testing.T) {
	for _, c := range All() {
		pure, err := c.PureErrors()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for i, d := range pure {
			if got := c.SyndromeOf(d); got != 1<<uint(i) {
				t.Errorf("%s: pure error %d has syndrome %b, want %b", c.Name, i, got, 1<<uint(i))
			}
			for l := 0; l < c.K; l++ {
				if !d.Commutes(c.LogicalX[l]) || !d.Commutes(c.LogicalZ[l]) {
					t.Errorf("%s: pure error %d disturbs logical %d", c.Name, i, l)
				}
			}
		}
	}
}

// TestPrepareZero runs the projective encoder on the tableau backend
// for every code and verifies the resulting state is a +1 eigenstate of
// every generator and of logical Z.
func TestPrepareZero(t *testing.T) {
	for _, c := range All() {
		for seed := uint64(1); seed <= 8; seed++ {
			s := stabilizer.NewSeeded(c.N, seed)
			if err := c.PrepareZero(s); err != nil {
				t.Fatalf("%s seed %d: %v", c.Name, seed, err)
			}
			// Logical X must have indeterminate expectation on |0⟩_L
			// unless it is also a stabilizer (it never is).
			if got := s.Expectation(c.LogicalX[0]); got != 0 {
				t.Errorf("%s: logical X expectation %d on |0⟩_L, want 0", c.Name, got)
			}
		}
	}
}

// TestPrepareZeroMatchesSteaneEncoder cross-checks the projective
// encoder against the hand-written Steane encoding circuit from
// internal/steane: both must stabilize the identical group.
func TestPrepareZeroMatchesSteaneEncoder(t *testing.T) {
	c := Steane7()
	s := stabilizer.NewSeeded(7, 3)
	if err := c.PrepareZero(s); err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Stabilizers {
		if s.Expectation(g) != 1 {
			t.Fatalf("projective |0⟩_L does not stabilize %v", g)
		}
	}
	if s.Expectation(c.LogicalZ[0]) != 1 {
		t.Fatal("projective |0⟩_L has wrong logical Z")
	}
}

func TestPrepareZeroWidthMismatch(t *testing.T) {
	c := Steane7()
	if err := c.PrepareZero(stabilizer.New(5)); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

// TestSyndromeLinear: syndromes compose linearly — the syndrome of a
// product is the XOR of syndromes.
func TestSyndromeLinear(t *testing.T) {
	c := Shor9()
	a := pauli.MustParse("+XIIIIIIII")
	b := pauli.MustParse("+IIIIZIIII")
	if got := c.SyndromeOf(a.Mul(b)); got != c.SyndromeOf(a)^c.SyndromeOf(b) {
		t.Fatalf("syndrome not linear: %b vs %b", got, c.SyndromeOf(a)^c.SyndromeOf(b))
	}
}

func TestIsStabilizerProducts(t *testing.T) {
	c := Steane7()
	// Any product of generators is in the group.
	p := c.Stabilizers[0].Mul(c.Stabilizers[3]).Mul(c.Stabilizers[5])
	if !c.IsStabilizer(p) {
		t.Fatal("product of generators not recognized as stabilizer")
	}
	// A logical is not.
	if c.IsStabilizer(c.LogicalX[0]) {
		t.Fatal("logical X misclassified as stabilizer")
	}
}

func TestSolveInconsistent(t *testing.T) {
	// rows: x0, x0 — demand x0=0 and x0=1.
	rows := [][]uint64{{1}, {1}}
	if _, err := solve(rows, []bool{false, true}, 4); err == nil {
		t.Fatal("expected inconsistency")
	}
}

func TestRankAndSpan(t *testing.T) {
	rows := [][]uint64{{0b011}, {0b110}, {0b101}} // third = first XOR second
	if r := rank(rows, 3); r != 2 {
		t.Fatalf("rank = %d, want 2", r)
	}
	if !inSpan(rows[:2], []uint64{0b101}, 3) {
		t.Fatal("0b101 should be in span")
	}
	if inSpan(rows[:2], []uint64{0b111}, 3) {
		t.Fatal("0b111 should not be in span")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	p := pauli.MustParse("+XYZIZYX")
	q := fromVector(vector(p), p.N)
	if !p.EqualUpToPhase(q) {
		t.Fatalf("round trip: %v != %v", p, q)
	}
}

func BenchmarkDistanceSteane(b *testing.B) {
	c := Steane7()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Distance(3)
	}
}

func BenchmarkPrepareZeroShor9(b *testing.B) {
	c := Shor9()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := stabilizer.NewSeeded(c.N, uint64(i))
		if err := c.PrepareZero(s); err != nil {
			b.Fatal(err)
		}
	}
}
