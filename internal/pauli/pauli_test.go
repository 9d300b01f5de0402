package pauli

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"+XIZY", "-XYZ", "+iXX", "-iZZZ", "+IIII", "+Y"}
	for _, c := range cases {
		p, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := p.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("XZ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Phase != 0 || p.At(0) != 'X' || p.At(1) != 'Z' {
		t.Errorf("Parse(XZ) = %v", p)
	}
	if _, err := Parse("XQ"); err == nil {
		t.Error("Parse(XQ) should fail")
	}
}

func TestSetAt(t *testing.T) {
	p := NewIdentity(4)
	p.Set(0, 'X')
	p.Set(1, 'Y')
	p.Set(2, 'Z')
	p.Set(3, 'I')
	want := "XYZI"
	for i := 0; i < 4; i++ {
		if p.At(i) != want[i] {
			t.Errorf("At(%d) = %c, want %c", i, p.At(i), want[i])
		}
	}
	p.Set(1, 'I')
	if p.At(1) != 'I' {
		t.Errorf("clearing qubit failed: %c", p.At(1))
	}
}

func TestWeight(t *testing.T) {
	cases := map[string]int{"+IIII": 0, "+XIZI": 2, "+YYYY": 4, "-XYZ": 3}
	for s, w := range cases {
		if got := MustParse(s).Weight(); got != w {
			t.Errorf("Weight(%s) = %d, want %d", s, got, w)
		}
	}
}

func TestCommutes(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"+XI", "+ZI", false},
		{"+XI", "+IZ", true},
		{"+XX", "+ZZ", true},
		{"+XX", "+ZI", false},
		{"+Y", "+X", false},
		{"+Y", "+Y", true},
		{"+XYZ", "+XYZ", true},
		{"+XZ", "+ZX", true},
	}
	for _, c := range cases {
		if got := MustParse(c.a).Commutes(MustParse(c.b)); got != c.want {
			t.Errorf("Commutes(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSingleQubitTable(t *testing.T) {
	// Full 1-qubit multiplication table with phases.
	cases := []struct{ a, b, want string }{
		{"+X", "+X", "+I"},
		{"+Y", "+Y", "+I"},
		{"+Z", "+Z", "+I"},
		{"+X", "+Y", "+iZ"},
		{"+Y", "+X", "-iZ"},
		{"+Y", "+Z", "+iX"},
		{"+Z", "+Y", "-iX"},
		{"+Z", "+X", "+iY"},
		{"+X", "+Z", "-iY"},
		{"-X", "+Y", "-iZ"},
		{"+iX", "+Y", "-Z"},
	}
	for _, c := range cases {
		got := MustParse(c.a).Mul(MustParse(c.b))
		if got.String() != c.want {
			t.Errorf("%s * %s = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMultiQubit(t *testing.T) {
	a := MustParse("+XYI")
	b := MustParse("+YXZ")
	// X*Y = iZ ; Y*X = -iZ ; I*Z = Z  => phases cancel: +ZZZ
	got := a.Mul(b)
	if got.String() != "+ZZZ" {
		t.Errorf("XYI * YXZ = %s, want +ZZZ", got)
	}
}

func randomPauli(r *rand.Rand, n int) String {
	p := NewIdentity(n)
	for q := 0; q < n; q++ {
		p.Set(q, "IXYZ"[r.IntN(4)])
	}
	p.Phase = uint8(r.IntN(4))
	return p
}

func TestMulPropertyAssociativeAndSquares(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(9)
		a, b, c := randomPauli(r, n), randomPauli(r, n), randomPauli(r, n)
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatalf("associativity failed: a=%s b=%s c=%s", a, b, c)
		}
		// Hermitian Paulis square to identity with + phase.
		h := randomPauli(r, n)
		h.Phase = uint8(2 * r.IntN(2))
		sq := h.Mul(h)
		if !sq.IsIdentity() || sq.Phase != 0 {
			t.Fatalf("h^2 != +I for h=%s: %s", h, sq)
		}
	}
}

func TestMulCommutationSign(t *testing.T) {
	// a·b = ±b·a with + iff they commute.
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(8)
		a, b := randomPauli(r, n), randomPauli(r, n)
		ab, ba := a.Mul(b), b.Mul(a)
		if !ab.EqualUpToPhase(ba) {
			t.Fatalf("ab and ba differ in content: %s vs %s", ab, ba)
		}
		diff := (int(ab.Phase) - int(ba.Phase) + 4) % 4
		if a.Commutes(b) && diff != 0 {
			t.Fatalf("commuting pair with phase diff %d: %s %s", diff, a, b)
		}
		if !a.Commutes(b) && diff != 2 {
			t.Fatalf("anticommuting pair with phase diff %d: %s %s", diff, a, b)
		}
	}
}

func TestEmbed(t *testing.T) {
	p := MustParse("-XY")
	e := p.Embed(5, []int{3, 1})
	if e.String() != "-IYIXI" {
		t.Errorf("Embed = %s, want -IYIXI", e)
	}
}

func TestQuickCommutesSymmetric(t *testing.T) {
	f := func(seed uint64, na uint8) bool {
		r := rand.New(rand.NewPCG(seed, seed+1))
		n := 1 + int(na%12)
		a, b := randomPauli(r, n), randomPauli(r, n)
		return a.Commutes(b) == b.Commutes(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsIdentity(t *testing.T) {
	if !MustParse("+III").IsIdentity() {
		t.Error("III should be identity")
	}
	if MustParse("+IXI").IsIdentity() {
		t.Error("IXI should not be identity")
	}
	neg := MustParse("-II")
	if !neg.IsIdentity() {
		t.Error("-II is identity content")
	}
}

func TestEmbedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Embed with mismatched positions should panic")
		}
	}()
	MustParse("+XY").Embed(4, []int{0})
}

func TestLargeOperators(t *testing.T) {
	// Exercise multi-word bit vectors (n > 64).
	n := 130
	p := NewIdentity(n)
	p.Set(0, 'X')
	p.Set(64, 'Y')
	p.Set(129, 'Z')
	if p.Weight() != 3 {
		t.Errorf("weight = %d", p.Weight())
	}
	q := NewIdentity(n)
	q.Set(129, 'X')
	if p.Commutes(q) {
		t.Error("Z and X on qubit 129 should anticommute")
	}
	pr := p.Mul(p)
	if !pr.IsIdentity() {
		t.Error("p^2 should be identity content")
	}
}
