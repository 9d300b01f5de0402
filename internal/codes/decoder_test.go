package codes

import (
	"testing"

	"qla/internal/iontrap"
	"qla/internal/pauli"
	"qla/internal/stabilizer"
)

// TestDistance3CodesCorrectWeight1 is the core decoder guarantee: every
// distance-3 code exactly corrects every single-qubit error.
func TestDistance3CodesCorrectWeight1(t *testing.T) {
	for _, c := range []*Code{Perfect5(), Steane7(), Shor9()} {
		d, err := NewDecoder(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !d.CorrectsAllWeight(0) {
			t.Errorf("%s: identity not corrected", c.Name)
		}
		if !d.CorrectsAllWeight(1) {
			t.Errorf("%s: some weight-1 error not corrected", c.Name)
		}
	}
}

// TestRepetitionCodesAreAsymmetric: the bit-flip code corrects X but
// not Z; Z errors are syndrome-invisible and leave a logical residual.
func TestRepetitionCodesAreAsymmetric(t *testing.T) {
	c := Bitflip3()
	d, err := NewDecoder(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		x := pauli.NewIdentity(3)
		x.Set(q, 'X')
		if !d.Corrects(x) {
			t.Errorf("X on qubit %d not corrected", q)
		}
	}
	z := pauli.MustParse("+ZII")
	if c.SyndromeOf(z) != 0 {
		t.Fatal("Z error should be syndrome-invisible on the bit-flip code")
	}
	if d.Corrects(z) {
		t.Fatal("decoder cannot correct an invisible Z error")
	}
}

// TestBitflipEncoderStabilized: the Figure 4 CNOT fan-out encodes
// |0>_L — every stabilizer generator and the logical Z read +1.
func TestBitflipEncoderStabilized(t *testing.T) {
	c := Bitflip3()
	s := stabilizer.New(3)
	s.CNOT(0, 1)
	s.CNOT(0, 2)
	for i, g := range c.Stabilizers {
		if e := s.Expectation(g); e != 1 {
			t.Errorf("<generator %d> = %d after encoding", i, e)
		}
	}
	if e := s.Expectation(c.LogicalZ[0]); e != 1 {
		t.Errorf("<Z_L> = %d on |0>_L", e)
	}
}

// TestBitflipSingleXErrorsCorrected: the table decoder locates every
// single bit flip on the qubit it hit, and a clean block needs no
// correction.
func TestBitflipSingleXErrorsCorrected(t *testing.T) {
	c := Bitflip3()
	d, err := NewDecoder(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		x := pauli.NewIdentity(3)
		x.Set(q, 'X')
		if corr, ok := d.Decode(x); !ok || !corr.EqualUpToPhase(x) {
			t.Errorf("X on qubit %d misdecoded as %v", q, corr)
		}
		if !d.Corrects(x) {
			t.Errorf("single X on qubit %d caused a logical failure", q)
		}
	}
	clean := pauli.NewIdentity(3)
	if c.SyndromeOf(clean) != 0 || !d.Corrects(clean) {
		t.Error("clean block should decode trivially")
	}
}

// TestBitflipDoubleXErrorsFail: the decoder is the majority vote, so
// any two bit flips outvote the third qubit into a logical X — the
// code's X-distance is 3.
func TestBitflipDoubleXErrorsFail(t *testing.T) {
	d, err := NewDecoder(Bitflip3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		x := pauli.NewIdentity(3)
		x.Set(pair[0], 'X')
		x.Set(pair[1], 'X')
		if d.Corrects(x) {
			t.Errorf("double X on qubits %v should defeat the majority vote", pair)
		}
	}
}

// TestBitflipZPatternsInvisible: no Z-error pattern at all produces a
// bit-flip syndrome — the ablation headline for choosing a CSS code.
func TestBitflipZPatternsInvisible(t *testing.T) {
	c := Bitflip3()
	for mask := 1; mask < 8; mask++ {
		z := pauli.NewIdentity(3)
		for q := 0; q < 3; q++ {
			if mask>>q&1 == 1 {
				z.Set(q, 'Z')
			}
		}
		if s := c.SyndromeOf(z); s != 0 {
			t.Errorf("Z pattern %03b shows syndrome %b", mask, s)
		}
	}
}

// TestBitflipZErrorBreaksLogicalStateOnBackend: end to end on the
// exact tableau backend — encode |+>_L with the CNOT fan-out, hit one
// qubit with Z, and the logical X expectation flips while every
// stabilizer stays +1: an undetectable logical error, the reason the
// QLA uses a CSS code.
func TestBitflipZErrorBreaksLogicalStateOnBackend(t *testing.T) {
	c := Bitflip3()
	s := stabilizer.New(3)
	s.H(0)
	s.CNOT(0, 1)
	s.CNOT(0, 2)
	for i, g := range c.Stabilizers {
		if e := s.Expectation(g); e != 1 {
			t.Fatalf("<generator %d> = %d after encoding", i, e)
		}
	}
	if e := s.Expectation(c.LogicalX[0]); e != 1 {
		t.Fatalf("<X_L> = %d on encoded |+>", e)
	}
	s.Z(0)
	for i, g := range c.Stabilizers {
		if e := s.Expectation(g); e != 1 {
			t.Errorf("stabilizer %d saw the Z error (%d); it should not", i, e)
		}
	}
	if e := s.Expectation(c.LogicalX[0]); e != -1 {
		t.Errorf("<X_L> = %d after Z error, want -1 (undetected logical flip)", e)
	}
}

// TestWeight2BeyondBudget: a distance-3 code cannot correct all
// weight-2 errors; the decoder must fail on at least one.
func TestWeight2BeyondBudget(t *testing.T) {
	c := Steane7()
	d, err := NewDecoder(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.CorrectsAllWeight(2) {
		t.Fatal("distance-3 decoder claims to correct all weight-2 errors")
	}
}

// TestTableSizes: for a perfect code, weight-≤1 errors fill the entire
// syndrome space (2^(n-k) = 1 + 3n for [[5,1,3]]).
func TestTableSizes(t *testing.T) {
	d, err := NewDecoder(Perfect5(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TableSize(); got != 16 {
		t.Fatalf("perfect code table size = %d, want 16 (code is perfect)", got)
	}
	// Steane: 1 + 3*7 = 22 syndromes reachable at weight ≤ 1, of 64.
	ds, err := NewDecoder(Steane7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.TableSize(); got != 22 {
		t.Fatalf("Steane table size = %d, want 22", got)
	}
}

func TestLookupUnknownSyndrome(t *testing.T) {
	d, err := NewDecoder(Steane7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find a syndrome outside the weight-1 table: weight-2 errors on a
	// non-perfect code reach fresh syndromes.
	e := pauli.MustParse("+XZIIIII")
	s := Steane7().SyndromeOf(e)
	if _, ok := d.Lookup(s); ok {
		// Some weight-2 syndromes collide with weight-1 entries; pick
		// another pair that cannot (X and Z parts both non-trivial on
		// distinct qubits produce a joint syndrome).
		e = pauli.MustParse("+XIZIIII")
		s = Steane7().SyndromeOf(e)
		if _, ok := d.Lookup(s); ok {
			t.Skip("both probes collided with weight-1 syndromes")
		}
	}
}

func TestNewDecoderRejectsBadBudget(t *testing.T) {
	if _, err := NewDecoder(Steane7(), -1); err == nil {
		t.Fatal("expected error for negative budget")
	}
	if _, err := NewDecoder(Steane7(), 8); err == nil {
		t.Fatal("expected error for budget beyond n")
	}
}

// TestDecodeReturnsClones: mutating a returned correction must not
// corrupt the table.
func TestDecodeReturnsClones(t *testing.T) {
	d, err := NewDecoder(Steane7(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := pauli.MustParse("+XIIIIII")
	c1, _ := d.Decode(e)
	c1.Set(3, 'Y')
	c2, _ := d.Decode(e)
	if c2.At(3) != 'I' {
		t.Fatal("decoder table mutated through returned value")
	}
}

// TestCostModelOrdering documents the ablation the catalog enables:
// Steane's block is smaller than Shor's, the perfect code's is smaller
// still, and extraction time orders by total check weight.
func TestCostModelOrdering(t *testing.T) {
	p := iontrap.Expected()
	costs := Ablation(p)
	byName := map[string]ECCost{}
	for _, c := range costs {
		byName[c.Code] = c
		if c.TimeSeconds <= 0 || c.TotalQubits <= c.DataQubits {
			t.Errorf("%s: degenerate cost %+v", c.Code, c)
		}
	}
	steane := byName[Steane7().Name]
	shor := byName[Shor9().Name]
	perfect := byName[Perfect5().Name]
	if !(perfect.DataQubits < steane.DataQubits && steane.DataQubits < shor.DataQubits) {
		t.Fatal("block sizes out of order")
	}
	// Shor's 6 weight-2 checks + 2 weight-6 checks need the widest cat
	// state of the three.
	if shor.AncillaQubits <= steane.AncillaQubits {
		t.Fatalf("Shor cat width %d should exceed Steane's %d", shor.AncillaQubits, steane.AncillaQubits)
	}
	// The perfect code has the fewest generators (4) of the d=3 codes,
	// hence the shortest serial extraction.
	if perfect.TimeSeconds >= steane.TimeSeconds {
		t.Fatalf("perfect-code extraction %.6fs should beat Steane %.6fs",
			perfect.TimeSeconds, steane.TimeSeconds)
	}
}

func BenchmarkNewDecoderShor9(b *testing.B) {
	c := Shor9()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDecoder(c, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The helpers below serve only this package's tests.

// CorrectsAllWeight reports whether every weight-w error is exactly
// corrected. For a distance-d code with table budget t = (d-1)/2 this
// must hold for all w ≤ t.
func (d *Decoder) CorrectsAllWeight(w int) bool {
	c := d.code
	positions := make([]int, w)
	assign := make([]byte, w)
	letters := []byte{'X', 'Y', 'Z'}
	ok := true
	var overPositions func(start, depth int)
	var overLetters func(depth int)
	overLetters = func(depth int) {
		if !ok {
			return
		}
		if depth == w {
			p := pauli.NewIdentity(c.N)
			for i := 0; i < w; i++ {
				p.Set(positions[i], assign[i])
			}
			if !d.Corrects(p) {
				ok = false
			}
			return
		}
		for _, l := range letters {
			assign[depth] = l
			overLetters(depth + 1)
		}
	}
	overPositions = func(start, depth int) {
		if !ok {
			return
		}
		if depth == w {
			overLetters(0)
			return
		}
		for q := start; q <= c.N-(w-depth); q++ {
			positions[depth] = q
			overPositions(q+1, depth+1)
		}
	}
	if w == 0 {
		return d.Corrects(pauli.NewIdentity(c.N))
	}
	overPositions(0, 0)
	return ok
}
