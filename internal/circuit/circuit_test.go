package circuit

import (
	"math"
	"strings"
	"testing"

	"qla/internal/iontrap"
	"qla/internal/stabilizer"
)

func TestBuilderAndRun(t *testing.T) {
	c := New(2)
	c.H(0).CNOT(0, 1).MeasureZ(0).MeasureZ(1)
	for seed := uint64(1); seed < 20; seed++ {
		out := c.Run(seed)
		if len(out) != 2 {
			t.Fatalf("got %d outcomes", len(out))
		}
		if out[0] != out[1] {
			t.Fatalf("Bell measurement uncorrelated: %v", out)
		}
	}
}

func TestMeasureX(t *testing.T) {
	c := New(1)
	c.PrepPlus(0).MeasureX(0)
	if out := c.Run(1); out[0] != 0 {
		t.Errorf("X-basis measurement of |+> = %d, want 0", out[0])
	}
	c2 := New(1)
	c2.PrepPlus(0).Z(0).MeasureX(0)
	if out := c2.Run(1); out[0] != 1 {
		t.Errorf("X-basis measurement of |-> = %d, want 1", out[0])
	}
}

func TestLayersDepth(t *testing.T) {
	c := New(4)
	c.H(0).H(1).H(2).H(3)   // layer 0
	c.CNOT(0, 1).CNOT(2, 3) // layer 1
	c.CNOT(1, 2)            // layer 2
	layers := c.Layers()
	if len(layers) != 3 {
		t.Fatalf("depth = %d, want 3", len(layers))
	}
	if len(layers[0]) != 4 || len(layers[1]) != 2 || len(layers[2]) != 1 {
		t.Errorf("layer sizes = %d,%d,%d", len(layers[0]), len(layers[1]), len(layers[2]))
	}
	if c.Depth() != 3 {
		t.Errorf("Depth() = %d", c.Depth())
	}
}

func TestDurationParallelVsSerial(t *testing.T) {
	p := iontrap.Expected()
	c := New(4)
	c.H(0).H(1).H(2).H(3)
	// Four parallel 1µs gates: critical path 1µs.
	if d := c.Duration(p); math.Abs(d-1e-6) > 1e-12 {
		t.Errorf("parallel duration = %g, want 1µs", d)
	}
	// A CNOT chain serializes.
	c2 := New(3)
	c2.CNOT(0, 1).CNOT(1, 2)
	if d := c2.Duration(p); math.Abs(d-20e-6) > 1e-12 {
		t.Errorf("chained CNOT duration = %g, want 20µs", d)
	}
}

func TestDurationMove(t *testing.T) {
	p := iontrap.Expected()
	c := New(1)
	c.Move(0, 1000, 2)
	want := p.MoveTime(1000, 2)
	if d := c.Duration(p); math.Abs(d-want) > 1e-12 {
		t.Errorf("move duration = %g, want %g", d, want)
	}
}

func TestAppendMapped(t *testing.T) {
	inner := New(2)
	inner.H(0).CNOT(0, 1)
	outer := New(5)
	outer.AppendMapped(inner, []int{3, 1})
	if len(outer.Ops) != 2 {
		t.Fatalf("ops = %d", len(outer.Ops))
	}
	if outer.Ops[0].Q[0] != 3 {
		t.Errorf("H mapped to %d, want 3", outer.Ops[0].Q[0])
	}
	if outer.Ops[1].Q[0] != 3 || outer.Ops[1].Q[1] != 1 {
		t.Errorf("CNOT mapped to %v", outer.Ops[1].Q)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `# a test circuit
qubits 3
prep0 0
h 0
cnot 0 1
move 2 cells=120 corners=2
measure 0
measurex 1
`
	c, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 3 || len(c.Ops) != 6 {
		t.Fatalf("parsed %d qubits, %d ops", c.N, len(c.Ops))
	}
	if c.Ops[3].Type != Move || c.Ops[3].Cells != 120 || c.Ops[3].Corners != 2 {
		t.Errorf("move parsed as %+v", c.Ops[3])
	}
	// Round trip through String.
	c2, err := Parse(strings.NewReader(c.String()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if c2.String() != c.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", c.String(), c2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"h 0",                         // op before qubits
		"qubits 0",                    // bad count
		"qubits 2\nfrobnicate 0",      // unknown op
		"qubits 2\ncnot 0",            // missing operand
		"qubits 2\ncnot 0 0",          // identical operands
		"qubits 2\nh 5",               // out of range
		"qubits 2\nqubits 2",          // duplicate directive
		"qubits 2\nmove 0 cells=x",    // bad attribute
		"qubits 2\nmove 0 sideways=1", // unknown attribute
		"",                            // empty
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMeasurements(t *testing.T) {
	c := New(3)
	c.H(0).H(1).CNOT(0, 1).MeasureZ(0)
	if c.Measurements() != 1 {
		t.Errorf("Measurements = %d", c.Measurements())
	}
}

func TestRunOnSharedState(t *testing.T) {
	s := stabilizer.NewSeeded(4, 7)
	prep := New(4)
	prep.X(2)
	prep.RunOn(s)
	meas := New(4)
	meas.MeasureZ(2)
	if out := meas.RunOn(s); out[0] != 1 {
		t.Errorf("state not shared across RunOn calls")
	}
}

func TestStringFormat(t *testing.T) {
	c := New(2)
	c.H(0).CNOT(0, 1)
	s := c.String()
	if !strings.HasPrefix(s, "qubits 2\n") || !strings.Contains(s, "cnot 0 1") {
		t.Errorf("String() = %q", s)
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	c := New(2)
	mustPanic("out of range", func() { c.H(2) })
	mustPanic("cnot self", func() { c.CNOT(1, 1) })
	mustPanic("negative move", func() { c.Move(0, -1, 0) })
	mustPanic("append mismatch", func() { c.Append(New(3)) })
}
