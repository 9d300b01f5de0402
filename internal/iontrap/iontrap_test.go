package iontrap

import (
	"math"
	"testing"
)

func TestTable1Times(t *testing.T) {
	p := Expected()
	cases := []struct {
		c    OpClass
		want float64
	}{
		{OpSingle, 1e-6},
		{OpDouble, 10e-6},
		{OpMeasure, 100e-6},
		{OpMoveCell, 0.01e-6},
		{OpSplit, 10e-6},
		{OpCorner, 10e-6},
		{OpCool, 1e-6},
	}
	for _, c := range cases {
		if p.Time[c.c] != c.want {
			t.Errorf("Time[%v] = %g, want %g", c.c, p.Time[c.c], c.want)
		}
	}
}

func TestTable1FailureColumns(t *testing.T) {
	cur, exp := Current(), Expected()
	if cur.Fail[OpSingle] != 1e-4 || cur.Fail[OpDouble] != 0.03 || cur.Fail[OpMeasure] != 0.01 {
		t.Errorf("current failure rates wrong: %v", cur.Fail)
	}
	if cur.Fail[OpMoveCell] != 0.005*20 {
		t.Errorf("current movement failure per cell = %g, want 0.1", cur.Fail[OpMoveCell])
	}
	if exp.Fail[OpSingle] != 1e-8 || exp.Fail[OpDouble] != 1e-7 || exp.Fail[OpMeasure] != 1e-8 || exp.Fail[OpMoveCell] != 1e-6 {
		t.Errorf("expected failure rates wrong: %v", exp.Fail)
	}
}

func TestAverageComponentFailure(t *testing.T) {
	// Paper Section 4.1.2: p0 is the average of the expected failure
	// probabilities; with Equation 2 it must yield Pf ≈ 1e-16 (tested in
	// the ft package). Here we pin the p0 value itself.
	p0 := Expected().AverageComponentFailure()
	want := (1e-8 + 1e-7 + 1e-8 + 1e-6) / 4
	if math.Abs(p0-want)/want > 1e-12 {
		t.Errorf("p0 = %g, want %g", p0, want)
	}
}

func TestMoveTimeChannelModel(t *testing.T) {
	p := Expected()
	// Paper: latency = tau + T*D with tau=10µs split, T=0.01µs.
	got := p.MoveTime(1000, 0)
	want := 10e-6 + 1000*0.01e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MoveTime(1000,0) = %g, want %g", got, want)
	}
	// Corners add 10µs each.
	got = p.MoveTime(100, 2)
	want = 10e-6 + 100*0.01e-6 + 2*10e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MoveTime(100,2) = %g, want %g", got, want)
	}
	if p.MoveTime(0, 0) != 0 {
		t.Error("zero-length move should cost nothing")
	}
}

func TestMoveFailureComposition(t *testing.T) {
	p := Expected()
	got := p.MoveFailure(100, 0)
	want := 1 - math.Pow(1-1e-6, 100)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("MoveFailure(100,0) = %g, want %g", got, want)
	}
	if p.MoveFailure(0, 0) != 0 {
		t.Error("no movement, no failure")
	}
	if f := p.MoveFailure(10, 2); f <= p.MoveFailure(10, 0) {
		t.Errorf("corners should add failure probability: %g", f)
	}
}

func TestChannelBandwidth(t *testing.T) {
	// Paper: "the ballistic channels provide a bandwidth of ~100M qbps".
	bw := Expected().ChannelBandwidthQBPS()
	if bw < 90e6 || bw > 110e6 {
		t.Errorf("channel bandwidth = %g qbps, want ~100M", bw)
	}
}

func TestUniformSweepParams(t *testing.T) {
	u := Uniform(2e-3, 1e-6)
	for _, c := range []OpClass{OpSingle, OpDouble, OpMeasure, OpPrep} {
		if u.Fail[c] != 2e-3 {
			t.Errorf("Uniform Fail[%v] = %g, want 2e-3", c, u.Fail[c])
		}
	}
	if u.Fail[OpMoveCell] != 1e-6 {
		t.Errorf("Uniform movement = %g, want fixed 1e-6", u.Fail[OpMoveCell])
	}
}

func TestValidate(t *testing.T) {
	for _, p := range []Params{Current(), Expected(), Uniform(1e-3, 1e-6)} {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", p.Name, err)
		}
	}
	bad := Expected()
	bad.Fail[OpSingle] = 1.5
	if bad.Validate() == nil {
		t.Error("Validate should reject probability > 1")
	}
	bad = Expected()
	bad.Time[OpDouble] = -1
	if bad.Validate() == nil {
		t.Error("Validate should reject negative time")
	}
}

func TestOpClassString(t *testing.T) {
	if OpSingle.String() != "single-gate" || OpMeasure.String() != "measure" {
		t.Error("OpClass names wrong")
	}
	if OpClass(99).String() == "" {
		t.Error("unknown OpClass should still render")
	}
}

func TestMoveTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MoveTime(-1,0) should panic")
		}
	}()
	Expected().MoveTime(-1, 0)
}
