package control

import (
	"testing"

	"qla/internal/arq"
	"qla/internal/circuit"
	"qla/internal/iontrap"
)

func scheduleFor(t *testing.T, build func(c *circuit.Circuit)) []arq.PulseOp {
	t.Helper()
	c := circuit.New(8)
	build(c)
	j, err := arq.NewJob(c)
	if err != nil {
		t.Fatal(err)
	}
	return j.Lower()
}

func TestEmptySchedule(t *testing.T) {
	b := Analyze(nil, 0)
	if b.Ops != 0 || b.PeakLasers != 0 || b.Makespan != 0 {
		t.Fatalf("empty budget %+v", b)
	}
	if b.EventWindow != 10e-6 {
		t.Fatalf("default window %g", b.EventWindow)
	}
}

// TestPeakLasersParallelGates: n simultaneous H gates need n dedicated
// lasers but only one SIMD group.
func TestPeakLasersParallelGates(t *testing.T) {
	pulses := scheduleFor(t, func(c *circuit.Circuit) {
		for q := 0; q < 8; q++ {
			c.H(q)
		}
	})
	b := Analyze(pulses, 0)
	if b.PeakLasers != 8 {
		t.Fatalf("peak lasers %d, want 8", b.PeakLasers)
	}
	if b.PeakLasersSIMD != 1 {
		t.Fatalf("SIMD groups %d, want 1 (all gates identical)", b.PeakLasersSIMD)
	}
}

// TestSIMDGroupsByGateType: simultaneous H and X pulses need two SIMD
// groups.
func TestSIMDGroupsByGateType(t *testing.T) {
	pulses := scheduleFor(t, func(c *circuit.Circuit) {
		for q := 0; q < 4; q++ {
			c.H(q)
		}
		for q := 4; q < 8; q++ {
			c.X(q)
		}
	})
	b := Analyze(pulses, 0)
	if b.PeakLasersSIMD != 2 {
		t.Fatalf("SIMD groups %d, want 2", b.PeakLasersSIMD)
	}
	if b.PeakLasers != 8 {
		t.Fatalf("peak lasers %d, want 8", b.PeakLasers)
	}
}

// TestSerialChainNeedsOneLaser: a dependency chain on one qubit keeps
// concurrency at 1.
func TestSerialChainNeedsOneLaser(t *testing.T) {
	pulses := scheduleFor(t, func(c *circuit.Circuit) {
		c.H(0).S(0).H(0).S(0)
	})
	b := Analyze(pulses, 0)
	if b.PeakLasers != 1 || b.PeakLasersSIMD != 1 {
		t.Fatalf("serial chain peaks %d/%d, want 1/1", b.PeakLasers, b.PeakLasersSIMD)
	}
}

// TestDetectorsCountMeasurements: concurrent readouts set the
// photodetector requirement; gates do not.
func TestDetectorsCountMeasurements(t *testing.T) {
	pulses := scheduleFor(t, func(c *circuit.Circuit) {
		for q := 0; q < 5; q++ {
			c.MeasureZ(q)
		}
		c.H(5)
	})
	b := Analyze(pulses, 0)
	if b.PeakDetectors != 5 {
		t.Fatalf("detectors %d, want 5", b.PeakDetectors)
	}
}

// TestMoveIsNotLaserDriven: transport contributes no laser pulses.
func TestMoveIsNotLaserDriven(t *testing.T) {
	c := circuit.New(2)
	c.Move(0, 10, 1) // 10 cells, 1 corner
	j, err := arq.NewJob(c)
	if err != nil {
		t.Fatal(err)
	}
	b := Analyze(j.Lower(), 0)
	if b.PeakLasers != 0 {
		t.Fatalf("move needed %d lasers, want 0", b.PeakLasers)
	}
	if b.Ops != 1 || b.Makespan <= 0 {
		t.Fatalf("budget %+v", b)
	}
}

func TestEventRates(t *testing.T) {
	pulses := scheduleFor(t, func(c *circuit.Circuit) {
		for q := 0; q < 8; q++ {
			c.H(q)
		}
	})
	b := Analyze(pulses, 1e-6)
	if b.MeanEventRate <= 0 || b.PeakEventRate <= 0 {
		t.Fatalf("rates %+v", b)
	}
	// All eight pulses start at t=0, inside one window.
	if want := 8 / 1e-6; b.PeakEventRate != want {
		t.Fatalf("peak event rate %g, want %g", b.PeakEventRate, want)
	}
}

// TestClassicalHeadroom pins the paper's argument: a 1 GHz classical
// processor has ~1000 cycles inside a 1 µs gate window.
func TestClassicalHeadroom(t *testing.T) {
	p := iontrap.Expected()
	h := ClassicalHeadroom(p.Time[iontrap.OpSingle], 1e9)
	if h != 1000 {
		t.Fatalf("headroom %g, want 1000", h)
	}
	if ClassicalHeadroom(0, 1e9) != 0 || ClassicalHeadroom(1e-6, 0) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

// TestBackToBackPulsesShareLaser: sequential pulses on the same qubit
// meet end-to-start and must not double-count at the boundary instant.
func TestBackToBackPulsesShareLaser(t *testing.T) {
	pulses := []arq.PulseOp{
		{Start: 0, Duration: 1e-6, Op: circuit.Op{Type: circuit.H, Q: [2]int{0, -1}}},
		{Start: 1e-6, Duration: 1e-6, Op: circuit.Op{Type: circuit.H, Q: [2]int{0, -1}}},
	}
	b := Analyze(pulses, 0)
	if b.PeakLasers != 1 {
		t.Fatalf("boundary double-count: peak %d, want 1", b.PeakLasers)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	c := circuit.New(64)
	for rep := 0; rep < 20; rep++ {
		for q := 0; q < 64; q++ {
			c.H(q)
		}
		for q := 0; q+1 < 64; q += 2 {
			c.CNOT(q, q+1)
		}
	}
	j, err := arq.NewJob(c)
	if err != nil {
		b.Fatal(err)
	}
	pulses := j.Lower()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(pulses, 0)
	}
}
