package threshold

import (
	"context"
	"testing"

	"qla/internal/iontrap"
)

func TestCleanRunsNeverFail(t *testing.T) {
	for _, level := range []int{1, 2} {
		pt, err := RunCtx(context.Background(), Config{Level: level, PhysError: 0, MovePerCell: 0, Trials: 200, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Failures != 0 {
			t.Errorf("level %d: %d failures with zero noise", level, pt.Failures)
		}
		if pt.NonTrivial != 0 {
			t.Errorf("level %d: non-trivial syndromes with zero noise", level)
		}
	}
}

// TestSingleFaultToleranceLevel1 exhaustively verifies the level-1 gadget:
// no single fault at any site, of any Pauli kind, may cause a logical
// failure (the defining property of a fault-tolerant d=3 gadget).
func TestSingleFaultToleranceLevel1(t *testing.T) {
	_, total := SingleFaultTrial(1, -1, 0)
	if total < 100 {
		t.Fatalf("level-1 gadget has only %d fault sites; circuit looks truncated", total)
	}
	for site := int64(0); site < total; site++ {
		for choice := 0; choice < 15; choice++ {
			if fail, _ := SingleFaultTrial(1, site, choice); fail {
				t.Fatalf("single fault (site %d, choice %d) caused a level-1 logical failure", site, choice)
			}
		}
	}
}

// TestSingleFaultToleranceLevel2 exhaustively verifies the level-2 gadget.
func TestSingleFaultToleranceLevel2(t *testing.T) {
	_, total := SingleFaultTrial(2, -1, 0)
	if total < 1000 {
		t.Fatalf("level-2 gadget has only %d fault sites; circuit looks truncated", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 17
	}
	for site := int64(0); site < total; site += stride {
		for choice := 0; choice < 15; choice++ {
			if fail, _ := SingleFaultTrial(2, site, choice); fail {
				t.Fatalf("single fault (site %d, choice %d) caused a level-2 logical failure", site, choice)
			}
		}
	}
}

func TestFailureRatesGrowWithError(t *testing.T) {
	for _, level := range []int{1, 2} {
		lo, err := RunCtx(context.Background(), Config{Level: level, PhysError: 1e-3, MovePerCell: DefaultMovePerCell, Trials: 4000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		hi, err := RunCtx(context.Background(), Config{Level: level, PhysError: 8e-3, MovePerCell: DefaultMovePerCell, Trials: 4000, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		if hi.FailRate <= lo.FailRate {
			t.Errorf("level %d: failure rate did not grow with physical error (%g -> %g)",
				level, lo.FailRate, hi.FailRate)
		}
	}
}

// TestFigure7Shape verifies the paper's qualitative result: below the
// pseudo-threshold recursion helps (level 2 beats level 1); above it,
// recursion hurts; and the measured crossing falls within the paper's
// quoted band of (2.1 ± 1.8)×10⁻³.
func TestFigure7Shape(t *testing.T) {
	ps := []float64{5e-4, 1.5e-3, 4e-3}
	l1, err := SweepCtx(context.Background(), 1, ps, 60000, 11, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SweepCtx(context.Background(), 2, ps, 30000, 12, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: level 2 no worse than level 1 within noise.
	if l2[0].FailRate > l1[0].FailRate+3*(l1[0].StdErr+l2[0].StdErr) {
		t.Errorf("at p=5e-4, level 2 (%.2g) should not exceed level 1 (%.2g)",
			l2[0].FailRate, l1[0].FailRate)
	}
	// Above threshold: recursion clearly hurts.
	if l2[2].FailRate < 2*l1[2].FailRate {
		t.Errorf("at p=4e-3, level 2 (%.2g) should clearly exceed level 1 (%.2g)",
			l2[2].FailRate, l1[2].FailRate)
	}
	cross := Crossing(l1, l2)
	if cross < 2e-4 || cross > 4e-3 {
		t.Errorf("pseudo-threshold crossing at %.2g; paper quotes (2.1±1.8)e-3", cross)
	}
}

func TestSyndromeRatesBallpark(t *testing.T) {
	// Section 4.1.1: non-trivial syndrome rates of 3.35e-4 (level 1) and
	// 7.92e-4 (level 2) at the expected parameters. Movement dominates
	// these rates; assert the order of magnitude.
	l1, l2, err := SyndromeRatesCtx(context.Background(), 200000, 21, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if l1 < 3e-5 || l1 > 3e-3 {
		t.Errorf("level-1 non-trivial syndrome rate = %.3g, paper says 3.35e-4", l1)
	}
	if l2 < 1e-4 || l2 > 1e-2 {
		t.Errorf("level-2 non-trivial syndrome rate = %.3g, paper says 7.92e-4", l2)
	}
	if l2 <= l1 {
		t.Errorf("level-2 rate (%.3g) should exceed level-1 rate (%.3g): more sites per extraction", l2, l1)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{Level: 3, PhysError: 1e-3, Trials: 10}); err == nil {
		t.Error("level 3 should be rejected")
	}
	if _, err := RunCtx(context.Background(), Config{Level: 1, PhysError: 1e-3, Trials: 0}); err == nil {
		t.Error("zero trials should be rejected")
	}
	if _, err := RunCtx(context.Background(), Config{Level: 1, PhysError: 2, Trials: 10}); err == nil {
		t.Error("probability > 1 should be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Level: 2, PhysError: 3e-3, MovePerCell: DefaultMovePerCell, Trials: 2000, Seed: 33}
	a, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.NonTrivial != b.NonTrivial {
		t.Errorf("runs with identical seeds disagree: %+v vs %+v", a, b)
	}
}

func TestCrossingInterpolation(t *testing.T) {
	l1 := []Point{{PhysError: 1e-3, FailRate: 0.002}, {PhysError: 2e-3, FailRate: 0.004}}
	l2 := []Point{{PhysError: 1e-3, FailRate: 0.001}, {PhysError: 2e-3, FailRate: 0.007}}
	cross := Crossing(l1, l2)
	if cross <= 1e-3 || cross >= 2e-3 {
		t.Errorf("crossing = %g, want inside (1e-3, 2e-3)", cross)
	}
	// No crossing when level 2 stays below.
	l2[1].FailRate = 0.003
	if Crossing(l1, l2) != 0 {
		t.Error("no crossing should yield 0")
	}
}

func TestHighErrorSaturates(t *testing.T) {
	pt, err := RunCtx(context.Background(), Config{Level: 1, PhysError: 0.2, MovePerCell: DefaultMovePerCell, Trials: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if pt.FailRate < 0.2 {
		t.Errorf("at p=0.2 the gadget should fail frequently, got %.3f", pt.FailRate)
	}
	if pt.PrepRetry == 0 {
		t.Error("at p=0.2 ancilla verification should be retrying")
	}
}

func TestExpectedParamsEssentiallyPerfect(t *testing.T) {
	// "We observed no failure at level 2 recursion as the physical
	// component errors approached the expected ion-trap parameters."
	exp := iontrap.Expected()
	pt, err := RunCtx(context.Background(), Config{
		Level:       2,
		PhysError:   exp.Fail[iontrap.OpDouble],
		MovePerCell: exp.Fail[iontrap.OpMoveCell],
		Trials:      3000,
		Seed:        44,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Failures != 0 {
		t.Errorf("level 2 at expected parameters failed %d/%d times; paper observed none",
			pt.Failures, pt.Trials)
	}
}
