package qla

import (
	"context"
	"strings"
	"testing"

	"qla/internal/commsim"
	"qla/internal/engine"
)

// runData runs spec on a fresh engine and returns its typed payload.
func runData[T any](tb testing.TB, spec Spec) T {
	tb.Helper()
	res, err := NewEngine().Run(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	data, ok := res.Data.(T)
	if !ok {
		tb.Fatalf("%s returned %T", spec.Experiment, res.Data)
	}
	return data
}

// compareAdders runs the compare-adders experiment at one width.
func compareAdders(tb testing.TB, n int) AdderComparison {
	return runData[engine.AddersData](tb, Spec{
		Experiment: "compare-adders",
		Params:     ExperimentParams{"widths": []int{n}, "with-modular": false},
	}).Comparisons[0]
}

// codeAblation runs the code-ablation cost table (no decoder Monte
// Carlo) under p.
func codeAblation(tb testing.TB, p TechParams) []CodeCost {
	return runData[engine.CodeAblationData](tb, Spec{
		Experiment: "code-ablation",
		Machine:    MachineSpec{Tech: &p},
		Params:     ExperimentParams{"mc-trials": 0},
	}).Costs
}

// runChainSpec is the run-chain Spec for a chain configuration.
func runChainSpec(cfg ChainConfig) Spec {
	return Spec{Experiment: "run-chain", Params: ExperimentParams{
		"links":         cfg.Links,
		"link-eps":      cfg.LinkEps,
		"purify-rounds": cfg.PurifyRounds,
		"swap-eps":      cfg.SwapEps,
		"trials":        cfg.Trials,
		"seed":          cfg.Seed,
	}}
}

// Facade coverage for the extension systems: adder circuits, the code
// catalog, the QCCD shuttle simulator, the gate-level interconnect
// Monte Carlo, classical control and multi-chip planning.

func TestFacadeCompareAdders(t *testing.T) {
	cmp := compareAdders(t, 16)
	if cmp.Ripple.ToffoliDepth != 32 {
		t.Fatalf("ripple depth %d, want 32", cmp.Ripple.ToffoliDepth)
	}
	if cmp.CLA.ToffoliDepth >= cmp.Ripple.ToffoliDepth {
		t.Fatal("lookahead should win at n=16")
	}
	if cmp.DepthRatio <= 1 || cmp.WidthRatio <= 1 {
		t.Fatalf("ratios %+v", cmp)
	}
}

func TestFacadeMeasureModAdd(t *testing.T) {
	rip := MeasureModAdd(12, 3677, false)
	cla := MeasureModAdd(12, 3677, true)
	if cla.ToffoliDepth >= rip.ToffoliDepth {
		t.Fatalf("CLA modular adder depth %d not below ripple %d",
			cla.ToffoliDepth, rip.ToffoliDepth)
	}
	ratio := float64(cla.ToffoliDepth) / float64(cla.AdderDepth)
	if ratio < 2.5 || ratio > 5.5 {
		t.Fatalf("modular adder pass ratio %.2f outside [2.5, 5.5]", ratio)
	}
}

func TestFacadeCodeCatalog(t *testing.T) {
	cat := CodeCatalog()
	if len(cat) != 5 {
		t.Fatalf("catalog size %d", len(cat))
	}
	for _, c := range cat {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	costs := codeAblation(t, ExpectedParams())
	if len(costs) != len(cat) {
		t.Fatalf("ablation rows %d", len(costs))
	}
	found := false
	for _, c := range costs {
		if strings.Contains(c.Code, "Steane") {
			found = true
			if c.DataQubits != 7 {
				t.Fatalf("Steane block %d", c.DataQubits)
			}
		}
	}
	if !found {
		t.Fatal("no Steane row")
	}
}

func TestFacadeShuttleSim(t *testing.T) {
	g := TwoBlockGrid(3, 20)
	s := NewShuttleSim(g, ExpectedParams())
	if s.Makespan() != 0 {
		t.Fatal("fresh sim has nonzero makespan")
	}
	rep, err := RunTransversalGate(7, 12, ExpectedParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ions != 7 || rep.Makespan <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.MaxCorners > 4 {
		t.Fatalf("max corners %d; executed routes should stay near the 2-turn rule", rep.MaxCorners)
	}
}

func TestFacadeRunChain(t *testing.T) {
	res := runData[ChainResult](t, runChainSpec(ChainConfig{Links: 2, LinkEps: 0.05, Trials: 400, Seed: 5}))
	if res.ErrorRate < 0 || res.ErrorRate > res.PredictedError*1.5+0.05 {
		t.Fatalf("error rate %g vs prediction %g", res.ErrorRate, res.PredictedError)
	}
	cmp := runData[commsim.NaiveVsRepeater](t, Spec{Experiment: "compare-comm", Params: ExperimentParams{
		"link-eps": 0.04, "links": 6, "purify-rounds": 1, "trials": 600, "seed": 9,
	}})
	if cmp.Repeater.ErrorRate > cmp.Naive.ErrorRate {
		t.Fatal("repeater should not lose to naive teleportation")
	}
}

func TestFacadeAnalyzeControl(t *testing.T) {
	c := NewCircuit(10)
	for q := 0; q < 10; q++ {
		c.H(q)
	}
	for q := 0; q < 10; q++ {
		c.MeasureZ(q)
	}
	j, err := NewJob(c)
	if err != nil {
		t.Fatal(err)
	}
	b := AnalyzeControl(j)
	if b.PeakLasers != 10 {
		t.Fatalf("peak lasers %d", b.PeakLasers)
	}
	if b.PeakLasersSIMD < 1 || b.PeakLasersSIMD > 2 {
		t.Fatalf("SIMD groups %d", b.PeakLasersSIMD)
	}
	if b.PeakDetectors != 10 {
		t.Fatalf("detectors %d", b.PeakDetectors)
	}
}

func TestFacadePlanMultichip(t *testing.T) {
	pt, err := PlanMultichip(128, 10, 0, DefaultPhotonicLink(), ExpectedParams())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Chips < 2 {
		t.Fatalf("10 cm limit should force multiple chips, got %d", pt.Chips)
	}
	if !pt.Overlapped || pt.Slowdown != 1 {
		t.Fatalf("unlimited links should overlap: %+v", pt)
	}
}
