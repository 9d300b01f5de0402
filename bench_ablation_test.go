package qla

// Ablation benchmarks: one per extension-system design study, matching
// the per-experiment index in DESIGN.md. These complement the
// table/figure benches in bench_test.go.

import (
	"testing"

	"qla/internal/codes"
	"qla/internal/qccd"
	"qla/internal/qft"
)

// BenchmarkAblationAdders regenerates the ripple-vs-QCLA depth table
// (qlabench -exp adders).
func BenchmarkAblationAdders(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{8, 16, 32, 64} {
			cmp := compareAdders(b, n)
			if cmp.CLA.ToffoliDepth >= cmp.Ripple.ToffoliDepth && n >= 8 {
				b.Fatalf("n=%d: lookahead lost", n)
			}
		}
	}
}

// BenchmarkAblationCodes regenerates the code-choice comparison
// (qlabench -exp codes).
func BenchmarkAblationCodes(b *testing.B) {
	p := ExpectedParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		costs := codeAblation(b, p)
		if len(costs) != 5 {
			b.Fatal("catalog changed size")
		}
	}
}

// BenchmarkAblationCodeDistance certifies the catalog distances by
// brute force — the expensive validation step of the code framework.
func BenchmarkAblationCodeDistance(b *testing.B) {
	cat := codes.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cat {
			if d, ok := c.Distance(c.D); !ok || d != c.D {
				b.Fatalf("%s: distance drifted", c.Name)
			}
		}
	}
}

// BenchmarkAblationChainMC regenerates one row of the gate-level
// interconnect validation (qlabench -exp chainmc).
func BenchmarkAblationChainMC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := ChainConfig{Links: 4, LinkEps: 0.06, PurifyRounds: 1, Trials: 60, Seed: uint64(i)}
		runData[ChainResult](b, runChainSpec(cfg))
	}
}

// BenchmarkAblationShuttle regenerates one row of the QCCD substrate
// experiment (qlabench -exp shuttle).
func BenchmarkAblationShuttle(b *testing.B) {
	p := ExpectedParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTransversalGate(7, 100, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationShuttleRoute isolates the substrate router on the
// two-block geometry.
func BenchmarkAblationShuttleRoute(b *testing.B) {
	g := qccd.TwoBlockGrid(7, 350)
	s := qccd.NewSim(g, ExpectedParams())
	traps := g.TrapPositions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Route(traps[0], traps[13], -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMultichip regenerates the Section-6 partitioning
// table (qlabench -exp multichip).
func BenchmarkAblationMultichip(b *testing.B) {
	p := ExpectedParams()
	link := DefaultPhotonicLink()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{128, 512, 1024, 2048} {
			if _, err := PlanMultichip(n, 33, 0, link, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationQFT regenerates the QFT-charge validation
// (qlabench -exp qft): banded construction at Table-2 widths plus the
// dense verification at small width.
func BenchmarkAblationQFT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{128, 512, 1024} {
			c := qft.Banded(2*n, qft.PaperBand(n))
			if c.Counts().Total() == 0 {
				b.Fatal("empty circuit")
			}
		}
		if err := qft.Exact(5).MaxBasisError(); err > 1e-12 {
			b.Fatalf("exact QFT drifted: %g", err)
		}
	}
}

// BenchmarkAblationModAdd regenerates the modular-adder rows of the
// adders experiment.
func BenchmarkAblationModAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rip := MeasureModAdd(12, 3677, false)
		cla := MeasureModAdd(12, 3677, true)
		if cla.ToffoliDepth >= rip.ToffoliDepth {
			b.Fatal("lookahead lost at n=12")
		}
	}
}

// BenchmarkAblationControl measures the classical-control analyzer on
// a dense schedule.
func BenchmarkAblationControl(b *testing.B) {
	c := NewCircuit(128)
	for rep := 0; rep < 10; rep++ {
		for q := 0; q < 128; q++ {
			c.H(q)
		}
		for q := 0; q+1 < 128; q += 2 {
			c.CNOT(q, q+1)
		}
		for q := 0; q < 128; q += 4 {
			c.MeasureZ(q)
		}
	}
	j, err := NewJob(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bud := AnalyzeControl(j)
		if bud.PeakLasers == 0 {
			b.Fatal("empty budget")
		}
	}
}
