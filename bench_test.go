// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index), plus
// micro-benchmarks of the simulation substrates. Each experiment benchmark
// reports its headline quantities through b.ReportMetric so the regenerated
// numbers appear directly in the `go test -bench` output; cmd/qlabench
// prints the full tables.
package qla_test

import (
	"context"
	"testing"

	"qla"
	"qla/internal/codes"
	"qla/internal/commsim"
	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/netsim"
	"qla/internal/noise"
	"qla/internal/pauliframe"
	"qla/internal/shor"
	"qla/internal/stabilizer"
	"qla/internal/steane"
	"qla/internal/teleport"
	"qla/internal/threshold"
)

// --- Table 1: technology parameters ---

func BenchmarkTable1Params(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		p := iontrap.Expected()
		bw = p.ChannelBandwidthQBPS()
	}
	b.ReportMetric(bw/1e6, "Mqbps")
}

// --- Table 2: Shor's algorithm sizing ---

func BenchmarkTable2Shor(b *testing.B) {
	var rows []shor.Resources
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = shor.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TimeDays, "days@128")
	b.ReportMetric(rows[3].TimeDays, "days@2048")
	b.ReportMetric(float64(rows[0].LogicalQubits), "qubits@128")
}

// --- Figure 7: threshold Monte Carlo ---

// benchFig7Trial runs one threshold level under both Monte Carlo
// backends so `go test -bench Fig7` prints the scalar-vs-batch ns/trial
// side by side. The bit-sliced backend packs 64 trials per word; at
// level 2 it must stay at least 10× faster, which CI's kernel gate
// checks in one process at -benchtime 0.2s (steady state on a 2-core
// Xeon: ~28×).
func benchFig7Trial(b *testing.B, level int, seed uint64) {
	for _, backend := range []string{threshold.BackendScalar, threshold.BackendBatch} {
		b.Run(backend, func(b *testing.B) {
			cfg := threshold.Config{
				Level: level, PhysError: 2e-3,
				MovePerCell: threshold.DefaultMovePerCell,
				Trials:      b.N, Seed: seed, Backend: backend,
			}
			pt, err := threshold.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pt.FailRate, "failrate")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial")
		})
	}
}

func BenchmarkFig7Level1Trial(b *testing.B) { benchFig7Trial(b, 1, 1) }

func BenchmarkFig7Level2Trial(b *testing.B) { benchFig7Trial(b, 2, 2) }

// BenchmarkFig7Cold runs one cold figure7 per iteration at the shape of
// perfbench's run-cold workload: p = 3e-3, 6,400 level-1 and 1,600
// level-2 trials on the batch backend, a new seed each iteration, on
// one worker. ns/op is the compute a never-seen run costs the server.
func BenchmarkFig7Cold(b *testing.B) {
	eng := qla.NewEngine(qla.WithParallelism(1))
	for i := 0; i < b.N; i++ {
		spec := qla.Spec{Experiment: "figure7", Params: qla.ExperimentParams{
			"phys-errors": []float64{3e-3}, "trials": 6400, "seed": i + 1, "backend": threshold.BackendBatch,
		}}
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Crossing(b *testing.B) {
	// The full two-curve sweep with the interpolated pseudo-threshold.
	var crossing float64
	for i := 0; i < b.N; i++ {
		ps := []float64{5e-4, 1.5e-3, 3e-3}
		l1, err := threshold.Sweep(1, ps, 20000, 11)
		if err != nil {
			b.Fatal(err)
		}
		l2, err := threshold.Sweep(2, ps, 10000, 12)
		if err != nil {
			b.Fatal(err)
		}
		crossing = threshold.Crossing(l1, l2)
	}
	b.ReportMetric(crossing*1e3, "pth_x1e3")
}

// --- Repeater-chain Monte Carlo (Section 4.2 validation) ---

// BenchmarkChainTrial runs the repeater-chain Monte Carlo under both
// backends so `go test -bench ChainTrial` prints the scalar-vs-batch
// ns/trial side by side (the bit-sliced backend packs 64 trials per
// word; both backends are bit-identical at the same seed). The scalar
// sub-benchmark additionally asserts its per-trial allocation budget:
// each worker reuses one tableau + RNG scratch across all its trials.
func BenchmarkChainTrial(b *testing.B) {
	base := commsim.ChainConfig{
		Links: 2, LinkEps: 0.06, PurifyRounds: 1, SwapEps: 0.01, Seed: 5,
	}
	for _, backend := range []string{commsim.BackendScalar, commsim.BackendBatch} {
		b.Run(backend, func(b *testing.B) {
			cfg := base
			cfg.Trials = b.N
			cfg.Backend = backend
			res, err := commsim.RunChain(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ErrorRate, "errrate")
			b.ReportMetric(res.RawPairsMean, "rawpairs")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial")
			if backend == commsim.BackendScalar {
				// Allocation budget: the per-worker chainRun scratch is
				// reset, not reallocated, per trial; only the fixed
				// worker-pool setup may allocate. Amortized over 64
				// trials on one worker that must stay under 2 allocs
				// per trial (it was >15 before scratch reuse). Off the
				// clock: the ns/trial metric above is already final and
				// the probe must not pollute ns/op.
				b.StopTimer()
				const probeTrials = 64
				probe := base
				probe.Trials = probeTrials
				probe.Backend = backend
				probe.Parallelism = 1
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := commsim.RunChain(probe); err != nil {
						b.Fatal(err)
					}
				})
				if perTrial := allocs / probeTrials; perTrial > 2 {
					b.Fatalf("scalar backend allocates %.2f/trial (budget 2)", perTrial)
				}
			}
		})
	}
}

// --- Code-catalog decoder Monte Carlo ---

// BenchmarkCodesMC runs the Steane-code decoder Monte Carlo under both
// backends, reporting ns/trial side by side.
func BenchmarkCodesMC(b *testing.B) {
	c := codes.Steane7()
	for _, backend := range []string{codes.BackendScalar, codes.BackendBatch} {
		b.Run(backend, func(b *testing.B) {
			res, err := codes.MonteCarloLogicalErrorBackend(c, 0.01, b.N, 17, backend)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.LogicalRate, "lograte")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial")
		})
	}
}

// --- Section 4.1.1: EC latency (Equation 1) ---

func BenchmarkECCLatency(b *testing.B) {
	var sum ft.Summary
	for i := 0; i < b.N; i++ {
		sum = ft.NewLatencyModel(iontrap.Expected()).Summarize()
	}
	b.ReportMetric(sum.ECLevel1*1e3, "T1ecc_ms")
	b.ReportMetric(sum.ECLevel2*1e3, "T2ecc_ms")
}

// --- Section 4.1.2: Equation 2 ---

func BenchmarkEquation2(b *testing.B) {
	p0 := iontrap.Expected().AverageComponentFailure()
	var pf float64
	for i := 0; i < b.N; i++ {
		pf = ft.GottesmanFailure(p0, ft.PthLocal, 12, 2)
	}
	b.ReportMetric(pf*1e16, "Pf_x1e16")
}

// --- Figure 9: interconnect connection time ---

func BenchmarkFig9Connection(b *testing.B) {
	lp := teleport.DefaultLinkParams()
	var t6000 float64
	for i := 0; i < b.N; i++ {
		var err error
		t6000, err = lp.ConnectionTime(6000, 100)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t6000*1e3, "ms@6000/100")
}

func BenchmarkFig9FullSeries(b *testing.B) {
	lp := teleport.DefaultLinkParams()
	dists := []int{2000, 6000, 12000, 24000, 30000}
	var cross int
	for i := 0; i < b.N; i++ {
		_ = lp.Figure9Series(dists)
		cross = lp.CrossoverDistance(100, 350, dists)
	}
	b.ReportMetric(float64(cross), "crossover_cells")
}

// --- Section 5: EPR scheduler ---

func BenchmarkScheduler(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		rows, err := netsim.DefaultExperiment([]int{2})
		if err != nil {
			b.Fatal(err)
		}
		util = rows[0].Utilization
	}
	b.ReportMetric(util*100, "util%@B2")
}

// --- Section 5: the 128-bit headline ---

func BenchmarkShor128(b *testing.B) {
	var r shor.Resources
	for i := 0; i < b.N; i++ {
		var err error
		r, err = shor.Estimate(128, iontrap.Expected())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TimeHours, "hours")
}

// --- substrate micro-benchmarks ---

func BenchmarkStabilizerCNOT1024(b *testing.B) {
	s := stabilizer.New(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CNOT(i%1023, (i%1023)+1)
	}
}

func BenchmarkStabilizerMeasure1024(b *testing.B) {
	s := stabilizer.New(1024)
	for q := 0; q < 1024; q++ {
		s.H(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % 1024
		s.H(q)
		s.Measure(q)
	}
}

func BenchmarkPauliFrameCNOT(b *testing.B) {
	f := pauliframe.New(1024)
	f.InjectX(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CNOT(i%1023, (i%1023)+1)
	}
}

// BenchmarkBatchFrame measures the bit-sliced frame's gate throughput:
// every op advances 64 lanes at once, reported as lane-ops/sec.
func BenchmarkBatchFrame(b *testing.B) {
	full := ^uint64(0)
	for _, bench := range []struct {
		name string
		run  func(f *pauliframe.Batch, i int)
	}{
		{"CNOT", func(f *pauliframe.Batch, i int) { f.CNOT(i%1023, (i%1023)+1, full) }},
		{"H", func(f *pauliframe.Batch, i int) { f.H(i%1024, full) }},
		{"MeasureZ", func(f *pauliframe.Batch, i int) { f.MeasureZ(i%1024, full) }},
		{"CNOTMasked", func(f *pauliframe.Batch, i int) { f.CNOT(i%1023, (i%1023)+1, 0xAAAA5555AAAA5555) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			f := pauliframe.NewBatch(1024)
			f.InjectX(0, full)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.run(f, i)
			}
			b.ReportMetric(float64(b.N)*pauliframe.Lanes/b.Elapsed().Seconds(), "laneops/s")
		})
	}
}

func BenchmarkNoisyCircuitRun(b *testing.B) {
	c := qla.NewCircuit(8)
	for q := 0; q < 7; q++ {
		c.H(q)
		c.CNOT(q, q+1)
	}
	for q := 0; q < 8; q++ {
		c.MeasureZ(q)
	}
	m := noise.NewModel(iontrap.Current(), 3)
	f := pauliframe.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Clear()
		m.RunNoisy(c, f)
	}
}

func BenchmarkSteaneEncodeDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var w [7]int
		w[i%7] = 1
		if steane.DecodeBlock(w) != 0 {
			b.Fatal("single error misdecoded")
		}
	}
}

func BenchmarkMachineEstimate(b *testing.B) {
	m, err := qla.NewMachine(256)
	if err != nil {
		b.Fatal(err)
	}
	c := qla.NewCircuit(16)
	for q := 0; q < 15; q++ {
		c.CNOT(q, q+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EstimateCircuit(c, nil); err != nil {
			b.Fatal(err)
		}
	}
}
