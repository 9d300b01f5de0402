package qla_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"qla"
	"qla/internal/engine"
	"qla/internal/serve"
)

// The facade tests double as end-to-end integration tests of the public
// API: machine construction, the ARQ pipeline, and every experiment entry
// point.

func TestFacadeMachine(t *testing.T) {
	m, err := qla.NewMachine(64, qla.WithLevel(2), qla.WithBandwidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.LogicalQubits() != 64 {
		t.Errorf("capacity = %d", m.LogicalQubits())
	}
	if ec := m.ECStepTime(); ec < 0.03 || ec > 0.06 {
		t.Errorf("EC step %.4f s out of range", ec)
	}
	ok, err := m.Overlapped(0, 1)
	if err != nil || !ok {
		t.Errorf("adjacent communication should overlap: %v %v", ok, err)
	}
}

func TestFacadeARQPipeline(t *testing.T) {
	src := `qubits 4
h 0
cnot 0 1
cnot 1 2
cnot 2 3
measure 0
measure 3
`
	job, err := qla.ParseJob(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Exact: GHZ ends correlated.
	for seed := uint64(1); seed < 8; seed++ {
		out := job.RunExact(seed)
		if out[0] != out[1] {
			t.Fatalf("GHZ outer qubits uncorrelated: %v", out)
		}
	}
	// Estimate: everything overlaps on a small machine.
	rep, err := job.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommExposed != 0 {
		t.Errorf("%d exposed communications on a 4-qubit machine", rep.CommExposed)
	}
	// Noisy: current-generation parameters flip some outcomes.
	res, err := job.RunNoisy(qla.CurrentParams(), 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyFlipTrials == 0 {
		t.Error("current-generation noise should flip some outcomes")
	}
	// Pulses lower cleanly.
	var sb strings.Builder
	if err := job.WritePulses(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != len(job.Circuit.Ops) {
		t.Error("pulse schedule should have one line per op")
	}
}

// runData runs spec on a fresh engine and returns its typed payload.
func runData[T any](t *testing.T, spec qla.Spec) T {
	t.Helper()
	res, err := qla.NewEngine().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := res.Data.(T)
	if !ok {
		t.Fatalf("%s returned %T", spec.Experiment, res.Data)
	}
	return data
}

func TestFacadeExperiments(t *testing.T) {
	// Table 2.
	rows := runData[[]qla.ShorResources](t, qla.Spec{Experiment: "table2"})
	if len(rows) != 4 || rows[0].LogicalQubits != 37971 {
		t.Errorf("Table 2 head row wrong: %+v", rows[0])
	}
	// Equation 2.
	p0 := qla.ExpectedParams().AverageComponentFailure()
	eq2 := runData[engine.Equation2Data](t, qla.Spec{
		Experiment: "equation2",
		Params:     qla.ExperimentParams{"p0": p0, "pth": 7.5e-5, "level": 2},
	})
	if pf := eq2.Failure; pf < 0.8e-16 || pf > 1.2e-16 {
		t.Errorf("Equation2 = %.3g", pf)
	}
	// EC latency.
	tech := qla.ExpectedParams()
	sum := runData[qla.ECLatencySummary](t, qla.Spec{
		Experiment: "ec-latency",
		Machine:    qla.MachineSpec{Tech: &tech},
	})
	if sum.ECLevel2 < sum.ECLevel1 {
		t.Error("level-2 EC should cost more than level-1")
	}
	// Figure 9.
	fig9 := runData[engine.Figure9Data](t, qla.Spec{
		Experiment: "figure9",
		Params:     qla.ExperimentParams{"distances": []int{4000}},
	})
	if len(fig9.Points) != 7 {
		t.Errorf("Figure9 returned %d points", len(fig9.Points))
	}
	// Scheduler.
	sched := runData[[]qla.BandwidthResult](t, qla.Spec{
		Experiment: "scheduler-sweep",
		Params:     qla.ExperimentParams{"bandwidths": []int{2}},
	})
	if !sched[0].Overlapped {
		t.Error("bandwidth 2 should overlap")
	}
	// Figure 7 at smoke scale.
	fig7 := runData[engine.Figure7Data](t, qla.Spec{
		Experiment: "figure7",
		Params: qla.ExperimentParams{
			"phys-errors": []float64{4e-3}, "trials": 3000, "trials-l2": 1500, "seed": 3,
		},
	})
	if fig7.L2[0].FailRate <= fig7.L1[0].FailRate {
		t.Error("above threshold, level 2 should fail more")
	}
}

func TestFacadeCircuitBuilder(t *testing.T) {
	c := qla.NewCircuit(2)
	c.PrepPlus(0).CNOT(0, 1).MeasureZ(0).MeasureZ(1)
	s := qla.NewState(2)
	out := c.RunOn(s)
	if out[0] != out[1] {
		t.Errorf("Bell outcomes %v", out)
	}
}

// tinyParams shrinks each experiment's Monte Carlo knobs so the whole
// registry can be executed inside the test budget.
var tinyParams = map[string]qla.ExperimentParams{
	"figure7":          {"phys-errors": []float64{4e-3}, "trials": 60, "trials-l2": 20, "seed": 3},
	"syndrome-rates":   {"trials": 40},
	"scheduler-sweep":  {"bandwidths": []int{2}},
	"compare-adders":   {"widths": []int{4, 8}, "with-modular": false},
	"code-ablation":    {"mc-trials": 300},
	"chain-validation": {"trials": 40},
	"run-chain":        {"trials": 40},
	"shuttle":          {"separations": []int{12}},
	"qft":              {"charge-widths": []int{32}},
	"multichip":        {"n-bits": []int{128}},
	"plan-multichip":   {"n-bits": []int{128}, "cell-defect-prob": 1e-6},
	"machine-sweep":    {"levels": []int{2}, "bandwidths": []int{2}},
	"arq-noisy":        {"trials": 50},
}

// TestEngineRunsEveryExperiment enumerates the registry and runs every
// experiment (at tiny trial counts) under a live context, asserting each
// produces a JSON-serializable Result, then under a cancelled context,
// asserting each refuses to run.
func TestEngineRunsEveryExperiment(t *testing.T) {
	eng := qla.NewEngine()
	exps := qla.Experiments()
	if len(exps) < 20 {
		t.Fatalf("registry holds %d experiments", len(exps))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range exps {
		t.Run(e.Name, func(t *testing.T) {
			spec := qla.Spec{Experiment: e.Name, Params: tinyParams[e.Name]}
			res, err := eng.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("live context: %v", err)
			}
			if res.Experiment != e.Name || res.Data == nil {
				t.Fatalf("result %+v", res)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Fatalf("result not JSON-serializable: %v", err)
			}
			if _, err := eng.Run(cancelled, spec); err == nil {
				t.Fatal("cancelled context: experiment ran anyway")
			}
		})
	}
}

// TestEngineSpecRoundTrip drives one Monte Carlo experiment through a
// JSON-encoded Spec, the transport a serving front end would use.
func TestEngineSpecRoundTrip(t *testing.T) {
	raw := []byte(`{"experiment":"run-chain","params":{"links":3,"link-eps":0.07,"trials":50,"seed":9}}`)
	var spec qla.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	res, err := qla.NewEngine().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Data.(qla.ChainResult)
	if !ok {
		t.Fatalf("data is %T", res.Data)
	}
	if got.Config.Links != 3 || got.Config.Trials != 50 || res.Seed != 9 {
		t.Fatalf("spec not honored: %+v seed %d", got.Config, res.Seed)
	}
}

// TestEngineParallelDeterminism: the Monte Carlo experiments must
// produce bit-identical results at any parallelism for a fixed seed.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec qla.Spec
	}{
		{"figure7", qla.Spec{
			Experiment: "figure7",
			Params:     qla.ExperimentParams{"phys-errors": []float64{2e-3, 4e-3}, "trials": 400, "trials-l2": 80, "seed": 13},
		}},
		{"figure7-scalar", qla.Spec{
			Experiment: "figure7",
			Params:     qla.ExperimentParams{"phys-errors": []float64{2e-3, 4e-3}, "trials": 400, "trials-l2": 80, "seed": 13, "backend": "scalar"},
		}},
		{"compare-comm", qla.Spec{
			Experiment: "compare-comm",
			Params:     qla.ExperimentParams{"link-eps": 0.05, "links": 4, "trials": 200, "seed": 13},
		}},
		{"run-chain", qla.Spec{
			Experiment: "run-chain",
			Params:     qla.ExperimentParams{"links": 4, "link-eps": 0.06, "purify-rounds": 1, "trials": 400, "seed": 13},
		}},
		{"syndrome-rates", qla.Spec{
			Experiment: "syndrome-rates",
			Params:     qla.ExperimentParams{"trials": 300, "seed": 13},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := qla.NewEngine(qla.WithParallelism(1)).Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := qla.NewEngine(qla.WithParallelism(8)).Run(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sd, _ := json.Marshal(serial.Data)
			pd, _ := json.Marshal(parallel.Data)
			if !bytes.Equal(sd, pd) {
				t.Fatalf("parallel result diverged from serial:\n%s\nvs\n%s", pd, sd)
			}
		})
	}
}

// TestExperimentsDocumented: every registered experiment must appear in
// EXPERIMENTS.md so the catalog cannot silently drift from the docs.
func TestExperimentsDocumented(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, e := range qla.Experiments() {
		if !strings.Contains(doc, "`"+e.Name+"`") {
			t.Errorf("experiment %q missing from EXPERIMENTS.md", e.Name)
		}
	}
	// The qlaserve endpoints are part of the same catalog contract:
	// every served route must be documented with its method and path.
	for _, route := range serve.Routes {
		if !strings.Contains(doc, "`"+route+"`") {
			t.Errorf("qlaserve endpoint %q missing from EXPERIMENTS.md", route)
		}
	}
}

// TestFacadeSpecHashing covers the canonicalization surface re-exported
// through the facade: equivalent spellings share a content address.
func TestFacadeSpecHashing(t *testing.T) {
	spec, err := qla.DecodeSpec([]byte(`{"experiment":"fig7","params":{"trials":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := qla.CanonicalizeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if canon.Experiment != "figure7" {
		t.Errorf("alias not resolved: %q", canon.Experiment)
	}
	if canon.Params.Uint("seed") != 11 {
		t.Errorf("default seed not resolved: %+v", canon.Params)
	}
	h1, err := qla.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := qla.SpecHash(qla.Spec{Experiment: "figure7", Params: qla.ExperimentParams{"trials": 64}})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("alias spelling hashes differently: %s vs %s", h1, h2)
	}
	if _, err := qla.DecodeSpec([]byte(`{"experiment":"fig7","bogus":1}`)); err == nil {
		t.Error("strict decoder accepted an unknown field")
	}
}

// TestFacadeSweep covers the batch-sweep surface re-exported through
// the facade: strict decoding, content addressing, and a grid run with
// progress callbacks.
func TestFacadeSweep(t *testing.T) {
	raw := []byte(`{
		"base": {"experiment": "ecc"},
		"axes": [
			{"field": "machine.param_set", "values": ["expected", "current"]},
			{"field": "machine.level", "values": [1, 2]}
		]
	}`)
	ss, err := qla.DecodeSweepSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := qla.SweepHash(ss)
	if err != nil {
		t.Fatal(err)
	}
	// The alias spelling shares the content address with the canonical
	// one, exactly as Spec hashing does.
	canonical := ss
	canonical.Base = qla.Spec{Experiment: "ec-latency"}
	h2, err := qla.SweepHash(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("alias sweep spelling hashes differently: %s vs %s", h1, h2)
	}
	var last qla.SweepProgress
	res, err := qla.RunSweep(context.Background(), qla.NewEngine(), ss, func(p qla.SweepProgress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4 || res.OK != 4 || res.Experiment != "ec-latency" || res.SweepHash != h1 {
		t.Fatalf("sweep result %+v", res)
	}
	if last.Done != 4 {
		t.Errorf("final progress %+v", last)
	}
	if _, err := qla.DecodeSweepSpec([]byte(`{"base":{},"bogus":1}`)); err == nil {
		t.Error("strict sweep decoder accepted an unknown field")
	}
}

// TestFacadeWorkerPool: an engine behind a shared WorkerPool produces
// the same bytes as an unscheduled one — the budget changes core
// occupancy, never results.
func TestFacadeWorkerPool(t *testing.T) {
	spec := qla.Spec{
		Experiment: "figure7",
		Params:     qla.ExperimentParams{"phys-errors": []float64{4e-3}, "trials": 40, "seed": 5},
	}
	plain, err := qla.NewEngine().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	pool := qla.NewWorkerPool(1)
	pooled, err := qla.NewEngine(qla.WithScheduler(pool)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Data)
	b, _ := json.Marshal(pooled.Data)
	if !bytes.Equal(a, b) {
		t.Errorf("scheduled run diverged from unscheduled:\n%s\nvs\n%s", b, a)
	}
	if s := pool.Stats(); s.Grants != 1 || s.InUse != 0 {
		t.Errorf("pool stats %+v", s)
	}
}

// TestAnalyzeControlOptions covers the options form of AnalyzeControl.
func TestAnalyzeControlOptions(t *testing.T) {
	job, err := qla.ParseJob(strings.NewReader("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	def := qla.AnalyzeControl(job)
	if def.EventWindow != 10e-6 {
		t.Errorf("default window %g", def.EventWindow)
	}
	wide := qla.AnalyzeControl(job, qla.WithEventWindow(1e-3))
	if wide.EventWindow != 1e-3 {
		t.Errorf("window option ignored: %g", wide.EventWindow)
	}
	if def.Ops != wide.Ops || def.PeakLasers != wide.PeakLasers {
		t.Error("window must not change pulse accounting")
	}
}
