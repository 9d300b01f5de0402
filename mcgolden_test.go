package qla_test

// Golden Monte Carlo outputs. TestGoldenSpecs (internal/engine) pins
// what a spec hash names; this file pins the result bytes it names for
// the Monte Carlo experiments, so a kernel change that alters one RNG
// draw fails here even when the statistics still look right. After a
// deliberate change of the random stream (a new backend value),
// regenerate with:
//
//	go test . -run TestGoldenMonteCarlo -update

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"

	"qla/internal/engine"
	"qla/internal/threshold"
)

var update = flag.Bool("update", false, "rewrite testdata/mc_golden.json")

const mcGoldenFile = "testdata/mc_golden.json"

// goldenMCSpecs are small runs of every Monte Carlo kernel the engine
// serves, under both backends and fixed seeds. Each trial count leaves
// its final 64-lane block partial (1000 = 15·64+40, 200 = 3·64+8,
// 6000 = 93·64+48, and syndrome-rates' level 2 runs 600 = 9·64+24).
func goldenMCSpecs() map[string]engine.Spec {
	specs := map[string]engine.Spec{}
	for _, backend := range []string{threshold.BackendBatch, threshold.BackendScalar} {
		specs["figure7/"+backend] = engine.Spec{Experiment: "figure7", Params: map[string]any{
			"phys-errors": []float64{5e-4, 2e-3, 4e-3},
			"trials":      1000,
			"trials-l2":   200,
			"seed":        5,
			"backend":     backend,
		}}
		specs["syndrome-rates/"+backend] = engine.Spec{Experiment: "syndrome-rates", Params: map[string]any{
			"trials":  6000,
			"seed":    7,
			"backend": backend,
		}}
		specs["code-ablation/"+backend] = engine.Spec{Experiment: "code-ablation", Params: map[string]any{
			"mc-trials": 1000,
			"mc-seed":   9,
			"backend":   backend,
		}}
	}
	return specs
}

// goldenMCOutputs computes every pinned payload as compact JSON.
func goldenMCOutputs(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := map[string]json.RawMessage{}
	eng := engine.New()
	for name, spec := range goldenMCSpecs() {
		res, err := eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(res.Data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	// The fault-free site census of the bit-sliced schedule: the number
	// of error sites one block visits, which every site-numbered forced
	// fault depends on.
	for _, level := range []int{1, 2} {
		_, _, sites := threshold.SingleFaultTrialBatch(level, -1, 0, 0)
		data, err := json.Marshal(sites)
		if err != nil {
			t.Fatal(err)
		}
		out["census/level"+strconv.Itoa(level)] = data
	}
	return out
}

func TestGoldenMonteCarlo(t *testing.T) {
	got := goldenMCOutputs(t)
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mcGoldenFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(mcGoldenFile)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", mcGoldenFile, err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", mcGoldenFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d cases, the test computes %d", mcGoldenFile, len(want), len(got))
	}
	for name, data := range got {
		var golden bytes.Buffer
		if err := json.Compact(&golden, want[name]); err != nil {
			t.Errorf("%s: golden payload: %v", name, err)
			continue
		}
		if !bytes.Equal(data, golden.Bytes()) {
			t.Errorf("%s: Monte Carlo output drifted from %s;\ngot:  %s\nwant: %s", name, mcGoldenFile, data, golden.Bytes())
		}
	}
}
