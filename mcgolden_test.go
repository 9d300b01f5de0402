package qla_test

// Golden result bytes. TestGoldenSpecs (internal/engine) pins what a
// spec hash names; this file pins the result bytes it names for every
// registered experiment: small runs of the Monte Carlos, so a kernel
// change that alters one RNG draw fails here even when the statistics
// still look right, and the default Spec of every other experiment.
// After a deliberate change of the random stream (a new backend value)
// or a newly registered experiment, regenerate with:
//
//	go test . -run TestGoldenMonteCarlo -update

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strconv"
	"testing"

	"qla/internal/engine"
	"qla/internal/threshold"
)

var update = flag.Bool("update", false, "rewrite testdata/mc_golden.json")

const mcGoldenFile = "testdata/mc_golden.json"

// goldenMCSpecs are small runs of every Monte Carlo kernel the engine
// serves — the threshold and code-catalog Monte Carlos, the
// repeater-chain one behind run-chain, chain-validation and
// compare-comm, and arq's noisy Pauli-frame run — under both backends
// where the experiment has two, and fixed seeds. Each trial count
// leaves its final 64-lane block partial (1000 = 15·64+40,
// 200 = 3·64+8, 6000 = 93·64+48, and syndrome-rates' level 2 runs
// 600 = 9·64+24). Every other registered experiment runs its default
// Spec under its own name.
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
		specs["run-chain/"+backend] = engine.Spec{Experiment: "run-chain", Params: map[string]any{
			"links":         4,
			"purify-rounds": 2,
			"swap-eps":      0.02,
			"trials":        200,
			"seed":          13,
			"backend":       backend,
		}}
		specs["chain-validation/"+backend] = engine.Spec{Experiment: "chain-validation", Params: map[string]any{
			"trials":  200,
			"seed":    15,
			"backend": backend,
		}}
		specs["compare-comm/"+backend] = engine.Spec{Experiment: "compare-comm", Params: map[string]any{
			"trials":  200,
			"seed":    17,
			"backend": backend,
		}}
	}
	// The expected parameter set injects no fault into 200 trials of the
	// default circuit; the current one injects a few dozen.
	specs["arq-noisy"] = engine.Spec{Experiment: "arq-noisy", Machine: engine.MachineSpec{ParamSet: "current"}, Params: map[string]any{
		"trials": 200,
		"seed":   19,
	}}
	covered := map[string]bool{}
	for _, spec := range specs {
		covered[spec.Experiment] = true
	}
	for _, e := range engine.Experiments() {
		if !covered[e.Name] {
			specs[e.Name] = engine.Spec{Experiment: e.Name}
		}
	}
	return specs
}

// wallClock matches the wall-clock fields of a payload. Only
// machine-sweep's payload has any: the sweep's and each point's
// elapsed_ns, and the started and elapsed_ns of each point's Result.
var wallClock = regexp.MustCompile(`"elapsed_ns":[0-9]+|"started":"[^"]*"`)

// zeroWallClock rewrites every wall-clock field of a compact JSON
// payload to its zero value.
func zeroWallClock(data []byte) []byte {
	return wallClock.ReplaceAllFunc(data, func(m []byte) []byte {
		if bytes.HasPrefix(m, []byte(`"elapsed_ns"`)) {
			return []byte(`"elapsed_ns":0`)
		}
		return []byte(`"started":"0001-01-01T00:00:00Z"`)
	})
}

// goldenMCOutputs computes every pinned payload as compact JSON, at
// parallelism 1 and at 8, and fails when the two differ.
func goldenMCOutputs(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := map[string]json.RawMessage{}
	serial, parallel := engine.New(engine.WithParallelism(1)), engine.New(engine.WithParallelism(8))
	for name, spec := range goldenMCSpecs() {
		var payloads [2][]byte
		for i, eng := range []*engine.Engine{serial, parallel} {
			res, err := eng.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			data, err := json.Marshal(res.Data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			payloads[i] = zeroWallClock(data)
		}
		if !bytes.Equal(payloads[0], payloads[1]) {
			t.Errorf("%s: parallelism 8 changed the result bytes;\nserial:   %s\nparallel: %s", name, payloads[0], payloads[1])
		}
		out[name] = payloads[0]
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
		if want[name] == nil {
			t.Errorf("%s: no entry in %s (regenerate with -update)", name, mcGoldenFile)
			continue
		}
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
