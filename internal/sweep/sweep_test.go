package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"qla/internal/cache"
	"qla/internal/engine"
)

// gridSpec is the acceptance-criteria grid: param-set × level ×
// bandwidth over the machine-aware EC-latency analysis, 12 points.
func gridSpec() Spec {
	return Spec{
		Base: engine.Spec{Experiment: "ec-latency"},
		Axes: []Axis{
			{Field: "machine.param_set", Values: []any{"expected", "current"}},
			{Field: "machine.level", Values: []any{1, 2}},
			{Field: "machine.bandwidth", Values: []any{1, 2, 4}},
		},
	}
}

func TestExpandGrid(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sw.Experiment != "ec-latency" {
		t.Errorf("experiment = %q", sw.Experiment)
	}
	if len(sw.Points) != 12 {
		t.Fatalf("expanded %d points, want 12", len(sw.Points))
	}
	wantFields := []string{"machine.param_set", "machine.level", "machine.bandwidth"}
	if len(sw.Fields) != 3 || sw.Fields[0] != wantFields[0] || sw.Fields[1] != wantFields[1] || sw.Fields[2] != wantFields[2] {
		t.Errorf("fields = %v", sw.Fields)
	}
	// Row-major, last axis fastest.
	wantHead := [][3]any{
		{"expected", 1, 1},
		{"expected", 1, 2},
		{"expected", 1, 4},
		{"expected", 2, 1},
	}
	for i, want := range wantHead {
		got := sw.Points[i].Coords
		if got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Errorf("point %d coords = %v, want %v", i, got, want)
		}
	}
	// Every point is a distinct, fully canonical run.
	seen := map[string]bool{}
	for i, pt := range sw.Points {
		if seen[pt.Canonical.Hash] {
			t.Errorf("point %d repeats hash %s", i, pt.Canonical.Hash)
		}
		seen[pt.Canonical.Hash] = true
		m := pt.Canonical.Spec.Machine
		if m.ParamSet != pt.Coords[0] || m.Level != pt.Coords[1] || m.Bandwidth != pt.Coords[2] {
			t.Errorf("point %d machine %+v does not match coords %v", i, m, pt.Coords)
		}
	}
}

// TestExpandSpellingInvariant: equivalent spellings — base aliases,
// float-typed integer axis values, omitted defaults — expand to the
// same canonical encoding, sweep hash and point hashes.
func TestExpandSpellingInvariant(t *testing.T) {
	a, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	spelled := Spec{
		Base: engine.Spec{Experiment: "ecc", Machine: engine.MachineSpec{ParamSet: "expected"}},
		Axes: []Axis{
			{Field: "machine.param_set", Values: []any{"expected", "current"}},
			{Field: "machine.level", Values: []any{1.0, 2.0}},
			{Field: "machine.bandwidth", Values: []any{1.0, 2.0, 4.0}},
		},
	}
	b, err := Expand(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Errorf("equivalent sweeps hash differently:\n%s\nvs\n%s", a.JSON, b.JSON)
	}
	for i := range a.Points {
		if a.Points[i].Canonical.Hash != b.Points[i].Canonical.Hash {
			t.Errorf("point %d hashes differ", i)
		}
	}
	// And expansion is deterministic run to run.
	c, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON, c.JSON) || a.Hash != c.Hash {
		t.Error("expansion not deterministic")
	}
}

func TestExpandValidation(t *testing.T) {
	axis := func(f string, vals ...any) Axis { return Axis{Field: f, Values: vals} }
	ec := engine.Spec{Experiment: "ec-latency"}
	manyVals := make([]any, 100)
	for i := range manyVals {
		manyVals[i] = i + 1
	}
	for _, tc := range []struct {
		name     string
		spec     Spec
		contains string
	}{
		{"bad base", Spec{Base: engine.Spec{Experiment: "no-such"}, Axes: []Axis{axis("machine.level", 1)}}, "unknown experiment"},
		{"no axes", Spec{Base: ec}, "no axes"},
		{"too many axes", Spec{Base: ec, Axes: []Axis{
			axis("machine.level", 1), axis("machine.bandwidth", 1), axis("machine.param_set", "expected"),
			axis("machine.logical_qubits", 1), axis("params.x", 1), axis("params.y", 1), axis("params.z", 1),
		}}, "axes exceeds the maximum"},
		{"empty values", Spec{Base: ec, Axes: []Axis{axis("machine.level")}}, "has no values"},
		{"duplicate field", Spec{Base: ec, Axes: []Axis{axis("machine.level", 1), axis("machine.level", 2)}}, "duplicate axis field"},
		{"duplicate value", Spec{Base: ec, Axes: []Axis{axis("machine.level", 2, 2.0)}}, "repeats value"},
		// A Go caller's nil or typed-empty list and []any{} coerce to
		// distinct values (coordinates null and []) that derive one run.
		{"empty list spelled two ways", Spec{Base: engine.Spec{Experiment: "compare-adders"},
			Axes: []Axis{axis("params.widths", []any{}, []int(nil))}}, "repeats value null"},
		{"typed empty list", Spec{Base: engine.Spec{Experiment: "compare-adders"},
			Axes: []Axis{axis("params.widths", []int{}, []any{})}}, "repeats value null"},
		{"unknown field", Spec{Base: ec, Axes: []Axis{axis("machine.tech", 1)}}, "unknown axis field"},
		{"unknown param", Spec{Base: ec, Axes: []Axis{axis("params.trials", 1)}}, `declares no parameter "trials"`},
		{"uncoercible value", Spec{Base: ec, Axes: []Axis{axis("machine.level", "two")}}, "want integer"},
		{"machine axis on machineless experiment", Spec{Base: engine.Spec{Experiment: "table1"}, Axes: []Axis{axis("machine.level", 1)}}, "no machine configuration"},
		{"nested sweep", Spec{Base: engine.Spec{Experiment: "sweep"}, Axes: []Axis{axis("machine.level", 1)}}, "cannot be swept"},
		{"duplicate point", Spec{Base: ec, Axes: []Axis{axis("machine.level", 0, 2)}}, "same run"},
		{"negative level point", Spec{Base: ec, Axes: []Axis{axis("machine.level", -1, 1)}}, "negative recursion level"},
		{"param value outside OneOf", Spec{Base: engine.Spec{Experiment: "figure7"}, Axes: []Axis{axis("params.backend", "batch", "gpu")}},
			`axis "params.backend" value 1: invalid value "gpu"`},
		{"grid too big", Spec{Base: engine.Spec{Experiment: "equation2"}, Axes: []Axis{
			axis("machine.level", manyVals...), axis("params.level", manyVals...),
		}}, "exceeds the maximum"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Expand(tc.spec)
			if err == nil {
				t.Fatal("expand accepted an invalid sweep")
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("error %q does not contain %q", err, tc.contains)
			}
		})
	}
}

// comparablePoints strips the nondeterministic timing metadata from a
// sweep Result, keeping everything the determinism contract covers:
// coordinates, spec hashes, status, and the per-point experiment data
// payloads.
func comparablePoints(t *testing.T, res *Result) []byte {
	t.Helper()
	type stable struct {
		Coords   []any           `json:"coords"`
		SpecHash string          `json:"spec_hash"`
		Status   string          `json:"status"`
		Error    string          `json:"error,omitempty"`
		Data     json.RawMessage `json:"data,omitempty"`
	}
	out := make([]stable, len(res.Points))
	for i, pt := range res.Points {
		out[i] = stable{Coords: pt.Coords, SpecHash: pt.SpecHash, Status: pt.Status, Error: pt.Error}
		if len(pt.Result) > 0 {
			var body struct {
				Data json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(pt.Result, &body); err != nil {
				t.Fatalf("point %d result not a Result: %v", i, err)
			}
			out[i].Data = body.Data
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunDeterminism: the same SweepSpec produces identical per-point
// spec hashes and byte-identical aggregated data at any engine
// parallelism and any point concurrency.
func TestRunDeterminism(t *testing.T) {
	spec := Spec{
		Base: engine.Spec{Experiment: "run-chain", Params: engine.Params{"trials": 80, "seed": 9}},
		Axes: []Axis{
			{Field: "params.links", Values: []any{2, 3}},
			{Field: "params.purify-rounds", Values: []any{0, 1}},
		},
	}
	var blobs [][]byte
	for _, cfg := range []struct{ par, conc int }{{1, 1}, {8, 4}} {
		sw, err := Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Engine: engine.New(engine.WithParallelism(cfg.par)), Concurrency: cfg.conc}
		res, err := r.Run(context.Background(), sw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != 4 || res.OK != 4 || res.Failed != 0 || res.Cached != 0 {
			t.Fatalf("counters %+v", res)
		}
		blobs = append(blobs, comparablePoints(t, res))
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("sweep diverged across parallelism:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

// TestRunSharedCache: re-running a sweep against the same cache serves
// every point from it, byte-identically.
func TestRunSharedCache(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(0)
	r := &Runner{Engine: engine.New(), Cache: c}
	first, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached != 0 || first.OK != 12 {
		t.Fatalf("first run counters %+v", first)
	}
	second, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached != 12 || second.OK != 12 {
		t.Fatalf("second run counters: ok=%d cached=%d", second.OK, second.Cached)
	}
	for i := range first.Points {
		if !bytes.Equal(first.Points[i].Result, second.Points[i].Result) {
			t.Errorf("point %d bytes not replayed verbatim", i)
		}
	}
}

// TestRunPointFailure: a failing point is recorded and the sweep
// continues.
func TestRunPointFailure(t *testing.T) {
	sw, err := Expand(Spec{
		Base: engine.Spec{Experiment: "equation2"},
		Axes: []Axis{{Field: "params.level", Values: []any{-1, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	res, err := (&Runner{Engine: engine.New()}).Run(context.Background(), sw, func(p Progress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 1 || res.Failed != 1 {
		t.Fatalf("counters %+v", res)
	}
	if res.Points[0].Status != "error" || !strings.Contains(res.Points[0].Error, "non-negative") {
		t.Errorf("failing point %+v", res.Points[0])
	}
	if res.Points[1].Status != "ok" || len(res.Points[1].Result) == 0 {
		t.Errorf("ok point %+v", res.Points[1])
	}
	if last != (Progress{Total: 2, Done: 2, Cached: 0, Failed: 1}) {
		t.Errorf("final progress %+v", last)
	}
}

// TestRunCancelled: a cancelled context aborts the sweep with its
// error.
func TestRunCancelled(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{Engine: engine.New()}).Run(ctx, sw, nil); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
}

// TestRunDeadlineMidSweep: a deadline that kills points mid-run fails
// the sweep with the deadline error — points that "completed" only as
// deadline casualties must not count as a clean finish.
func TestRunDeadlineMidSweep(t *testing.T) {
	sw, err := Expand(Spec{
		Base: engine.Spec{Experiment: "figure7", Params: engine.Params{"phys-errors": []float64{0.004}, "trials": 120000, "seed": 3}},
		Axes: []Axis{{Field: "params.seed", Values: []any{51, 52}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := (&Runner{Engine: engine.New()}).Run(ctx, sw, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestMachineSweepExperiment: the registry experiment drives the same
// expansion through Engine.Run.
func TestMachineSweepExperiment(t *testing.T) {
	eng := engine.New()
	res, err := eng.Run(context.Background(), engine.Spec{
		Experiment: "machine-sweep",
		Params: engine.Params{
			"experiment": "ecc", // alias resolves
			"param-sets": "expected,current",
			"levels":     []int{1, 2},
			"bandwidths": []int{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, ok := res.Data.(*Result)
	if !ok {
		t.Fatalf("data is %T", res.Data)
	}
	if data.Experiment != "ec-latency" || data.Total != 4 || data.OK != 4 {
		t.Errorf("sweep result %+v", data)
	}
	if data.SweepHash == "" {
		t.Error("missing sweep hash")
	}
	// The payload must survive the JSON transport a serving front end
	// uses.
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

func TestMachineSweepRejectsSelf(t *testing.T) {
	_, err := engine.New().Run(context.Background(), engine.Spec{
		Experiment: "machine-sweep",
		Params:     engine.Params{"experiment": "sweep"}, // its own alias
	})
	if err == nil || !strings.Contains(err.Error(), "cannot sweep machine-sweep itself") {
		t.Fatalf("err = %v", err)
	}
}

func TestMachineSweepBaseParams(t *testing.T) {
	res, err := engine.New().Run(context.Background(), engine.Spec{
		Experiment: "machine-sweep",
		Params: engine.Params{
			"experiment":  "equation2",
			"base-params": `{"pth":0.001}`,
			"param-sets":  "expected",
			"levels":      []int{2},
			"bandwidths":  []int{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := res.Data.(*Result)
	var body struct {
		Params engine.Params `json:"params"`
	}
	if err := json.Unmarshal(data.Points[0].Result, &body); err != nil {
		t.Fatal(err)
	}
	if got := body.Params["pth"]; got != 0.001 {
		t.Errorf("base-params not applied: pth = %v", got)
	}
	// Malformed base-params error cleanly, trailing data included.
	for _, bad := range []string{`{"bogus`, `{} trailing`} {
		if _, err := engine.New().Run(context.Background(), engine.Spec{
			Experiment: "machine-sweep",
			Params:     engine.Params{"base-params": bad},
		}); err == nil || !strings.Contains(err.Error(), "base-params") {
			t.Fatalf("base-params %q: err = %v", bad, err)
		}
	}
}

var (
	registerProbe sync.Once
	probeEngine   *engine.Engine // what the last test-engine-probe run received
)

// TestRunContextCarriesEngine: experiments receive the engine that is
// executing them, which is how machine-sweep shares the caller's
// scheduler budget across its points. (Registered here, not in
// internal/engine's tests, because this test binary does not enumerate
// the registry against the golden spec files; registered once, because
// the registry is process-wide and -count reruns the test.)
func TestRunContextCarriesEngine(t *testing.T) {
	registerProbe.Do(func() {
		engine.Register(engine.Experiment{
			Name: "test-engine-probe",
			Run: func(ctx context.Context, rc *engine.RunContext) (any, error) {
				probeEngine = rc.Engine
				return "ok", nil
			},
		})
	})
	eng := engine.New()
	if _, err := eng.Run(context.Background(), engine.Spec{Experiment: "test-engine-probe"}); err != nil {
		t.Fatal(err)
	}
	if probeEngine != eng {
		t.Errorf("RunContext.Engine = %p, want %p", probeEngine, eng)
	}
}

func TestViews(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{Engine: engine.New()}).Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 13 {
		t.Fatalf("CSV has %d lines, want header + 12", len(lines))
	}
	if lines[0] != "index,machine.param_set,machine.level,machine.bandwidth,status,cached,elapsed_ms,spec_hash,error" {
		t.Errorf("CSV header = %q", lines[0])
	}
	var tblBuf bytes.Buffer
	if err := res.WriteTable(&tblBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tblBuf.String(), "12 points, 12 ok") {
		t.Errorf("table summary missing:\n%s", tblBuf.String())
	}
}

// TestOffsetRotatesDispatch: the offset changes which point starts
// first but not where results land.
func TestOffsetRotatesDispatch(t *testing.T) {
	sw, err := Expand(gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	r := &Runner{
		Concurrency: 1,
		Offset:      5,
		Observer:    func(pr PointResult) { order = append(order, pr.Index) },
	}
	res, err := r.Run(context.Background(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(sw.Points) || order[0] != 5 {
		t.Fatalf("dispatch order = %v, want rotation starting at 5", order)
	}
	for i, pr := range res.Points {
		if pr.Index != i {
			t.Fatalf("result slot %d holds point %d: rotation must not move results", i, pr.Index)
		}
		if pr.Status != "ok" {
			t.Fatalf("point %d status %q", i, pr.Status)
		}
	}
	// Offsets beyond the grid wrap instead of panicking.
	r2 := &Runner{Concurrency: 1, Offset: -7}
	if _, err := r2.Run(context.Background(), sw, nil); err != nil {
		t.Fatal(err)
	}
}
