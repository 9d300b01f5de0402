package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"qla/internal/iontrap"
)

func mustHash(t *testing.T, spec Spec) string {
	t.Helper()
	h, err := SpecHash(spec)
	if err != nil {
		t.Fatalf("SpecHash(%+v): %v", spec, err)
	}
	return h
}

// TestSpecHashInvariants: Specs describing the same run hash equal —
// alias vs canonical name, defaults omitted vs spelled out, machine
// defaults implicit vs explicit — and Specs describing different runs
// (a changed seed, a changed parameter) hash differently.
func TestSpecHashInvariants(t *testing.T) {
	base := mustHash(t, Spec{Experiment: "figure7"})
	for name, spec := range map[string]Spec{
		"alias":            {Experiment: "fig7"},
		"case-insensitive": {Experiment: "FIGURE7"},
		"defaults spelled": {Experiment: "figure7", Params: Params{"trials": 120000, "seed": 11, "trials-l2": 0}},
	} {
		if h := mustHash(t, spec); h != base {
			t.Errorf("%s: hash %s != default %s", name, h, base)
		}
	}
	for name, spec := range map[string]Spec{
		"different seed":   {Experiment: "figure7", Params: Params{"seed": 12}},
		"different trials": {Experiment: "figure7", Params: Params{"trials": 64}},
		"other experiment": {Experiment: "syndrome-rates"},
	} {
		if h := mustHash(t, spec); h == base {
			t.Errorf("%s: hash collides with the default spec", name)
		}
	}

	// Machine normalization: zero fields mean the package defaults, so
	// spelling the defaults must not change the address; Tech overrides
	// shadow ParamSet entirely.
	mbase := mustHash(t, Spec{Experiment: "ec-latency"})
	if h := mustHash(t, Spec{
		Experiment: "ec-latency",
		Machine:    MachineSpec{ParamSet: "expected", Level: 2, Bandwidth: 2},
	}); h != mbase {
		t.Errorf("explicit machine defaults changed the hash")
	}
	if h := mustHash(t, Spec{
		Experiment: "ec-latency",
		Machine:    MachineSpec{ParamSet: "current"},
	}); h == mbase {
		t.Errorf("current parameter set hashes like expected")
	}
	tech := iontrap.Current()
	withTech := mustHash(t, Spec{Experiment: "ec-latency", Machine: MachineSpec{Tech: &tech}})
	if h := mustHash(t, Spec{
		Experiment: "ec-latency",
		Machine:    MachineSpec{ParamSet: "expected", Tech: &tech},
	}); h != withTech {
		t.Errorf("shadowed ParamSet perturbed the hash of a Tech override")
	}

	// JSON-shaped params (float64 numbers, []any lists) hash like their
	// native-Go equivalents: the wire form and the in-process form of
	// one request share a cache entry.
	native := Spec{Experiment: "figure7", Params: Params{"phys-errors": []float64{0.004}, "trials": 50}}
	wire := Spec{Experiment: "figure7", Params: Params{"phys-errors": []any{0.004}, "trials": float64(50)}}
	if mustHash(t, native) != mustHash(t, wire) {
		t.Errorf("JSON-generic params hash differently from typed params")
	}
}

// TestCanonicalizeDoesNotAliasTech: normalization must deep-copy the
// Tech override so mutating the caller's struct later cannot change
// what a stored canonical Spec means.
func TestCanonicalizeDoesNotAliasTech(t *testing.T) {
	tech := iontrap.Current()
	canon, err := Canonicalize(Spec{Experiment: "ec-latency", Machine: MachineSpec{Tech: &tech}})
	if err != nil {
		t.Fatal(err)
	}
	if canon.Machine.Tech == &tech {
		t.Fatal("canonical spec aliases the caller's Tech pointer")
	}
	before, _ := json.Marshal(canon)
	tech = iontrap.Expected()
	after, _ := json.Marshal(canon)
	if string(before) != string(after) {
		t.Error("mutating the caller's Tech changed the canonical spec")
	}
}

// TestCanonicalJSONIsFixedPoint: decoding canonical JSON and
// canonicalizing again reproduces the same bytes (the property the
// fuzz target checks on arbitrary valid inputs).
func TestCanonicalJSONIsFixedPoint(t *testing.T) {
	for _, spec := range []Spec{
		{Experiment: "fig7", Params: Params{"trials": 64}},
		{Experiment: "shor", Machine: MachineSpec{ParamSet: "current"}},
		{Experiment: "arq-run"},
	} {
		cj, err := CanonicalJSON(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(cj)
		if err != nil {
			t.Fatalf("canonical JSON fails strict decode: %v\n%s", err, cj)
		}
		cj2, err := CanonicalJSON(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(cj) != string(cj2) {
			t.Errorf("not a fixed point:\n%s\nvs\n%s", cj, cj2)
		}
	}
}

// recordingSched counts scheduler acquisitions.
type recordingSched struct{ acquires int }

func (r *recordingSched) Acquire(ctx context.Context, want int) (int, func(), error) {
	r.acquires++
	return 1, func() {}, nil
}

// TestSchedulerOnlyForParallelExperiments: deterministic analyses must
// not draw from (or queue on) the shared worker budget; fanout
// experiments must.
func TestSchedulerOnlyForParallelExperiments(t *testing.T) {
	rs := &recordingSched{}
	eng := New(WithScheduler(rs))
	if _, err := eng.Run(context.Background(), Spec{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	if rs.acquires != 0 {
		t.Errorf("deterministic experiment acquired %d scheduler grants", rs.acquires)
	}
	res, err := eng.Run(context.Background(), Spec{
		Experiment: "figure7",
		Params:     Params{"phys-errors": []float64{4e-3}, "trials": 8, "seed": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.acquires != 1 {
		t.Errorf("fanout experiment acquired %d scheduler grants, want 1", rs.acquires)
	}
	if res.Experiment != "figure7" {
		t.Errorf("result %+v", res)
	}
}

// TestMakeCanonicalConsistent: the one-pass form agrees with the
// per-piece helpers it subsumes.
func TestMakeCanonicalConsistent(t *testing.T) {
	spec := Spec{Experiment: "fig7", Params: Params{"trials": 64}}
	c, err := MakeCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := CanonicalJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash != h || string(c.JSON) != string(cj) {
		t.Errorf("MakeCanonical disagrees with SpecHash/CanonicalJSON")
	}
	if c.Spec.Experiment != "figure7" {
		t.Errorf("canonical spec %+v", c.Spec)
	}
	if _, err := MakeCanonical(Spec{Experiment: "nope"}); err == nil {
		t.Error("invalid spec made canonical")
	}
}

// TestRunCanonical: the no-revalidation fast path computes exactly what
// Run computes, and a hand-built Canonical (no resolved experiment)
// still canonicalizes defensively.
func TestRunCanonical(t *testing.T) {
	spec := Spec{
		Experiment: "figure7",
		Params:     Params{"phys-errors": []float64{4e-3}, "trials": 40, "seed": 5},
	}
	eng := New()
	viaRun, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MakeCanonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaCanonical, err := eng.RunCanonical(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(viaRun.Data)
	b, _ := json.Marshal(viaCanonical.Data)
	if string(a) != string(b) {
		t.Errorf("RunCanonical diverged from Run:\n%s\nvs\n%s", b, a)
	}
	if viaCanonical.Seed != 5 || viaCanonical.Experiment != "figure7" {
		t.Errorf("metadata %+v", viaCanonical)
	}
	// Hand-built: only the Spec set.
	handBuilt, err := eng.RunCanonical(context.Background(), Canonical{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := json.Marshal(handBuilt.Data)
	if string(hb) != string(a) {
		t.Errorf("hand-built Canonical diverged")
	}
	if _, err := eng.RunCanonical(context.Background(), Canonical{Spec: Spec{Experiment: "nope"}}); err == nil {
		t.Error("invalid hand-built Canonical ran")
	}
}

// TestMachineSpecValidationErrorText pins the exact error strings HTTP
// API callers see for invalid machine configurations, through both
// Canonicalize (the serving path) and Engine.Run. ec-latency is the
// probe: it is machine-aware but never builds a core.Machine itself, so
// these must be caught by the engine's up-front validation, not by the
// experiment.
func TestMachineSpecValidationErrorText(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{
			"unknown param_set",
			Spec{Experiment: "ec-latency", Machine: MachineSpec{ParamSet: "warp"}},
			`ec-latency: engine: unknown parameter set "warp" (want expected or current)`,
		},
		{
			"negative level",
			Spec{Experiment: "ec-latency", Machine: MachineSpec{Level: -1}},
			"ec-latency: engine: negative recursion level -1",
		},
		{
			"negative bandwidth",
			Spec{Experiment: "ec-latency", Machine: MachineSpec{Bandwidth: -2}},
			"ec-latency: engine: negative channel bandwidth -2",
		},
		{
			"negative logical qubits",
			Spec{Experiment: "ec-latency", Machine: MachineSpec{LogicalQubits: -3}},
			"ec-latency: engine: negative logical-qubit count -3",
		},
		{
			"machine on machine-less experiment",
			Spec{Experiment: "table1", Machine: MachineSpec{Level: 1}},
			"table1: experiment takes no machine configuration",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Canonicalize(tc.spec); err == nil || err.Error() != tc.want {
				t.Errorf("Canonicalize error = %v, want %q", err, tc.want)
			}
			if _, err := New().Run(context.Background(), tc.spec); err == nil || err.Error() != tc.want {
				t.Errorf("Run error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestDecodeSpecStrict: the strict decoder rejects what json.Unmarshal
// quietly tolerates.
func TestDecodeSpecStrict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		raw      string
		contains string
	}{
		{"truncated", `{"experiment":`, "invalid spec JSON"},
		{"unknown top-level field", `{"experiment":"table1","bogus":1}`, "bogus"},
		{"unknown machine field", `{"experiment":"shor","machine":{"lvel":2}}`, "lvel"},
		{"trailing document", `{"experiment":"table1"}{"experiment":"table2"}`, "trailing data"},
		{"wrong type", `{"experiment":42}`, "invalid spec JSON"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSpec([]byte(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("DecodeSpec(%q) err = %v, want mention of %q", tc.raw, err, tc.contains)
			}
		})
	}
	spec, err := DecodeSpec([]byte(`{"experiment":"fig7","params":{"trials":10}}`))
	if err != nil || spec.Experiment != "fig7" {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// The helpers below serve only this package's tests.

// CanonicalJSON returns the byte-stable JSON encoding of the canonical
// form of spec (parameter keys sorted).
func CanonicalJSON(spec Spec) ([]byte, error) {
	c, err := MakeCanonical(spec)
	if err != nil {
		return nil, err
	}
	return c.JSON, nil
}
