package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"qla/internal/iontrap"
)

// checkAgainstMarshal asserts that an appender wrote exactly what
// json.Marshal writes for v, and that it failed exactly where
// json.Marshal fails.
func checkAgainstMarshal(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%#v: encoder error %v, json.Marshal error %v", v, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("%#v: error %q, json.Marshal's %q", v, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%#v:\n got %s\nwant %s", v, got, want)
	}
}

// TestAppendMatchesMarshal holds the hand-written encoder to
// encoding/json: escaping, float formatting, nil slices, the fallback
// for foreign types, and whole Specs — machine, tech and parameters —
// including the ones json.Marshal refuses.
func TestAppendMatchesMarshal(t *testing.T) {
	strs := []string{
		"", "plain", `"quoted" \back\slash/`, "<script>&amp;</script>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "line\u2028para\u2029", "caf\u00e9 \U0001F600",
		"\xff", "\xc3\x28", "\xe2\x82", "a\xf0\x90\x80", "\xed\xa0\x80", "\uFFFD",
	}
	for _, s := range strs {
		checkAgainstMarshal(t, s, AppendString(nil, s), nil)
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10,
		1e20, 1e21, 123456789e13, -1e21, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
		1 << 53, 3.0e-3, 12345.678, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, f := range floats {
		got, err := appendFloat(nil, f)
		checkAgainstMarshal(t, f, got, err)
	}
	values := []any{
		nil, true, false, 0, -7, math.MaxInt64, int64(math.MinInt64), uint64(math.MaxUint64),
		uint64(1)<<53 + 1, 2.5, "s<>", []float64(nil), []float64{}, []float64{1e-7, 0.5, 1e21},
		[]float64{1, math.NaN()}, []int(nil), []int{}, []int{-3, 0, 1 << 40},
		float32(0.1), []any{1.0, "x"}, map[string]any{"b": 1.0, "a": []any{}}, []string{"<"},
	}
	for _, v := range values {
		got, err := AppendValue(nil, v)
		checkAgainstMarshal(t, v, got, err)
	}

	tech := iontrap.Current()
	tech.Name = "lab <A&B>\u2028"
	nanTech := iontrap.Expected()
	nanTech.Fail[2] = math.NaN()
	specs := []Spec{
		{},
		{Experiment: "figure7"},
		{Experiment: "x", Params: Params{}},
		{Experiment: "x", Machine: MachineSpec{ParamSet: "expected", Level: 2, Bandwidth: 2}},
		{Experiment: "x", Machine: MachineSpec{LogicalQubits: 3}},
		{Experiment: "x", Machine: MachineSpec{Level: -1, Bandwidth: -4, LogicalQubits: -5}},
		{Experiment: "a<b", Machine: MachineSpec{ParamSet: "p\x01", Tech: &tech, Level: 1}, Params: Params{
			"zeta": 1, "alpha": "\xff", "Beta": []float64{1e-7}, "beta": uint64(math.MaxUint64),
			"é": true, "a<": []int{1}, "": 0.25, "ints": []int(nil),
		}},
		{Experiment: "nan", Machine: MachineSpec{Tech: &nanTech}},
		{Experiment: "nan", Params: Params{"p": math.Inf(-1)}},
	}
	for _, e := range Experiments() {
		canon, err := Canonicalize(Spec{Experiment: e.Name})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		specs = append(specs, canon)
	}
	for _, spec := range specs {
		got, err := appendSpec(nil, spec)
		checkAgainstMarshal(t, spec, got, err)
	}
}

// TestMakeCanonicalRejectsUnencodable: a value canonicalization accepts
// but JSON cannot carry fails MakeCanonical, as json.Marshal did.
func TestMakeCanonicalRejectsUnencodable(t *testing.T) {
	if _, err := MakeCanonical(Spec{Experiment: "equation2", Params: Params{"pth": math.NaN()}}); err == nil ||
		!strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("NaN parameter: err %v", err)
	}
	tech := iontrap.Expected()
	tech.CellSizeUM = math.Inf(1)
	if _, err := MakeCanonical(Spec{Experiment: "ec-latency", Machine: MachineSpec{Tech: &tech}}); err == nil ||
		!strings.Contains(err.Error(), "unsupported value: +Inf") {
		t.Errorf("infinite tech field: err %v", err)
	}
}

// TestDeriveMatchesMakeCanonical: a point derived from a compiled base
// is what MakeCanonical makes of the point's Spec — JSON, hash and
// Spec — on parameter-only, machine and mixed variants, when a setting
// adds a parameter the base leaves unset, and on validation failures,
// which carry MakeCanonical's error text. Slices are never shared.
func TestDeriveMatchesMakeCanonical(t *testing.T) {
	tech := iontrap.Current()
	for _, tc := range []struct {
		name    string
		base    Spec
		machine func(m *MachineSpec)
		params  Params
		wantErr string
	}{
		{name: "no change", base: Spec{Experiment: "fig7", Params: Params{"trials": 64}}},
		{name: "params", base: Spec{Experiment: "figure7", Params: Params{"phys-errors": []any{0.002}}},
			params: Params{"seed": 9.0, "trials": 128, "phys-errors": []float64{1e-7, 3e-3}, "backend": "scalar"}},
		{name: "empty list", base: Spec{Experiment: "figure7", Params: Params{"phys-errors": []any{}}},
			params: Params{"seed": 3}},
		{name: "empty list setting", base: Spec{Experiment: "figure7"}, params: Params{"phys-errors": []any{}}},
		{name: "unset parameter", base: Spec{Experiment: "equation2"}, params: Params{"p0": 1e-4, "level": 3}},
		{name: "machine", base: Spec{Experiment: "ec-latency"},
			machine: func(m *MachineSpec) { m.ParamSet, m.Level, m.LogicalQubits = "current", 0, 7 }},
		{name: "tech", base: Spec{Experiment: "ec-latency", Machine: MachineSpec{Tech: &tech}},
			machine: func(m *MachineSpec) { m.ParamSet, m.Bandwidth = "current", 4 }},
		{name: "tech unchanged", base: Spec{Experiment: "equation2", Machine: MachineSpec{Tech: &tech}},
			params: Params{"p0": 2e-4}},
		{name: "negative level", base: Spec{Experiment: "ec-latency"},
			machine: func(m *MachineSpec) { m.Level = -1 }, wantErr: "ec-latency: engine: negative recursion level -1"},
		{name: "bad param set", base: Spec{Experiment: "shor"},
			machine: func(m *MachineSpec) { m.ParamSet = "future" }, wantErr: `shor: engine: unknown parameter set "future"`},
		{name: "machineless", base: Spec{Experiment: "table1"},
			machine: func(m *MachineSpec) { m.Bandwidth = 1 }, wantErr: "table1: experiment takes no machine configuration"},
		{name: "machineless zero", base: Spec{Experiment: "table1"}, machine: func(m *MachineSpec) { m.Level = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := NewBase(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			want, err := MakeCanonical(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base.JSON, want.JSON) || base.Hash != want.Hash {
				t.Fatalf("base %s differs from MakeCanonical %s", base.JSON, want.JSON)
			}
			point := base.Spec
			point.Params = Params{}
			for name, v := range base.Spec.Params {
				point.Params[name] = v
			}
			var set []Setting
			for name, v := range tc.params {
				s, err := base.Setting(name, v)
				if err != nil {
					t.Fatal(err)
				}
				set = append(set, s)
				point.Params[name] = s.Value
			}
			if tc.machine != nil {
				tc.machine(&point.Machine)
			}
			got, gotErr := base.Derive(point.Machine, set)
			want, wantErr := MakeCanonical(point)
			if tc.wantErr != "" {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), tc.wantErr) {
					t.Fatalf("Derive error %v, MakeCanonical error %v, want %q", gotErr, wantErr, tc.wantErr)
				}
				return
			}
			if gotErr != nil || wantErr != nil {
				t.Fatalf("Derive error %v, MakeCanonical error %v", gotErr, wantErr)
			}
			if !bytes.Equal(got.JSON, want.JSON) || got.Hash != want.Hash {
				t.Fatalf("derived\n %s\nMakeCanonical\n %s", got.JSON, want.JSON)
			}
			again, err := MakeCanonical(got.Spec)
			if err != nil || !bytes.Equal(again.JSON, got.JSON) {
				t.Fatalf("derived Spec re-canonicalizes to %s (err %v)", again.JSON, err)
			}
			if got.exp != want.exp {
				t.Error("derived point resolved a different experiment")
			}
			// Nothing mutable is shared with the base, a setting or a
			// second derivation.
			other, _ := base.Derive(point.Machine, set)
			encode := func(spec Spec) string {
				raw, err := appendSpec(nil, spec)
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			baseBefore := encode(base.Spec)
			for _, v := range got.Spec.Params {
				if fs, ok := v.([]float64); ok && len(fs) > 0 {
					fs[0] = -1
				}
				if is, ok := v.([]int); ok && len(is) > 0 {
					is[0] = -1
				}
			}
			if got.Spec.Machine.Tech != nil {
				got.Spec.Machine.Tech.Name = "mutated"
			}
			if encode(base.Spec) != baseBefore {
				t.Error("mutating a derived Spec changed the base")
			}
			if encode(other.Spec) != string(other.JSON) {
				t.Error("mutating a derived Spec changed another derived Spec")
			}
			for _, s := range set {
				if raw, _ := AppendValue(nil, derivedValue(s.Value)); !bytes.Equal(raw, s.JSON) {
					t.Error("mutating a derived Spec changed a setting")
				}
			}
		})
	}
}

// TestSettingChecksLikeCanonicalization: a setting is refused exactly
// where canonicalization refuses the same given value.
func TestSettingChecksLikeCanonicalization(t *testing.T) {
	base, err := NewBase(Spec{Experiment: "figure7"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"backend", "gpu", `invalid value "gpu" (want one of "batch", "scalar")`},
		{"trials", "many", "want integer, got string"},
		{"seed", -1.0, "want non-negative integer, got -1"},
		{"phys-errors", []any{"x"}, "element 0: want number, got string"},
		{"nope", 1, `unknown parameter "nope"`},
	} {
		_, err := base.Setting(tc.name, tc.v)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Setting(%q, %v): err %v, want %q", tc.name, tc.v, err, tc.want)
		}
		if _, err := MakeCanonical(Spec{Experiment: "figure7", Params: Params{tc.name: tc.v}}); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("MakeCanonical with %s=%v: err %v", tc.name, tc.v, err)
		}
	}
}

// BenchmarkMakeCanonical times the /v1/run canonicalization path: a
// figure7 spec as it arrives over HTTP (JSON numbers, a JSON list),
// and a machine spec with an explicit technology override.
func BenchmarkMakeCanonical(b *testing.B) {
	tech := iontrap.Current()
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"figure7", Spec{Experiment: "figure7", Params: Params{
			"phys-errors": []any{0.002}, "trials": 640.0, "seed": 3.0, "backend": "batch"}}},
		{"tech", Spec{Experiment: "ec-latency", Machine: MachineSpec{Tech: &tech, Level: 1}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := MakeCanonical(tc.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
