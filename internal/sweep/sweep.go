// Package sweep fans one parameterized engine Spec out over a grid of
// machine configurations and parameter values — the evaluation shape of
// the QLA paper's Figures 8–10 and Table 4 (ADCR and recursion-level
// tradeoffs across machine configurations) and of the memory-hierarchy
// follow-up (quant-ph/0604070), which sweeps tech-params × cache-level
// × bandwidth grids.
//
// A SweepSpec is a base Spec plus axes. Expand resolves it
// deterministically into per-point canonical Specs, each carrying its
// own content address, so the serving layer's result cache applies
// point by point: re-running a sweep that shares points with earlier
// runs (or with single /v1/run requests) recomputes nothing. The
// expansion itself is content-addressed too — the hex SHA-256 of the
// canonical SweepSpec encoding — and that hash doubles as the async
// job ID in internal/jobs.
//
// Runner executes the points on a shared Engine (points draw worker
// slots from the engine's scheduler individually; the runner only
// bounds how many points are in flight), aggregating per-point
// status/timing into a Result with table/CSV views. Fixed-seed engine
// results are bit-identical at any parallelism, so a sweep's per-point
// payloads are too, at any Runner concurrency.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"qla/internal/engine"
)

// Spec is the JSON-(de)serializable description of one sweep: a base
// engine Spec plus the axes that vary it.
type Spec struct {
	// Base is the point template; every axis assignment is applied over
	// it. Aliases and omitted defaults are fine — points canonicalize.
	Base engine.Spec `json:"base"`
	// Axes are the grid dimensions, expanded row-major (the last axis
	// varies fastest). At least one axis is required.
	Axes []Axis `json:"axes"`
}

// Axis is one grid dimension.
type Axis struct {
	// Field names what the axis varies: "machine.param_set",
	// "machine.level", "machine.bandwidth", "machine.logical_qubits",
	// or "params.<name>" for any parameter the base experiment declares.
	Field string `json:"field"`
	// Values are the grid coordinates, in sweep order.
	Values []any `json:"values"`
}

// Expansion bounds: enough for every grid in the paper and the
// follow-up (Table 4 is ≤ a few dozen points) with two orders of
// margin, and small enough that one malicious SweepSpec cannot wedge
// the serving layer.
const (
	MaxAxes   = 6
	MaxPoints = 4096
)

// Sweep is an expanded SweepSpec: the canonical spec with its content
// address, plus every grid point as a canonical engine Spec.
type Sweep struct {
	// Spec is the canonical sweep: base canonicalized, axis values
	// coerced to their declared kinds.
	Spec Spec
	// JSON is the byte-stable canonical encoding; Hash its hex SHA-256
	// content address (also the async job ID).
	JSON []byte
	Hash string
	// Experiment is the canonical base experiment name.
	Experiment string
	// Fields lists the axis fields in order (the coordinate schema).
	Fields []string
	// Points holds the expanded grid in row-major order.
	Points []Point
}

// Point is one expanded grid point.
type Point struct {
	// Coords are the axis values of this point, one per axis, coerced.
	Coords []any
	// Canonical is the point's canonical Spec with encoding and hash.
	Canonical engine.Canonical
}

// DecodeSpec parses a JSON SweepSpec strictly, mirroring
// engine.DecodeSpec: unknown fields and trailing data are rejected, and
// malformed input of any shape returns an error, never panics
// (FuzzSweepDecode enforces that).
func DecodeSpec(raw []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: invalid sweep JSON: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("sweep: trailing data after sweep JSON")
	}
	return s, nil
}

// ReadFile parses a JSON SweepSpec from path; "-" reads standard input.
func ReadFile(path string) (Spec, error) {
	var (
		raw []byte
		err error
	)
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return Spec{}, err
	}
	s, err := DecodeSpec(raw)
	if err != nil {
		return Spec{}, fmt.Errorf("parsing sweep %s: %w", path, err)
	}
	return s, nil
}

// Expand validates s and resolves it into its grid points. The
// expansion is fully deterministic: the same SweepSpec (under any
// equivalent spelling — base aliases, omitted defaults, 2 vs 2.0 axis
// values) yields the same canonical encoding, the same Hash, and the
// same per-point canonical Specs and hashes, in the same order.
// Distinct axis assignments that canonicalize to the same point (say,
// machine.level values 0 and 2, where 0 means the default 2) are
// rejected rather than silently collapsed.
//
// The base is canonicalized once and every axis value checked once;
// each point then derives from the compiled base, so a point costs its
// encoding and hash rather than a full canonicalization.
func Expand(s Spec) (*Sweep, error) {
	base, err := engine.NewBase(s.Base)
	if err != nil {
		return nil, fmt.Errorf("sweep: base spec: %w", err)
	}
	exp, ok := engine.Lookup(base.Spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("sweep: base experiment %q vanished from the registry", base.Spec.Experiment)
	}
	if exp.Name == "machine-sweep" {
		// A sweep of sweeps would multiply grids: each of up to
		// MaxPoints points would itself fan out up to MaxPoints runs,
		// amplifying one request far past the documented bound. The
		// axes ARE the sweep; nesting adds nothing but blast radius.
		return nil, fmt.Errorf("sweep: base experiment machine-sweep cannot be swept (axes already express the grid)")
	}
	if len(s.Axes) == 0 {
		return nil, fmt.Errorf("sweep: no axes (a sweep needs at least one)")
	}
	if len(s.Axes) > MaxAxes {
		return nil, fmt.Errorf("sweep: %d axes exceeds the maximum %d", len(s.Axes), MaxAxes)
	}

	// Canonicalize the axes: check every value once against its field —
	// coerced to the declared kind, a parameter's OneOf enforced — and
	// reject duplicates within an axis (they would expand to duplicate
	// points), unknown fields, and empty value lists. A parameter value
	// is keyed on its encoding in the point Spec, where a nil and an
	// empty list are both null.
	axes := make([]axis, len(s.Axes))
	canonAxes := make([]Axis, len(s.Axes))
	fields := make([]string, len(s.Axes))
	total := 1
	for i, ax := range s.Axes {
		if slices.Contains(fields[:i], ax.Field) {
			return nil, fmt.Errorf("sweep: duplicate axis field %q", ax.Field)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Field)
		}
		kind, err := axisKind(exp, ax.Field)
		if err != nil {
			return nil, err
		}
		a := axis{field: ax.Field, values: make([]any, len(ax.Values))}
		if name, ok := strings.CutPrefix(ax.Field, "params."); ok {
			a.param = name
			a.settings = make([]engine.Setting, len(ax.Values))
		}
		seenVal := make(map[string]bool, len(ax.Values))
		for j, v := range ax.Values {
			var key []byte
			if a.param != "" {
				st, err := base.Setting(a.param, v)
				if err != nil {
					return nil, fmt.Errorf("sweep: axis %q value %d: %w", ax.Field, j, err)
				}
				a.settings[j], a.values[j], key = st, st.Value, st.JSON
			} else {
				cv, err := engine.CoerceValue(kind, v)
				if err == nil {
					key, err = engine.AppendValue(nil, cv)
				}
				if err != nil {
					return nil, fmt.Errorf("sweep: axis %q value %d: %w", ax.Field, j, err)
				}
				a.values[j] = cv
			}
			if seenVal[string(key)] {
				return nil, fmt.Errorf("sweep: axis %q repeats value %s", ax.Field, key)
			}
			seenVal[string(key)] = true
		}
		axes[i] = a
		canonAxes[i] = Axis{Field: ax.Field, Values: a.values}
		fields[i] = ax.Field
		if total > MaxPoints/len(a.values) {
			return nil, fmt.Errorf("sweep: grid exceeds the maximum %d points", MaxPoints)
		}
		total *= len(a.values)
	}
	canon := Spec{Base: base.Spec, Axes: canonAxes}
	raw, err := canon.appendJSON(nil, base.JSON)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Spec:       canon,
		JSON:       raw,
		Hash:       engine.HashBytes(raw),
		Experiment: base.Spec.Experiment,
		Fields:     fields,
		Points:     make([]Point, 0, total),
	}

	// Distinct parameter keys derive distinct points, so only a machine
	// axis, whose values normalize (level 0 is level 2), can make two
	// points one run: only then are the points' hashes compared.
	var seenPoint map[string]int
	for _, a := range axes {
		if a.param == "" {
			seenPoint = make(map[string]int, total)
		}
	}

	// Row-major enumeration, last axis fastest. Every point's
	// coordinates are a capped window of one shared array.
	allCoords := make([]any, total*len(axes))
	idx := make([]int, len(axes))
	set := make([]engine.Setting, 0, len(axes))
	for n := 0; n < total; n++ {
		if n > 0 {
			// Advance idx like an odometer, the last axis fastest.
			for i := len(axes) - 1; i >= 0; i-- {
				if idx[i]++; idx[i] < len(axes[i].values) {
					break
				}
				idx[i] = 0
			}
		}
		coords := allCoords[n*len(axes) : (n+1)*len(axes) : (n+1)*len(axes)]
		machine := base.Spec.Machine
		set = set[:0]
		for i, a := range axes {
			coords[i] = a.values[idx[i]]
			if a.param != "" {
				set = append(set, a.settings[idx[i]])
			} else {
				setMachine(&machine, a.field, coords[i])
			}
		}
		sw.Points = append(sw.Points, Point{Coords: coords})
		pt := &sw.Points[n]
		if pt.Canonical, err = base.Derive(machine, set); err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", n, coordsString(fields, coords), err)
		}
		if seenPoint == nil {
			continue
		}
		hash := pt.Canonical.Hash
		if prev, dup := seenPoint[hash]; dup {
			return nil, fmt.Errorf("sweep: points %d and %d (%s) canonicalize to the same run %s",
				prev, n, coordsString(fields, coords), hash[:12])
		}
		seenPoint[hash] = n
	}
	return sw, nil
}

// appendJSON appends the encoding of s — json.Marshal's bytes — given
// the encoding of its base. The axes and their value lists of an
// expanded sweep are never nil, so none encodes as null.
func (s Spec) appendJSON(dst, base []byte) ([]byte, error) {
	dst = append(append(dst, `{"base":`...), base...)
	dst = append(dst, `,"axes":[`...)
	for i, ax := range s.Axes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = engine.AppendString(append(dst, `{"field":`...), ax.Field)
		dst = append(dst, `,"values":[`...)
		for j, v := range ax.Values {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = engine.AppendValue(dst, v); err != nil {
				return nil, err
			}
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...), nil
}

// axis is one canonicalized grid dimension: its coerced values and, on
// a parameter axis, each value checked against the base.
type axis struct {
	field    string
	param    string // the parameter name of a params.<name> axis
	values   []any
	settings []engine.Setting
}

// axisKind resolves the declared kind of an axis field, validating the
// field name against the machine schema or the experiment's parameter
// declarations.
func axisKind(exp *engine.Experiment, field string) (engine.Kind, error) {
	if name, ok := strings.CutPrefix(field, "params."); ok {
		def, ok := exp.Param(name)
		if !ok {
			return 0, fmt.Errorf("sweep: axis %q: experiment %q declares no parameter %q", field, exp.Name, name)
		}
		return def.Kind, nil
	}
	switch field {
	case "machine.param_set":
		return engine.Text, nil
	case "machine.level", "machine.bandwidth", "machine.logical_qubits":
		return engine.Int, nil
	}
	return 0, fmt.Errorf("sweep: unknown axis field %q (want machine.param_set, machine.level, machine.bandwidth, machine.logical_qubits, or params.<name>)", field)
}

// setMachine writes one coerced machine-axis value into m.
func setMachine(m *engine.MachineSpec, field string, v any) {
	switch field {
	case "machine.param_set":
		m.ParamSet = v.(string)
	case "machine.level":
		m.Level = v.(int)
	case "machine.bandwidth":
		m.Bandwidth = v.(int)
	case "machine.logical_qubits":
		m.LogicalQubits = v.(int)
	}
}

// coordsString renders one point's coordinates for error text and the
// table view: "machine.level=2, params.trials=1000".
func coordsString(fields []string, coords []any) string {
	var b []byte
	for i, f := range fields {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, f...), '=')
		enc, err := engine.AppendValue(b, coords[i])
		if err != nil {
			enc = fmt.Appendf(b, "%v", coords[i])
		}
		b = enc
	}
	return string(b)
}
