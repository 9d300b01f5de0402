package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Kind is the declared type of one experiment parameter. Values arriving
// from JSON (where every number is a float64) or from Go callers (typed
// ints, uints, slices) are coerced to one canonical Go type per kind
// before an experiment sees them.
type Kind int

const (
	// Int coerces to int.
	Int Kind = iota
	// Uint coerces to uint64 (seeds).
	Uint
	// Float coerces to float64.
	Float
	// Bool coerces to bool.
	Bool
	// Text coerces to string.
	Text
	// Floats coerces to []float64.
	Floats
	// Ints coerces to []int.
	Ints
)

// String names the kind as it appears in documentation and error text.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Uint:
		return "uint"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Text:
		return "string"
	case Floats:
		return "[]float"
	case Ints:
		return "[]int"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParamDef declares one parameter of a registered experiment: its name,
// type, default value and one-line documentation. A nil Default makes
// the parameter optional with no resolved entry when absent.
type ParamDef struct {
	Name    string
	Kind    Kind
	Default any
	Doc     string
	// OneOf restricts a Text parameter to an explicit value set;
	// resolution rejects anything else *before* the experiment runs, so
	// a bad value is a spec-validation error (HTTP 400, never cached)
	// rather than a runtime failure. Empty means unrestricted.
	OneOf []string
}

// resolve checks one given value of the parameter: it coerces v to the
// declared kind and enforces the OneOf restriction.
func (d *ParamDef) resolve(v any) (any, error) {
	v, err := coerce(d.Kind, v)
	if err != nil {
		return nil, err
	}
	if s, ok := v.(string); ok && len(d.OneOf) > 0 && !slices.Contains(d.OneOf, s) {
		return nil, fmt.Errorf("invalid value %q (want one of %s)", s, quotedList(d.OneOf))
	}
	return v, nil
}

// Params carries experiment parameters by name. In a Spec the values may
// be anything JSON unmarshals to (or native Go values when constructed
// in-process); after Engine.Run resolves them against the experiment's
// ParamDefs they hold exactly one canonical type per declared kind.
type Params map[string]any

// Int returns the named int parameter (zero when absent).
func (p Params) Int(name string) int { v, _ := p[name].(int); return v }

// Uint returns the named uint parameter (zero when absent).
func (p Params) Uint(name string) uint64 { v, _ := p[name].(uint64); return v }

// Float returns the named float parameter (zero when absent).
func (p Params) Float(name string) float64 { v, _ := p[name].(float64); return v }

// Bool returns the named bool parameter (false when absent).
func (p Params) Bool(name string) bool { v, _ := p[name].(bool); return v }

// Str returns the named string parameter (empty when absent).
func (p Params) Str(name string) string { v, _ := p[name].(string); return v }

// Floats returns the named []float64 parameter (nil when absent).
func (p Params) Floats(name string) []float64 { v, _ := p[name].([]float64); return v }

// Ints returns the named []int parameter (nil when absent).
func (p Params) Ints(name string) []int { v, _ := p[name].([]int); return v }

// resolveParams merges the caller's params over the experiment defaults,
// rejecting names the experiment does not declare and values that cannot
// be coerced to the declared kind.
func resolveParams(defs []ParamDef, given Params) (Params, error) {
	byName := make(map[string]*ParamDef, len(defs))
	for i := range defs {
		byName[defs[i].Name] = &defs[i]
	}
	out := make(Params, len(defs))
	for _, d := range defs {
		if d.Default == nil {
			continue
		}
		v, err := coerce(d.Kind, d.Default)
		if err != nil {
			return nil, fmt.Errorf("engine: bad default for %q: %w", d.Name, err)
		}
		out[d.Name] = v
	}
	// Deterministic iteration keeps error messages stable.
	names := make([]string, 0, len(given))
	for name := range given {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("engine: unknown parameter %q (known: %s)", name, paramNames(defs))
		}
		v, err := d.resolve(given[name])
		if err != nil {
			return nil, fmt.Errorf("engine: parameter %q: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

func quotedList(values []string) string {
	quoted := make([]string, len(values))
	for i, v := range values {
		quoted[i] = fmt.Sprintf("%q", v)
	}
	return strings.Join(quoted, ", ")
}

func paramNames(defs []ParamDef) string {
	if len(defs) == 0 {
		return "none"
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return strings.Join(names, ", ")
}

// CoerceValue converts v to the canonical Go type of kind k — the same
// coercion Run applies to Spec parameters, exported so the sweep layer
// canonicalizes axis values exactly as point canonicalization will.
func CoerceValue(k Kind, v any) (any, error) { return coerce(k, v) }

// coerce converts v to the canonical Go type of kind k.
func coerce(k Kind, v any) (any, error) {
	switch k {
	case Int:
		n, err := toInt64(v)
		if err != nil {
			return nil, err
		}
		return int(n), nil
	case Uint:
		n, err := toUint64(v)
		if err != nil {
			return nil, err
		}
		return n, nil
	case Float:
		f, err := toFloat64(v)
		if err != nil {
			return nil, err
		}
		return f, nil
	case Bool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", v)
		}
		return b, nil
	case Text:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", v)
		}
		return s, nil
	case Floats:
		return toFloats(v)
	case Ints:
		return toInts(v)
	}
	return nil, fmt.Errorf("unknown parameter kind %v", k)
}

func toInt64(v any) (int64, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int64:
		return n, nil
	case uint64:
		if n > math.MaxInt64 {
			return 0, fmt.Errorf("integer %d overflows", n)
		}
		return int64(n), nil
	case float64:
		if n != math.Trunc(n) || math.Abs(n) > 1<<53 {
			return 0, fmt.Errorf("want integer, got %g", n)
		}
		return int64(n), nil
	}
	return 0, fmt.Errorf("want integer, got %T", v)
}

// toUint64 accepts the full uint64 range directly (seeds legitimately
// use the upper half), plus non-negative signed and integral floats.
func toUint64(v any) (uint64, error) {
	switch n := v.(type) {
	case uint64:
		return n, nil
	case uint:
		return uint64(n), nil
	case int:
		if n < 0 {
			return 0, fmt.Errorf("want non-negative, got %d", n)
		}
		return uint64(n), nil
	case int64:
		if n < 0 {
			return 0, fmt.Errorf("want non-negative, got %d", n)
		}
		return uint64(n), nil
	case float64:
		if n != math.Trunc(n) || n < 0 || n > 1<<53 {
			return 0, fmt.Errorf("want non-negative integer, got %g", n)
		}
		return uint64(n), nil
	}
	return 0, fmt.Errorf("want non-negative integer, got %T", v)
}

func toFloat64(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	case uint64:
		return float64(n), nil
	}
	return 0, fmt.Errorf("want number, got %T", v)
}

func toFloats(v any) ([]float64, error) {
	switch s := v.(type) {
	case []float64:
		return append([]float64(nil), s...), nil
	case []int:
		out := make([]float64, len(s))
		for i, n := range s {
			out[i] = float64(n)
		}
		return out, nil
	case []any:
		out := make([]float64, len(s))
		for i, e := range s {
			f, err := toFloat64(e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = f
		}
		return out, nil
	}
	return nil, fmt.Errorf("want number list, got %T", v)
}

func toInts(v any) ([]int, error) {
	switch s := v.(type) {
	case []int:
		return append([]int(nil), s...), nil
	case []float64:
		out := make([]int, len(s))
		for i, f := range s {
			n, err := toInt64(f)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = int(n)
		}
		return out, nil
	case []any:
		out := make([]int, len(s))
		for i, e := range s {
			n, err := toInt64(e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = int(n)
		}
		return out, nil
	}
	return nil, fmt.Errorf("want integer list, got %T", v)
}
