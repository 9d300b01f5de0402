package engine

// Spec canonicalization and content addressing. Two Specs that describe
// the same run — alias vs canonical experiment name, defaults spelled
// out vs omitted, machine defaults explicit vs zero — must hash to the
// same content address, because the serving layer caches Results by
// that hash and fixed-seed runs are bit-identical at any parallelism.
// Canonical form: the experiment's registry name, every parameter
// resolved (defaults included, values coerced to their declared kind,
// seeds included), and the machine selection with the package defaults
// made explicit. The encoding (encode.go) writes map keys sorted, so
// it is byte-stable.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"

	"qla/internal/iontrap"
)

// canonicalize resolves spec against the registry and validates it
// fully: experiment lookup, parameter resolution (defaults + coercion),
// and the complete machine validation (parameter set, negative fields)
// — not just the slice of it the experiment happens to touch. It
// returns the experiment, the canonical spec, and the resolved
// technology parameters. Both Engine.Run and the content-address path
// go through here, so a spec that hashes is a spec that runs.
func canonicalize(spec Spec) (*Experiment, Spec, iontrap.Params, error) {
	fail := func(err error) (*Experiment, Spec, iontrap.Params, error) {
		return nil, Spec{}, iontrap.Params{}, err
	}
	exp, ok := Lookup(spec.Experiment)
	if !ok {
		return fail(fmt.Errorf("engine: unknown experiment %q (known: %s)", spec.Experiment, knownNames()))
	}
	params, err := resolveParams(exp.Params, spec.Params)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", exp.Name, err))
	}
	machine, tech, err := resolveMachine(exp, spec.Machine)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", exp.Name, err))
	}
	return exp, Spec{Experiment: exp.Name, Machine: machine, Params: params}, tech, nil
}

// resolveMachine validates m in full for exp and returns its canonical
// form with the technology parameters it selects. The validation is
// complete even where the experiment reads only part of the machine:
// one that reads only rc.Tech would otherwise ignore a negative level.
func resolveMachine(exp *Experiment, m MachineSpec) (MachineSpec, iontrap.Params, error) {
	if !exp.UsesMachine && m != (MachineSpec{}) {
		return MachineSpec{}, iontrap.Params{}, fmt.Errorf("experiment takes no machine configuration")
	}
	tech, err := m.TechParams()
	if err != nil {
		return MachineSpec{}, iontrap.Params{}, err
	}
	if err := m.checkSizes(); err != nil {
		return MachineSpec{}, iontrap.Params{}, err
	}
	if exp.UsesMachine {
		m = m.normalize()
	}
	return m, tech, nil
}

// normalize makes the machine defaults explicit so equivalent
// selections canonicalize identically: the zero ParamSet becomes
// "expected", zero Level/Bandwidth become the core package defaults,
// and a ParamSet shadowed by an explicit Tech override is dropped
// (TechParams ignores it, so it must not perturb the hash).
func (m MachineSpec) normalize() MachineSpec {
	if m.Tech != nil {
		m.ParamSet = ""
		tech := *m.Tech
		m.Tech = &tech
	} else if m.ParamSet == "" {
		m.ParamSet = "expected"
	}
	if m.Level == 0 {
		m.Level = 2
	}
	if m.Bandwidth == 0 {
		m.Bandwidth = 2
	}
	return m
}

// Canonicalize returns the canonical form of spec: aliases resolved to
// the registry name, parameters fully resolved (defaults and seeds
// included), machine defaults explicit. It validates exactly as
// Engine.Run does; a spec Canonicalize accepts is a spec Run accepts.
func Canonicalize(spec Spec) (Spec, error) {
	_, canon, _, err := canonicalize(spec)
	return canon, err
}

// Canonical is a Spec in canonical form together with its encoding and
// content address, produced by one validation pass (MakeCanonical) so
// serving front ends don't re-canonicalize per derived value.
type Canonical struct {
	// Spec is the canonical form; running it through Engine.Run executes
	// exactly what the original described.
	Spec Spec
	// JSON is the byte-stable canonical encoding.
	JSON []byte
	// Hash is the hex SHA-256 of JSON — the result-cache key.
	Hash string

	// Resolved during MakeCanonical so Engine.RunCanonical need not
	// repeat the validation pass; nil in a hand-built Canonical, which
	// RunCanonical re-canonicalizes defensively.
	exp *Experiment
}

// MakeCanonical canonicalizes, encodes and hashes spec in one pass.
func MakeCanonical(spec Spec) (Canonical, error) {
	exp, canon, _, err := canonicalize(spec)
	if err != nil {
		return Canonical{}, err
	}
	raw, err := appendSpec(make([]byte, 0, 256), canon)
	if err != nil {
		return Canonical{}, err
	}
	return Canonical{Spec: canon, JSON: raw, Hash: HashBytes(raw), exp: exp}, nil
}

// HashBytes returns the hex SHA-256 content address of raw — the
// addressing primitive shared by Spec hashing, the sweep layer's
// SweepSpec hashing (which doubles as the async job ID), and the result
// cache's persistence tier.
func HashBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}

// Base is a canonical Spec compiled for deriving variants of it — the
// points of a sweep grid — without resolving its defaults or encoding
// the fields they share again. Derive returns exactly what
// MakeCanonical returns for the variant's Spec.
type Base struct {
	Canonical
	head    []byte      // the encoding up to the machine field
	machine []byte      // the machine field's encoding; empty when omitted
	params  []baseParam // the resolved parameters in key order
}

// baseParam is one resolved parameter of a Base, encoded as a derived
// point encodes it.
type baseParam struct {
	name  string
	key   []byte // `"name":`
	value any
	enc   []byte
}

// NewBase canonicalizes spec, validating it as MakeCanonical does, and
// compiles it for Derive.
func NewBase(spec Spec) (*Base, error) {
	c, err := MakeCanonical(spec)
	if err != nil {
		return nil, err
	}
	b := &Base{Canonical: c, params: make([]baseParam, 0, len(c.Spec.Params))}
	// The pieces share one buffer. MakeCanonical has encoded every
	// field already, so none fails here.
	buf := appendSpecHead(make([]byte, 0, 2*len(c.JSON)), c.Spec.Experiment)
	b.head = buf[:len(buf):len(buf)]
	buf, _ = appendMachineField(buf, c.Spec.Machine)
	b.machine = buf[len(b.head):len(buf):len(buf)]
	for _, name := range slices.Sorted(maps.Keys(c.Spec.Params)) {
		v := c.Spec.Params[name]
		start := len(buf)
		buf = appendKey(buf, name)
		mid := len(buf)
		buf, _ = AppendValue(buf, derivedValue(v))
		b.params = append(b.params, baseParam{name: name, key: buf[start:mid:mid], value: v, enc: buf[mid:len(buf):len(buf)]})
	}
	return b, nil
}

// Setting is one parameter value checked once against a Base's
// experiment, for use in any number of Derive calls on that Base.
type Setting struct {
	// Value is the value coerced to the parameter's declared kind, and
	// JSON its encoding in a derived Spec, where an empty list is null:
	// two settings of one parameter derive the same run exactly when
	// their JSON is equal.
	Value any
	JSON  []byte
	name  string
	slot  int // the parameter's index in the Base; -1 if unset there
}

// Setting checks v as a value of the named parameter exactly as
// canonicalization checks a given value: coercion to the declared kind
// and the OneOf restriction. Like CoerceValue's, its error carries no
// experiment or parameter prefix; the caller adds its own context.
func (b *Base) Setting(name string, v any) (Setting, error) {
	def, ok := b.exp.Param(name)
	if !ok {
		return Setting{}, fmt.Errorf("unknown parameter %q (known: %s)", name, paramNames(b.exp.Params))
	}
	cv, err := def.resolve(v)
	if err != nil {
		return Setting{}, err
	}
	enc, err := AppendValue(nil, derivedValue(cv))
	if err != nil {
		return Setting{}, err
	}
	s := Setting{Value: cv, JSON: enc, name: name, slot: -1}
	for i, p := range b.params {
		if p.name == name {
			s.slot = i
		}
	}
	return s, nil
}

// Derive returns the canonical form of the base Spec with its machine
// selection replaced by m and set applied over its parameters: what
// MakeCanonical returns for that Spec. A machine other than the base's
// is validated and normalized in full; a Setting was checked when it
// was made. Slices and the technology parameters are copied, so no
// derived Spec shares them with another or with the base.
func (b *Base) Derive(m MachineSpec, set []Setting) (Canonical, error) {
	c := Canonical{exp: b.exp}
	sameMachine := m == b.Spec.Machine
	size := len(b.JSON)
	for j := range set {
		size += len(set[j].JSON)
	}
	if !sameMachine {
		size += 64 // room for machine fields the base omits
	}
	raw := append(make([]byte, 0, size), b.head...)
	if sameMachine {
		raw = append(raw, b.machine...)
		if m.Tech != nil {
			tech := *m.Tech
			m.Tech = &tech
		}
	} else {
		var err error
		if m, _, err = resolveMachine(b.exp, m); err != nil {
			return Canonical{}, fmt.Errorf("%s: %w", b.exp.Name, err)
		}
		if raw, err = appendMachineField(raw, m); err != nil {
			return Canonical{}, err
		}
	}
	// Each parameter goes into the map once, with its setting if it has
	// one, and its encoding follows the base's key order.
	params := make(Params, len(b.params)+len(set))
	if len(b.params) > 0 {
		raw = append(raw, `,"params":{`...)
	}
	for i, p := range b.params {
		v, enc := p.value, p.enc
		for j := range set {
			if set[j].slot == i {
				v, enc = set[j].Value, set[j].JSON
			}
		}
		params[p.name] = derivedValue(v)
		if i > 0 {
			raw = append(raw, ',')
		}
		raw = append(append(raw, p.key...), enc...)
	}
	added := false
	for j := range set {
		if set[j].slot < 0 {
			params[set[j].name] = derivedValue(set[j].Value)
			added = true
		}
	}
	c.Spec = Spec{Experiment: b.Spec.Experiment, Machine: m, Params: params}
	if added {
		// A parameter the base leaves unset shifts the keys after it.
		var err error
		if raw, err = appendSpec(raw[:0], c.Spec); err != nil {
			return Canonical{}, err
		}
	} else {
		if len(b.params) > 0 {
			raw = append(raw, '}')
		}
		raw = append(raw, '}')
	}
	c.JSON, c.Hash = raw, HashBytes(raw)
	return c, nil
}

// derivedValue is the value canonicalization makes of an already
// coerced parameter value: the value itself, or for a slice a fresh
// copy (nil when empty, as coercion copies).
func derivedValue(v any) any {
	switch x := v.(type) {
	case []float64:
		return append([]float64(nil), x...)
	case []int:
		return append([]int(nil), x...)
	}
	return v
}

// SpecHash returns the content address of spec: the hex SHA-256 of its
// canonical JSON. Two Specs hash equal exactly when Run would execute
// the same computation, and fixed-seed results are bit-identical at any
// parallelism, so the hash is a sound cache key for Results.
func SpecHash(spec Spec) (string, error) {
	c, err := MakeCanonical(spec)
	if err != nil {
		return "", err
	}
	return c.Hash, nil
}
