// Package engine is the front door of the QLA simulator: a
// concurrency-safe, context-aware executor for the registry of named
// experiments that reproduce the paper's evaluation (and the ARQ
// pipeline stages). Callers describe a run as a JSON-serializable Spec
// — experiment name, machine configuration, parameters — and receive a
// Result carrying the typed data rows, timing metadata and the seed
// used. One Engine serves any number of concurrent Run calls; the
// Monte Carlo hot paths fan trials out over worker pools whose width
// WithParallelism bounds, with per-trial deterministic sub-seeds so
// results are bit-identical to serial execution at the same seed.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qla/internal/core"
	"qla/internal/iontrap"
)

// Spec is the JSON-(de)serializable description of one experiment run.
type Spec struct {
	// Experiment is the registry name (or alias) to run.
	Experiment string `json:"experiment"`
	// Machine configures the QLA instance experiments run against.
	Machine MachineSpec `json:"machine,omitzero"`
	// Params overrides the experiment's documented defaults.
	Params Params `json:"params,omitempty"`
}

// MachineSpec selects the machine configuration for a Spec. The zero
// value means the paper's canonical machine: expected technology
// parameters, recursion level 2, channel bandwidth 2.
type MachineSpec struct {
	// ParamSet names the technology parameter set: "expected" (default)
	// or "current" (Table 1's two columns). Ignored when Tech is set.
	ParamSet string `json:"param_set,omitempty"`
	// Tech is an explicit technology parameter override for machine
	// variants outside the two named sets.
	Tech *iontrap.Params `json:"tech,omitempty"`
	// Level is the recursion level (0 means the package default, 2).
	Level int `json:"level,omitempty"`
	// Bandwidth is the channel bandwidth (0 means the default, 2).
	Bandwidth int `json:"bandwidth,omitempty"`
	// LogicalQubits sizes machines for experiments that build one
	// explicitly (0 lets the experiment pick).
	LogicalQubits int `json:"logical_qubits,omitempty"`
}

// TechParams resolves the technology parameter set.
func (m MachineSpec) TechParams() (iontrap.Params, error) {
	if m.Tech != nil {
		return *m.Tech, nil
	}
	switch m.ParamSet {
	case "", "expected":
		return iontrap.Expected(), nil
	case "current":
		return iontrap.Current(), nil
	}
	return iontrap.Params{}, fmt.Errorf("engine: unknown parameter set %q (want expected or current)", m.ParamSet)
}

// Options lowers the spec to core machine options. Zero fields mean
// the package defaults; negative values are rejected here rather than
// silently falling back (out-of-range positives are rejected by core).
func (m MachineSpec) Options() ([]core.Option, error) {
	tech, err := m.TechParams()
	if err != nil {
		return nil, err
	}
	if err := m.checkSizes(); err != nil {
		return nil, err
	}
	opts := []core.Option{core.WithParams(tech)}
	if m.Level > 0 {
		opts = append(opts, core.WithLevel(m.Level))
	}
	if m.Bandwidth > 0 {
		opts = append(opts, core.WithBandwidth(m.Bandwidth))
	}
	return opts, nil
}

// checkSizes rejects negative sizes.
func (m MachineSpec) checkSizes() error {
	if m.Level < 0 {
		return fmt.Errorf("engine: negative recursion level %d", m.Level)
	}
	if m.Bandwidth < 0 {
		return fmt.Errorf("engine: negative channel bandwidth %d", m.Bandwidth)
	}
	if m.LogicalQubits < 0 {
		return fmt.Errorf("engine: negative logical-qubit count %d", m.LogicalQubits)
	}
	return nil
}

// Result is the outcome of one Engine.Run: the typed data payload plus
// the run metadata needed to reproduce and audit it. It JSON-serializes
// for transport; Data round-trips as the experiment's documented row
// type (or generic JSON maps after a decode).
type Result struct {
	// Experiment is the canonical name of what ran (aliases resolved).
	Experiment string `json:"experiment"`
	// Params are the fully resolved parameters, defaults included.
	Params Params `json:"params,omitempty"`
	// Seed is the Monte Carlo seed used (0 for deterministic analyses).
	Seed uint64 `json:"seed,omitempty"`
	// Started and Elapsed are the run's timing metadata.
	Started time.Time     `json:"started"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Data is the experiment's typed payload (rows, curves, bills).
	Data any `json:"data,omitempty"`
}

// RunContext is what a registered experiment receives: resolved
// parameters, the machine selection with its resolved technology
// parameters, and the engine's parallelism bound for Monte Carlo fanout.
type RunContext struct {
	Params      Params
	Machine     MachineSpec
	Tech        iontrap.Params
	Parallelism int
	// Engine is the engine executing this run. Experiments that fan out
	// into sub-Specs (machine-sweep) run them through it so sub-runs
	// share its scheduler budget instead of oversubscribing cores.
	Engine *Engine
}

// Engine executes Specs against the experiment registry. The zero
// configuration (New()) is ready to use; one Engine is safe for any
// number of concurrent Run calls.
type Engine struct {
	parallelism int
	sched       Scheduler
}

// Scheduler allocates Monte Carlo worker slots from a budget shared
// across concurrent Run calls (typically process-wide: internal/sched).
// Acquire blocks until at least one slot is free and returns the number
// granted (1 ≤ granted ≤ want) plus a release function the engine calls
// when the run finishes. Because results are bit-identical at any
// parallelism for a fixed seed, the grant width never changes what a
// run computes — only how many cores it occupies.
type Scheduler interface {
	Acquire(ctx context.Context, want int) (granted int, release func(), err error)
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism bounds the worker-pool width of Monte Carlo
// experiments (0, the default, means GOMAXPROCS). Results are
// bit-identical at any parallelism for a fixed seed.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithScheduler makes every Run acquire its worker-pool width from s
// instead of taking the full WithParallelism (or GOMAXPROCS) width
// unconditionally, so concurrent runs share a global budget rather than
// each oversubscribing the machine.
func WithScheduler(s Scheduler) Option {
	return func(e *Engine) { e.sched = s }
}

// New builds an Engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// HasScheduler reports whether runs acquire their worker width from a
// shared budget. Fan-out layers use it to decide how many runs to keep
// in flight: without a scheduler every concurrent run takes its full
// width, so stacking them oversubscribes the machine.
func (e *Engine) HasScheduler() bool { return e.sched != nil }

// Run resolves the spec against the registry, validates and defaults
// its parameters, and executes the experiment under ctx. Cancellation
// is honored both up front and cooperatively inside the Monte Carlo
// hot paths. A panic inside an experiment is converted to an error:
// the engine is a serving front door and one bad spec must not take
// the process down.
func (e *Engine) Run(ctx context.Context, spec Spec) (Result, error) {
	exp, canon, tech, err := canonicalize(spec)
	if err != nil {
		return Result{}, err
	}
	return e.run(ctx, exp, canon, tech)
}

// RunCanonical executes a Canonical produced by MakeCanonical without
// repeating its validation pass — the serving hot path, where the spec
// was already canonicalized to compute the cache key. A hand-built
// Canonical (no resolved experiment) is canonicalized from its Spec.
func (e *Engine) RunCanonical(ctx context.Context, c Canonical) (Result, error) {
	if c.exp == nil {
		mc, err := MakeCanonical(c.Spec)
		if err != nil {
			return Result{}, err
		}
		c = mc
	}
	tech, err := c.Spec.Machine.TechParams()
	if err != nil {
		return Result{}, err
	}
	return e.run(ctx, c.exp, c.Spec, tech)
}

// run executes an already-canonicalized spec.
func (e *Engine) run(ctx context.Context, exp *Experiment, canon Spec, tech iontrap.Params) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	par := e.parallelism
	if e.sched != nil && exp.Parallel {
		// Only fanout experiments draw from the shared worker budget;
		// a deterministic analysis finishes in microseconds on one core
		// and must not queue behind long Monte Carlo runs.
		want := par
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		granted, release, err := e.sched.Acquire(ctx, want)
		if err != nil {
			return Result{}, err
		}
		defer release()
		par = granted
	}
	params := canon.Params
	rc := &RunContext{
		Params:      params,
		Machine:     canon.Machine,
		Tech:        tech,
		Parallelism: par,
		Engine:      e,
	}
	started := time.Now()
	data, err := runGuarded(ctx, exp, rc)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", exp.Name, err)
	}
	res := Result{
		Experiment: exp.Name,
		Params:     params,
		Started:    started,
		Elapsed:    time.Since(started),
		Data:       data,
	}
	// Record the Monte Carlo seed whichever standard parameter name the
	// experiment declares it under.
	for _, name := range []string{"seed", "mc-seed", "workload-seed"} {
		if seed, ok := params[name].(uint64); ok {
			res.Seed = seed
			break
		}
	}
	return res, nil
}

// runGuarded executes the experiment, converting a panic (a model-layer
// domain violation an experiment failed to pre-validate) into an error.
func runGuarded(ctx context.Context, exp *Experiment, rc *RunContext) (data any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return exp.Run(ctx, rc)
}
