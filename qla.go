// Package qla is a from-scratch Go implementation of the Quantum Logic
// Array (QLA) microarchitecture of Metodi, Thaker, Cross, Chong and Chuang
// (MICRO-38, 2005): a tiled ion-trap quantum computer built from level-2
// Steane [[7,1,3]] logical qubits connected by a teleportation-island
// interconnect, together with ARQ, the stabilizer-formalism architecture
// simulator the paper introduces.
//
// The package is the public facade over the implementation packages:
//
//   - NewEngine builds the front door: a concurrency-safe,
//     context-aware executor for the registry of named experiments
//     (Experiments, Lookup) that regenerate every table and figure of
//     the paper's evaluation from a JSON-serializable Spec; see
//     EXPERIMENTS.md.
//   - NewMachine configures a QLA instance (floorplan, technology
//     parameters, recursion level, channel bandwidth) and answers
//     architecture questions: EC-step clock tick, logical failure rate,
//     communication overlap, circuit execution estimates.
//   - NewJob / ParseJob run circuits through the ARQ pipeline: exact
//     stabilizer execution, noisy Pauli-frame Monte Carlo, pulse-schedule
//     lowering.
//
// Every table and figure is reached the same way: build a Spec naming
// the experiment and run it with Engine.Run, which adds context
// cancellation, parallelism control and machine configuration.
package qla

import (
	"context"
	"io"

	"qla/internal/adder"
	"qla/internal/arq"
	"qla/internal/circuit"
	"qla/internal/codes"
	"qla/internal/commsim"
	"qla/internal/control"
	"qla/internal/core"
	_ "qla/internal/cyclesim" // installs the cycle-* experiment family
	"qla/internal/engine"
	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/modarith"
	"qla/internal/multichip"
	"qla/internal/netsim"
	"qla/internal/qccd"
	"qla/internal/sched"
	"qla/internal/shor"
	"qla/internal/stabilizer"
	"qla/internal/sweep"
	"qla/internal/teleport"
	"qla/internal/threshold"
)

// Re-exported model types. The aliases keep the full method sets of the
// implementation packages while presenting a single import path.
type (
	// Machine is a configured QLA instance.
	Machine = core.Machine
	// MachineOption configures NewMachine.
	MachineOption = core.Option
	// Report is an architecture-level circuit execution estimate.
	Report = core.Report
	// Circuit is the ARQ circuit IR.
	Circuit = circuit.Circuit
	// Job is a circuit mapped onto a machine.
	Job = arq.Job
	// TechParams is one technology parameter set (Table 1).
	TechParams = iontrap.Params
	// ShorResources is one row of Table 2.
	ShorResources = shor.Resources
	// ThresholdPoint is one Figure-7 Monte Carlo sample.
	ThresholdPoint = threshold.Point
	// LinkModel is the Figure-9 repeater-channel model.
	LinkModel = teleport.LinkParams
	// Fig9Point is one Figure-9 series sample.
	Fig9Point = teleport.Figure9Point
	// BandwidthResult is one Section-5 scheduler experiment row.
	BandwidthResult = netsim.BandwidthResult
	// State is an n-qubit stabilizer state (the ARQ backend).
	State = stabilizer.State
	// ECLatencySummary reports the Equation-1 headline latencies.
	ECLatencySummary = ft.Summary
)

// Machine construction.

// NewMachine builds a QLA machine with the given logical-qubit capacity.
func NewMachine(logicalQubits int, opts ...MachineOption) (*Machine, error) {
	return core.New(logicalQubits, opts...)
}

// WithParams selects the technology parameter set (default ExpectedParams).
func WithParams(p TechParams) MachineOption { return core.WithParams(p) }

// WithLevel selects the recursion level (default 2).
func WithLevel(level int) MachineOption { return core.WithLevel(level) }

// WithBandwidth selects the channel bandwidth (default 2).
func WithBandwidth(b int) MachineOption { return core.WithBandwidth(b) }

// Technology parameters (Table 1).

// CurrentParams returns the experimentally achieved failure rates.
func CurrentParams() TechParams { return iontrap.Current() }

// ExpectedParams returns the projected failure rates used throughout the
// paper's evaluation.
func ExpectedParams() TechParams { return iontrap.Expected() }

// Circuits and ARQ.

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseCircuit reads the .qc text format.
func ParseCircuit(r io.Reader) (*Circuit, error) { return circuit.Parse(r) }

// NewState returns the |0…0⟩ stabilizer state on n qubits.
func NewState(n int) *State { return stabilizer.New(n) }

// NewJob maps a circuit onto a fresh machine sized to fit it.
func NewJob(c *Circuit, opts ...MachineOption) (*Job, error) {
	return arq.NewJob(c, opts...)
}

// ParseJob parses a .qc circuit and maps it onto a machine.
func ParseJob(r io.Reader, opts ...MachineOption) (*Job, error) {
	return arq.Parse(r, opts...)
}

// The Engine front door. Every experiment below (and more — see
// EXPERIMENTS.md) is registered by name and runs through
// Engine.Run(ctx, Spec) with a JSON-round-trippable Spec.

type (
	// Engine executes experiment Specs; one instance serves any number
	// of concurrent Run calls.
	Engine = engine.Engine
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// Spec is the JSON-(de)serializable description of one run.
	Spec = engine.Spec
	// MachineSpec selects the machine configuration inside a Spec.
	MachineSpec = engine.MachineSpec
	// Result carries an experiment's typed data rows, timing metadata
	// and the seed used.
	Result = engine.Result
	// Experiment is one registered entry point.
	Experiment = engine.Experiment
	// ExperimentParams carries experiment parameters by name.
	ExperimentParams = engine.Params
)

// NewEngine builds the experiment engine.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithParallelism bounds the worker-pool width of Monte Carlo
// experiments (0, the default, means GOMAXPROCS). Results are
// bit-identical at any parallelism for a fixed seed.
func WithParallelism(n int) EngineOption { return engine.WithParallelism(n) }

// Experiments returns every registered experiment in registration order.
func Experiments() []*Experiment { return engine.Experiments() }

// Lookup resolves an experiment name or alias, case-insensitively.
func Lookup(name string) (*Experiment, bool) { return engine.Lookup(name) }

// ReportResult renders a Result for humans (the experiment's registered
// formatter, falling back to indented JSON).
func ReportResult(w io.Writer, res Result) error { return engine.Report(w, res) }

// ReadSpecFile parses a JSON Spec from a file path ("-" reads standard
// input).
func ReadSpecFile(path string) (Spec, error) { return engine.ReadSpecFile(path) }

// DecodeSpec parses a JSON Spec strictly: unknown fields and trailing
// data are rejected, and malformed input returns an error, never a
// panic.
func DecodeSpec(raw []byte) (Spec, error) { return engine.DecodeSpec(raw) }

// CanonicalizeSpec returns the canonical form of a Spec: aliases
// resolved to registry names, parameters fully resolved (defaults and
// seeds included), machine defaults made explicit. It validates exactly
// as Engine.Run does.
func CanonicalizeSpec(spec Spec) (Spec, error) { return engine.Canonicalize(spec) }

// SpecHash returns the content address of a Spec — the hex SHA-256 of
// its canonical JSON. Equivalent spellings of the same run hash equal;
// the qlaserve front end caches Result bytes under this key.
func SpecHash(spec Spec) (string, error) { return engine.SpecHash(spec) }

// Batch sweeps: one base Spec fanned out over a machine/parameter grid
// (the quant-ph/0604070 evaluation shape). The same expansion powers
// the `machine-sweep` registry experiment, `qlabench -sweep`, and
// qlaserve's async job surface (POST /v1/sweeps).

type (
	// SweepSpec describes one sweep: a base Spec plus axes over machine
	// fields and parameters.
	SweepSpec = sweep.Spec
	// SweepAxis is one grid dimension of a SweepSpec.
	SweepAxis = sweep.Axis
	// SweepResult aggregates a sweep run: per-point status, timing,
	// cache provenance and Result payloads, with table/CSV views.
	SweepResult = sweep.Result
	// SweepProgress is the monotonic per-point progress snapshot
	// delivered to RunSweep's callback.
	SweepProgress = sweep.Progress
)

// DecodeSweepSpec parses a JSON SweepSpec strictly (unknown fields and
// trailing data rejected; malformed input errors, never panics).
func DecodeSweepSpec(raw []byte) (SweepSpec, error) { return sweep.DecodeSpec(raw) }

// ReadSweepFile parses a JSON SweepSpec from a file path ("-" reads
// standard input).
func ReadSweepFile(path string) (SweepSpec, error) { return sweep.ReadFile(path) }

// SweepHash returns the content address of a SweepSpec — the hex
// SHA-256 of its canonical encoding, which doubles as the qlaserve job
// ID. Expansion validates fully: a sweep that hashes is a sweep that
// runs.
func SweepHash(s SweepSpec) (string, error) {
	sw, err := sweep.Expand(s)
	if err != nil {
		return "", err
	}
	return sw.Hash, nil
}

// RunSweep expands s and executes every grid point on eng, calling
// progress (when non-nil) after each point completes. Per-point
// failures are recorded in the SweepResult; only an invalid sweep or a
// cancelled context fails the call.
func RunSweep(ctx context.Context, eng *Engine, s SweepSpec, progress func(SweepProgress)) (*SweepResult, error) {
	sw, err := sweep.Expand(s)
	if err != nil {
		return nil, err
	}
	r := &sweep.Runner{Engine: eng}
	return r.Run(ctx, sw, progress)
}

// EngineScheduler allocates Monte Carlo worker slots from a budget
// shared across concurrent Run calls.
type EngineScheduler = engine.Scheduler

// WorkerPool is a process-wide FIFO worker budget implementing
// EngineScheduler; see NewWorkerPool.
type WorkerPool = sched.Pool

// NewWorkerPool builds a WorkerPool with the given slot capacity
// (capacity <= 0 means GOMAXPROCS).
func NewWorkerPool(capacity int) *WorkerPool { return sched.New(capacity) }

// WithScheduler makes every Engine.Run acquire its worker-pool width
// from s instead of taking the full WithParallelism (or GOMAXPROCS)
// width unconditionally, so concurrent runs share a global budget.
func WithScheduler(s EngineScheduler) EngineOption { return engine.WithScheduler(s) }

// Experiments (see EXPERIMENTS.md for the paper-vs-measured record)
// run through Engine.Run; the helpers below cover the model pieces that
// are not registry experiments.

// EstimateShor sizes Shor's algorithm for an arbitrary modulus width.
func EstimateShor(nBits int, p TechParams) (ShorResources, error) {
	return shor.Estimate(nBits, p)
}

// Figure7Errors is the paper's Figure-7 sweep range.
var Figure7Errors = threshold.Figure7Errors

// DefaultLink returns the calibrated Figure-9 repeater-channel model.
func DefaultLink() LinkModel { return teleport.DefaultLinkParams() }

// Arithmetic circuits (Section 5 workload components).

type (
	// AdderMetrics measures one explicit adder circuit.
	AdderMetrics = adder.Metrics
	// AdderComparison pairs ripple vs lookahead at one width.
	AdderComparison = adder.Comparison
)

// ModAddMetrics measures one modular-adder circuit (the VBE
// construction from four adder passes — the building block the paper's
// modular-exponentiation count is made of).
type ModAddMetrics = modarith.Metrics

// MeasureModAdd builds and measures a verified modular adder for the
// given width and modulus. useCLA selects the carry-lookahead
// subroutine; false selects the ripple baseline.
func MeasureModAdd(nBits int, modulus uint64, useCLA bool) ModAddMetrics {
	kind := modarith.Ripple
	if useCLA {
		kind = modarith.CLA
	}
	return modarith.Measure(nBits, modulus, kind)
}

// Error-correcting code catalog (Section 3/4.1.3 extensibility).

type (
	// Code is an [[n,k,d]] stabilizer code definition.
	Code = codes.Code
	// CodeCost is the syndrome-extraction bill of a code.
	CodeCost = codes.ECCost
)

// CodeCatalog returns the implemented codes: both 3-qubit repetition
// codes, the perfect [[5,1,3]], Steane's [[7,1,3]] and Shor's [[9,1,3]].
func CodeCatalog() []*Code { return codes.All() }

// QCCD physical simulation (Figures 2-4 substrate).

type (
	// ShuttleSim is the discrete-event QCCD substrate simulator.
	ShuttleSim = qccd.Sim
	// ShuttleGrid is a QCCD cell map.
	ShuttleGrid = qccd.Grid
	// TransversalReport is an executed inter-block transversal gate.
	TransversalReport = qccd.TransversalReport
)

// NewShuttleSim builds a QCCD simulator over a cell grid.
func NewShuttleSim(g *ShuttleGrid, p TechParams) *ShuttleSim { return qccd.NewSim(g, p) }

// TwoBlockGrid builds the canonical two-block shuttle geometry.
func TwoBlockGrid(ionsPerBlock, channelCells int) *ShuttleGrid {
	return qccd.TwoBlockGrid(ionsPerBlock, channelCells)
}

// RunTransversalGate executes a full inter-block transversal gate on
// the QCCD simulator and reports measured vs analytic cost.
func RunTransversalGate(ionsPerBlock, channelCells int, p TechParams) (TransversalReport, error) {
	return qccd.InterBlockTransversalGate(ionsPerBlock, channelCells, p)
}

// Gate-level interconnect Monte Carlo (Section 4.2 validation).

type (
	// ChainConfig parameterizes the repeater-chain Monte Carlo.
	ChainConfig = commsim.ChainConfig
	// ChainResult is a repeater-chain Monte Carlo outcome.
	ChainResult = commsim.ChainResult
)

// Classical control (Section 6 resource management).

// ControlBudget is the classical-resource bill of a pulse schedule.
type ControlBudget = control.Budget

// ControlOption configures AnalyzeControl.
type ControlOption = control.Option

// WithEventWindow sets the sliding window (in seconds) used for the
// peak control-event rate; non-positive keeps the 10 µs default.
func WithEventWindow(seconds float64) ControlOption {
	return control.WithEventWindow(seconds)
}

// AnalyzeControl computes laser, detector and event-rate requirements
// for a job's pulse schedule, with SIMD laser grouping.
func AnalyzeControl(j *Job, opts ...ControlOption) ControlBudget {
	return control.AnalyzeSchedule(j.Lower(), opts...)
}

// Multi-chip scaling (Section 6 future work).

type (
	// ChipPartition is a multi-chip plan for one problem size.
	ChipPartition = multichip.Partition
	// PhotonicLink characterizes one inter-chip entanglement link.
	PhotonicLink = multichip.LinkParams
)

// DefaultPhotonicLink returns mid-2000s heralded-link parameters.
func DefaultPhotonicLink() PhotonicLink { return multichip.DefaultLinkParams() }

// PlanMultichip partitions an N-bit factorization machine across chips
// bounded by maxEdgeCM and sizes the photonic links per boundary.
func PlanMultichip(nBits int, maxEdgeCM float64, maxLinks int, link PhotonicLink, p TechParams) (ChipPartition, error) {
	return multichip.Plan(nBits, maxEdgeCM, maxLinks, link, p)
}
