// Package circuit provides the quantum-circuit intermediate representation
// used by ARQ: a gate list over logical or physical qubits, with builders,
// an ASAP scheduler, latency accounting against ion-trap technology
// parameters, and execution on the stabilizer backend.
//
// The paper: "ARQ's input is based on the circuit model of quantum
// computation, which is the most common representation of quantum
// applications".
package circuit

import (
	"fmt"
	"strings"

	"qla/internal/iontrap"
	"qla/internal/stabilizer"
)

// OpType enumerates the operations ARQ understands. All unitaries are
// Clifford so the whole IR is simulable in polynomial time.
type OpType int

const (
	// Prep0 initializes a qubit to |0⟩.
	Prep0 OpType = iota
	// PrepPlus initializes a qubit to |+⟩.
	PrepPlus
	// H is the Hadamard gate.
	H
	// S is the phase gate diag(1,i).
	S
	// Sdg is the inverse phase gate.
	Sdg
	// X, Y, Z are the Pauli gates.
	X
	Y
	Z
	// CNOT is the controlled-NOT (Q[0] control, Q[1] target).
	CNOT
	// CZ is the controlled-Z.
	CZ
	// SWAP exchanges two qubits.
	SWAP
	// MeasureZ measures in the computational basis.
	MeasureZ
	// MeasureX measures in the X basis (H then MeasureZ).
	MeasureX
	// Move ballistically shuttles an ion; Cells/Corners give the path.
	Move
	// Cool is a sympathetic recooling step.
	Cool
	// Idle is an explicit wait of one single-gate slot (memory error site).
	Idle

	numOpTypes
)

var opNames = [...]string{
	Prep0: "prep0", PrepPlus: "prep+", H: "h", S: "s", Sdg: "sdg",
	X: "x", Y: "y", Z: "z", CNOT: "cnot", CZ: "cz", SWAP: "swap",
	MeasureZ: "measure", MeasureX: "measurex", Move: "move", Cool: "cool",
	Idle: "idle",
}

// String returns the textual mnemonic of the op type.
func (t OpType) String() string {
	if t >= 0 && int(t) < len(opNames) {
		return opNames[t]
	}
	return fmt.Sprintf("OpType(%d)", int(t))
}

// IsTwoQubit reports whether the op type takes two qubit operands.
func (t OpType) IsTwoQubit() bool { return t == CNOT || t == CZ || t == SWAP }

// IsMeasurement reports whether the op produces a classical bit.
func (t OpType) IsMeasurement() bool { return t == MeasureZ || t == MeasureX }

// OpClass maps the op type to its physical cost class.
func (t OpType) OpClass() iontrap.OpClass {
	switch t {
	case Prep0, PrepPlus:
		return iontrap.OpPrep
	case H, S, Sdg, X, Y, Z:
		return iontrap.OpSingle
	case CNOT, CZ, SWAP:
		return iontrap.OpDouble
	case MeasureZ, MeasureX:
		return iontrap.OpMeasure
	case Move:
		return iontrap.OpMoveCell
	case Cool:
		return iontrap.OpCool
	case Idle:
		return iontrap.OpMemory
	default:
		panic(fmt.Sprintf("circuit: no op class for %v", t))
	}
}

// Op is one operation. For unary ops Q[1] is -1.
type Op struct {
	Type    OpType
	Q       [2]int
	Cells   int    // Move: cells traversed
	Corners int    // Move: corner turns
	Label   string // optional annotation carried into pulse listings
}

// Qubits returns the operand qubits (1 or 2 of them).
func (o Op) Qubits() []int {
	if o.Q[1] < 0 {
		return []int{o.Q[0]}
	}
	return []int{o.Q[0], o.Q[1]}
}

func (o Op) String() string {
	switch {
	case o.Type == Move:
		return fmt.Sprintf("move %d cells=%d corners=%d", o.Q[0], o.Cells, o.Corners)
	case o.Q[1] >= 0:
		return fmt.Sprintf("%v %d %d", o.Type, o.Q[0], o.Q[1])
	default:
		return fmt.Sprintf("%v %d", o.Type, o.Q[0])
	}
}

// Circuit is an ordered list of operations over N qubits.
type Circuit struct {
	N   int
	Ops []Op
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n <= 0 {
		panic("circuit: number of qubits must be positive")
	}
	return &Circuit{N: n}
}

func (c *Circuit) check(qs ...int) {
	for _, q := range qs {
		if q < 0 || q >= c.N {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.N))
		}
	}
}

func (c *Circuit) add1(t OpType, q int) *Circuit {
	c.check(q)
	c.Ops = append(c.Ops, Op{Type: t, Q: [2]int{q, -1}})
	return c
}

func (c *Circuit) add2(t OpType, a, b int) *Circuit {
	c.check(a, b)
	if a == b {
		panic("circuit: two-qubit op with identical operands")
	}
	c.Ops = append(c.Ops, Op{Type: t, Q: [2]int{a, b}})
	return c
}

// Builder methods (chainable).

// Prep0 appends |0⟩ preparation of q.
func (c *Circuit) Prep0(q int) *Circuit { return c.add1(Prep0, q) }

// PrepPlus appends |+⟩ preparation of q.
func (c *Circuit) PrepPlus(q int) *Circuit { return c.add1(PrepPlus, q) }

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit { return c.add1(H, q) }

// S appends a phase gate on q.
func (c *Circuit) S(q int) *Circuit { return c.add1(S, q) }

// Sdg appends an inverse phase gate on q.
func (c *Circuit) Sdg(q int) *Circuit { return c.add1(Sdg, q) }

// X appends a Pauli X on q.
func (c *Circuit) X(q int) *Circuit { return c.add1(X, q) }

// Y appends a Pauli Y on q.
func (c *Circuit) Y(q int) *Circuit { return c.add1(Y, q) }

// Z appends a Pauli Z on q.
func (c *Circuit) Z(q int) *Circuit { return c.add1(Z, q) }

// CNOT appends a controlled-NOT (control ctl, target tgt).
func (c *Circuit) CNOT(ctl, tgt int) *Circuit { return c.add2(CNOT, ctl, tgt) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) *Circuit { return c.add2(CZ, a, b) }

// SWAP appends a swap.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.add2(SWAP, a, b) }

// MeasureZ appends a computational-basis measurement of q.
func (c *Circuit) MeasureZ(q int) *Circuit { return c.add1(MeasureZ, q) }

// MeasureX appends an X-basis measurement of q.
func (c *Circuit) MeasureX(q int) *Circuit { return c.add1(MeasureX, q) }

// Move appends a ballistic move of q across the given path.
func (c *Circuit) Move(q, cells, corners int) *Circuit {
	c.check(q)
	if cells < 0 || corners < 0 {
		panic("circuit: negative move path")
	}
	c.Ops = append(c.Ops, Op{Type: Move, Q: [2]int{q, -1}, Cells: cells, Corners: corners})
	return c
}

// Cool appends a recooling step on q.
func (c *Circuit) Cool(q int) *Circuit { return c.add1(Cool, q) }

// Idle appends an explicit wait slot on q.
func (c *Circuit) Idle(q int) *Circuit { return c.add1(Idle, q) }

// Append concatenates another circuit over the same qubit count.
func (c *Circuit) Append(other *Circuit) *Circuit {
	if other.N != c.N {
		panic("circuit: Append size mismatch")
	}
	c.Ops = append(c.Ops, other.Ops...)
	return c
}

// AppendMapped concatenates other, relabelling its qubit i to target[i].
func (c *Circuit) AppendMapped(other *Circuit, target []int) *Circuit {
	if len(target) != other.N {
		panic("circuit: AppendMapped target size mismatch")
	}
	c.check(target...)
	for _, op := range other.Ops {
		mapped := op
		mapped.Q[0] = target[op.Q[0]]
		if op.Q[1] >= 0 {
			mapped.Q[1] = target[op.Q[1]]
		}
		c.Ops = append(c.Ops, mapped)
	}
	return c
}

// Measurements returns the number of measurement ops.
func (c *Circuit) Measurements() int {
	n := 0
	for _, op := range c.Ops {
		if op.Type.IsMeasurement() {
			n++
		}
	}
	return n
}

// Layers partitions the ops into ASAP time-steps: each op is placed in the
// earliest layer after the last op touching any of its qubits.
func (c *Circuit) Layers() [][]Op {
	level := make([]int, c.N)
	var layers [][]Op
	for _, op := range c.Ops {
		l := 0
		for _, q := range op.Qubits() {
			if level[q] > l {
				l = level[q]
			}
		}
		for len(layers) <= l {
			layers = append(layers, nil)
		}
		layers[l] = append(layers[l], op)
		for _, q := range op.Qubits() {
			level[q] = l + 1
		}
	}
	return layers
}

// Depth returns the number of ASAP layers.
func (c *Circuit) Depth() int { return len(c.Layers()) }

// Duration returns the critical-path latency of the circuit in seconds
// under the given technology parameters, assuming unlimited classical
// control parallelism (ops on disjoint qubits overlap).
func (c *Circuit) Duration(p iontrap.Params) float64 {
	avail := make([]float64, c.N)
	total := 0.0
	for _, op := range c.Ops {
		start := 0.0
		for _, q := range op.Qubits() {
			if avail[q] > start {
				start = avail[q]
			}
		}
		var dur float64
		if op.Type == Move {
			dur = p.MoveTime(op.Cells, op.Corners)
		} else {
			dur = p.Time[op.Type.OpClass()]
		}
		end := start + dur
		for _, q := range op.Qubits() {
			avail[q] = end
		}
		if end > total {
			total = end
		}
	}
	return total
}

// Run executes the circuit on a fresh stabilizer state and returns the
// measurement outcomes in program order.
func (c *Circuit) Run(seed uint64) []int {
	return c.RunOn(stabilizer.NewSeeded(c.N, seed))
}

// RunOn executes the circuit on the supplied state (which must have at
// least N qubits) and returns measurement outcomes in program order.
func (c *Circuit) RunOn(s *stabilizer.State) []int {
	if s.N() < c.N {
		panic("circuit: state too small for circuit")
	}
	var out []int
	for _, op := range c.Ops {
		switch op.Type {
		case Prep0:
			s.Reset(op.Q[0])
		case PrepPlus:
			s.Reset(op.Q[0])
			s.H(op.Q[0])
		case H:
			s.H(op.Q[0])
		case S:
			s.S(op.Q[0])
		case Sdg:
			s.Sdg(op.Q[0])
		case X:
			s.X(op.Q[0])
		case Y:
			s.Y(op.Q[0])
		case Z:
			s.Z(op.Q[0])
		case CNOT:
			s.CNOT(op.Q[0], op.Q[1])
		case CZ:
			s.CZ(op.Q[0], op.Q[1])
		case SWAP:
			s.SWAP(op.Q[0], op.Q[1])
		case MeasureZ:
			out = append(out, s.Measure(op.Q[0]))
		case MeasureX:
			s.H(op.Q[0])
			out = append(out, s.Measure(op.Q[0]))
		case Move, Cool, Idle:
			// No logical effect in the noiseless backend.
		default:
			panic(fmt.Sprintf("circuit: cannot execute %v", op.Type))
		}
	}
	return out
}

// String renders the circuit in the .qc text format accepted by Parse.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "qubits %d\n", c.N)
	for _, op := range c.Ops {
		sb.WriteString(op.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
