// Package qccd is a discrete-event simulator of the QCCD ion-trap
// substrate the QLA is built on (Kielpinski–Monroe–Wineland, Figures
// 2–4 of the paper): a 2-D grid of 20 µm cells holding trapped ions
// that are ballistically shuttled from trap to trap through channel
// cells, splitting from chains, turning corners at junctions, heating
// as they move and sympathetically recooling next to coolant ions.
//
// Where internal/layout provides the closed-form geometry (block and
// chip dimensions, analytic move budgets), qccd executes shuttle
// schedules operation by operation: every move claims space-time
// reservations on the cells it traverses, conflicting moves stall, and
// every physical operation advances per-ion clocks by the Table-1
// latencies. The simulator validates the paper's design rules — gates
// need at most two turns under ballistic routing, movement stays local
// within a block — against an executable model rather than arithmetic.
package qccd

import (
	"fmt"
	"strings"

	"qla/internal/tilegrid"
)

// CellKind classifies one 20 µm cell of the substrate.
type CellKind uint8

const (
	// Wall is an electrode or substrate cell ions cannot enter.
	Wall CellKind = iota
	// Trap is a cell that can hold a resting ion (trapping region).
	Trap
	// Channel is a ballistic transport cell ions traverse but do not
	// rest in.
	Channel
)

// String returns the single-character map legend for the cell kind.
func (k CellKind) String() string {
	switch k {
	case Wall:
		return "#"
	case Trap:
		return "T"
	case Channel:
		return "."
	default:
		return "?"
	}
}

// Grid is the static cell map of a QCCD substrate region.
type Grid struct {
	w, h  int
	cells []CellKind
}

// NewGrid returns a w×h grid of Wall cells.
func NewGrid(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("qccd: non-positive grid %dx%d", w, h))
	}
	return &Grid{w: w, h: h, cells: make([]CellKind, w*h)}
}

// W returns the grid width in cells.
func (g *Grid) W() int { return g.w }

// H returns the grid height in cells.
func (g *Grid) H() int { return g.h }

// InBounds reports whether (x,y) lies on the grid.
func (g *Grid) InBounds(x, y int) bool {
	return x >= 0 && x < g.w && y >= 0 && y < g.h
}

// At returns the kind of cell (x,y).
func (g *Grid) At(x, y int) CellKind {
	if !g.InBounds(x, y) {
		panic(fmt.Sprintf("qccd: cell (%d,%d) outside %dx%d grid", x, y, g.w, g.h))
	}
	return g.cells[y*g.w+x]
}

// Set assigns the kind of cell (x,y).
func (g *Grid) Set(x, y int, k CellKind) {
	if !g.InBounds(x, y) {
		panic(fmt.Sprintf("qccd: cell (%d,%d) outside %dx%d grid", x, y, g.w, g.h))
	}
	g.cells[y*g.w+x] = k
}

// Passable reports whether an ion may occupy or traverse the cell.
func (g *Grid) Passable(x, y int) bool {
	return g.InBounds(x, y) && g.At(x, y) != Wall
}

// String renders the grid as an ASCII map, row 0 first.
func (g *Grid) String() string {
	var sb strings.Builder
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			sb.WriteString(g.At(x, y).String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Pos is a cell coordinate — the shared tilegrid coordinate type, so
// qccd cell positions, netsim island nodes and cyclesim tiles agree on
// geometry (Adjacent, Manhattan) and wire format.
type Pos = tilegrid.Coord

// TrapPositions returns the trap cells of a grid in row-major order.
func (g *Grid) TrapPositions() []Pos {
	var out []Pos
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			if g.At(x, y) == Trap {
				out = append(out, Pos{X: x, Y: y})
			}
		}
	}
	return out
}

// TwoBlockGrid builds two trap rows (blocks A and B) of nTraps traps
// each, joined by a straight ballistic channel of the given length —
// the geometry for inter-block transversal gates whose analytic budget
// is layout.InterBlockGateMove. Block A occupies the left trap row,
// block B the right; the blocks' trap rows sit on distinct y so every
// inter-block route turns at least two corners, matching the paper's
// "no single gate will require more than two turns" design rule.
func TwoBlockGrid(nTraps, channelCells int) *Grid {
	if nTraps <= 0 || channelCells < 0 {
		panic("qccd: bad two-block geometry")
	}
	blockW := 2*nTraps + 1
	w := 2*blockW + channelCells + 2
	g := NewGrid(w, 7)
	// Block A trap row at y=2, block B trap row at y=4.
	for x := 1; x <= blockW; x++ {
		g.Set(x, 1, Channel)
		g.Set(x, 2, Channel)
		g.Set(x, 3, Channel)
	}
	for i := 0; i < nTraps; i++ {
		g.Set(2+2*i, 2, Trap)
	}
	bx := blockW + channelCells + 1
	for x := bx; x < bx+blockW && x < w-1; x++ {
		g.Set(x, 3, Channel)
		g.Set(x, 4, Channel)
		g.Set(x, 5, Channel)
	}
	for i := 0; i < nTraps; i++ {
		g.Set(bx+1+2*i, 4, Trap)
	}
	// Connecting channel at y=3.
	for x := 1; x < w-1; x++ {
		if g.At(x, 3) == Wall {
			g.Set(x, 3, Channel)
		}
	}
	return g
}
