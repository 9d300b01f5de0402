package qccd

import (
	"fmt"
	"strings"
	"testing"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(4, 3)
	if g.W() != 4 || g.H() != 3 {
		t.Fatalf("dims %dx%d", g.W(), g.H())
	}
	if g.At(0, 0) != Wall {
		t.Fatal("new grid should be walls")
	}
	g.Set(1, 1, Trap)
	g.Set(2, 1, Channel)
	if g.At(1, 1) != Trap || g.At(2, 1) != Channel {
		t.Fatal("Set/At mismatch")
	}
	if g.Passable(0, 0) || !g.Passable(1, 1) || !g.Passable(2, 1) {
		t.Fatal("Passable wrong")
	}
	if g.Passable(-1, 0) || g.Passable(4, 0) {
		t.Fatal("out-of-bounds should not be passable")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := "#####\n#T.T#\n#...#\n#####\n"
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != src {
		t.Fatalf("round trip:\n%s\nvs\n%s", g.String(), src)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Parse("##\n###\n"); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := Parse("#x#\n"); err == nil {
		t.Fatal("unknown cell accepted")
	}
}

func TestTrapRowGrid(t *testing.T) {
	g := TrapRowGrid(7)
	traps := g.TrapPositions()
	if len(traps) != 7 {
		t.Fatalf("trap count %d, want 7", len(traps))
	}
	// Every trap must touch at least two channel cells so ions can
	// route past each other (the block's communication investment).
	for _, p := range traps {
		open := 0
		for _, d := range dirs {
			if g.Passable(p.X+d.X, p.Y+d.Y) {
				open++
			}
		}
		if open < 2 {
			t.Fatalf("trap %v has only %d open neighbours", p, open)
		}
	}
	// Border must be sealed.
	for x := 0; x < g.W(); x++ {
		if g.Passable(x, 0) || g.Passable(x, g.H()-1) {
			t.Fatal("border not sealed")
		}
	}
}

func TestTwoBlockGrid(t *testing.T) {
	g := TwoBlockGrid(7, 24)
	traps := g.TrapPositions()
	if len(traps) != 14 {
		t.Fatalf("trap count %d, want 14", len(traps))
	}
	if !strings.Contains(g.String(), "T") {
		t.Fatal("render lost traps")
	}
	// Blocks must be connected: route between first and last trap.
	s := NewSim(g, testParams())
	if _, _, err := s.Route(traps[0], traps[13], -1); err != nil {
		t.Fatalf("blocks disconnected: %v", err)
	}
}

func TestAdjacent(t *testing.T) {
	if !(Pos{X: 1, Y: 1}).Adjacent(Pos{X: 1, Y: 2}) || !(Pos{X: 1, Y: 1}).Adjacent(Pos{X: 0, Y: 1}) {
		t.Fatal("4-neighbours not adjacent")
	}
	if (Pos{X: 1, Y: 1}).Adjacent(Pos{X: 2, Y: 2}) || (Pos{X: 1, Y: 1}).Adjacent(Pos{X: 1, Y: 1}) {
		t.Fatal("diagonal or self adjacency")
	}
}

func TestGridPanics(t *testing.T) {
	cases := []func(){
		func() { NewGrid(0, 3) },
		func() { NewGrid(3, 0) },
		func() { NewGrid(2, 2).At(5, 0) },
		func() { NewGrid(2, 2).Set(0, 5, Trap) },
		func() { TrapRowGrid(0) },
		func() { TwoBlockGrid(0, 5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// The helpers below serve only this package's tests.

// Parse reads the ASCII map format produced by String: '#' wall,
// 'T' trap, '.' channel. All rows must have equal width.
func Parse(s string) (*Grid, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("qccd: empty grid")
	}
	w := len(lines[0])
	g := NewGrid(w, len(lines))
	for y, line := range lines {
		if len(line) != w {
			return nil, fmt.Errorf("qccd: row %d has width %d, want %d", y, len(line), w)
		}
		for x, ch := range line {
			switch ch {
			case '#':
				g.Set(x, y, Wall)
			case 'T':
				g.Set(x, y, Trap)
			case '.':
				g.Set(x, y, Channel)
			default:
				return nil, fmt.Errorf("qccd: unknown cell %q at (%d,%d)", ch, x, y)
			}
		}
	}
	return g, nil
}

// TrapRowGrid builds the canonical single-block test geometry: a row of
// nTraps trap cells at y=1 separated by channel cells, with full
// channel rows above and below so ions can route around each other —
// the "investment in communication channels for ballistic ion movement
// around the physical qubits" of Section 3.
//
// Layout (nTraps=3):
//
//	#.......#
//	#.T.T.T.#
//	#.......#
//
// plus a wall border.
func TrapRowGrid(nTraps int) *Grid {
	if nTraps <= 0 {
		panic("qccd: non-positive trap count")
	}
	w := 2*nTraps + 3
	g := NewGrid(w, 5)
	for x := 1; x < w-1; x++ {
		g.Set(x, 1, Channel)
		g.Set(x, 3, Channel)
	}
	for x := 1; x < w-1; x++ {
		g.Set(x, 2, Channel)
	}
	for i := 0; i < nTraps; i++ {
		g.Set(2+2*i, 2, Trap)
	}
	return g
}
