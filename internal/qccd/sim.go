package qccd

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"qla/internal/iontrap"
)

// IonKind distinguishes data ions from sympathetic-cooling ions.
type IonKind uint8

const (
	// Data ions carry quantum state.
	Data IonKind = iota
	// Cooling ions absorb vibrational energy and are never measured.
	Cooling
)

// Ion is one trapped ion on the grid.
type Ion struct {
	ID   int
	Kind IonKind
	// Pos is the ion's current cell.
	Pos Pos
	// Heat is the accumulated motional heating since the last
	// sympathetic recooling, in model units (cells moved).
	Heat float64
}

// Stats aggregates simulator activity.
type Stats struct {
	// Moves is the number of completed shuttles.
	Moves int
	// Cells is the total number of cells traversed.
	Cells int
	// Corners is the total number of direction changes charged.
	Corners int
	// Stalls counts shuttles delayed by a reservation conflict.
	Stalls int
	// StallSeconds is the total time lost to conflicts.
	StallSeconds float64
	// Gates1, Gates2, Measures, Cools count physical operations.
	Gates1, Gates2, Measures, Cools int
}

// Errors returned by simulator operations.
var (
	// ErrBlocked reports that no route exists between the endpoints.
	ErrBlocked = errors.New("qccd: no route between endpoints")
	// ErrOccupied reports a destination already holding an ion.
	ErrOccupied = errors.New("qccd: destination cell occupied")
	// ErrTooHot reports a gate attempted on an ion above the heating
	// threshold; it must be sympathetically recooled first.
	ErrTooHot = errors.New("qccd: ion too hot for a gate")
	// ErrNotAdjacent reports a two-ion operation on non-neighbouring
	// ions.
	ErrNotAdjacent = errors.New("qccd: ions not adjacent")
	// ErrCongested reports that a shuttle could not be scheduled within
	// the retry budget.
	ErrCongested = errors.New("qccd: channel congested beyond retry budget")
)

// HeatModel sets the motional-heating calibration. The paper notes
// corner turning "adds additional motional heating" and prices a turn
// at a 10 µs split; it does not publish heating magnitudes, so these
// are calibration knobs (see DESIGN.md §6): heating accrues per cell
// moved and per corner turned, and a gate requires heat ≤ MaxGateHeat.
type HeatModel struct {
	PerCell, PerCorner, MaxGateHeat float64
}

// DefaultHeatModel allows roughly one block-length shuttle (12 cells,
// 2 corners per the design rule) between recoolings.
func DefaultHeatModel() HeatModel {
	return HeatModel{PerCell: 1, PerCorner: 5, MaxGateHeat: 25}
}

type interval struct {
	start, end float64
	ion        int
}

// Sim is a discrete-event QCCD simulator: each ion has its own clock,
// shuttles claim space-time reservations on every cell they traverse,
// conflicting shuttles stall until the channel clears, and all
// latencies come from the Table-1 technology parameters.
type Sim struct {
	grid *Grid
	p    iontrap.Params
	heat HeatModel

	ions []*Ion
	// occ maps cells to parked ion IDs.
	occ map[Pos]int
	// busy is the per-ion clock: the time the ion is next free.
	busy []float64
	// res holds transit reservations per cell, kept sorted by start.
	res map[Pos][]interval

	stats Stats
}

// NewSim builds a simulator over the grid with Table-1 parameters.
func NewSim(g *Grid, p iontrap.Params) *Sim {
	return &Sim{
		grid: g,
		p:    p,
		heat: DefaultHeatModel(),
		occ:  make(map[Pos]int),
		res:  make(map[Pos][]interval),
	}
}

// Stats returns a copy of the activity counters.
func (s *Sim) Stats() Stats { return s.stats }

// AddIon places a new ion on a passable, unoccupied cell.
func (s *Sim) AddIon(k IonKind, at Pos) (int, error) {
	if !s.grid.Passable(at.X, at.Y) {
		return 0, fmt.Errorf("qccd: cell (%d,%d) not passable", at.X, at.Y)
	}
	if _, taken := s.occ[at]; taken {
		return 0, ErrOccupied
	}
	id := len(s.ions)
	s.ions = append(s.ions, &Ion{ID: id, Kind: k, Pos: at})
	s.busy = append(s.busy, 0)
	s.occ[at] = id
	return id, nil
}

// Ion returns a copy of the ion's state.
func (s *Sim) Ion(id int) Ion { return *s.ions[id] }

// Makespan returns the completion time of the latest operation.
func (s *Sim) Makespan() float64 {
	m := 0.0
	for _, b := range s.busy {
		if b > m {
			m = b
		}
	}
	return m
}

// --- routing ------------------------------------------------------------

var dirs = []Pos{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}}

type routeNode struct {
	pos  Pos
	dir  int // index into dirs, -1 at the source
	cost float64
	path int // heap bookkeeping
}

type routeHeap []*routeNode

func (h routeHeap) Len() int            { return len(h) }
func (h routeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h routeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *routeHeap) Push(x interface{}) { *h = append(*h, x.(*routeNode)) }
func (h *routeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Route finds a minimum-time path from `from` to `to` avoiding cells
// parked on by other ions (the moving ion's own cell is free). It
// returns the path including both endpoints and the number of corner
// turns. Cost per step is the per-cell move time plus the corner
// penalty on direction changes (Dijkstra over position×heading).
func (s *Sim) Route(from, to Pos, mover int) ([]Pos, int, error) {
	if !s.grid.Passable(from.X, from.Y) || !s.grid.Passable(to.X, to.Y) {
		return nil, 0, ErrBlocked
	}
	if from == to {
		return []Pos{from}, 0, nil
	}
	tMove := s.p.Time[iontrap.OpMoveCell]
	tCorner := s.p.Time[iontrap.OpCorner]

	type key struct {
		pos Pos
		dir int
	}
	dist := map[key]float64{}
	prev := map[key]key{}
	h := &routeHeap{{pos: from, dir: -1}}
	dist[key{from, -1}] = 0
	var goal key
	found := false
	for h.Len() > 0 {
		cur := heap.Pop(h).(*routeNode)
		k := key{cur.pos, cur.dir}
		if d, ok := dist[k]; ok && cur.cost > d {
			continue
		}
		if cur.pos == to {
			goal, found = k, true
			break
		}
		for di, d := range dirs {
			np := Pos{X: cur.pos.X + d.X, Y: cur.pos.Y + d.Y}
			if !s.grid.Passable(np.X, np.Y) {
				continue
			}
			if owner, parked := s.occ[np]; parked && owner != mover && np != to {
				continue
			}
			cost := cur.cost + tMove
			if cur.dir >= 0 && cur.dir != di {
				cost += tCorner
			}
			nk := key{np, di}
			if old, ok := dist[nk]; !ok || cost < old {
				dist[nk] = cost
				prev[nk] = k
				heap.Push(h, &routeNode{pos: np, dir: di, cost: cost})
			}
		}
	}
	if !found {
		return nil, 0, ErrBlocked
	}
	if owner, parked := s.occ[to]; parked && owner != mover {
		return nil, 0, ErrOccupied
	}
	var path []Pos
	corners := 0
	for k := goal; ; k = prev[k] {
		path = append(path, k.pos)
		p, ok := prev[k]
		if !ok {
			break
		}
		if p.dir >= 0 && p.dir != k.dir {
			corners++
		}
	}
	// Reverse into source-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, corners, nil
}

// --- shuttling ------------------------------------------------------------

const maxScheduleRetries = 512

// ShuttleResult reports one completed shuttle.
type ShuttleResult struct {
	// End is the completion time in seconds.
	End float64
	// Cells is the number of cells traversed.
	Cells int
	// Corners is the number of direction changes charged.
	Corners int
	// Stalled reports whether a reservation conflict delayed the start.
	Stalled bool
}

// Shuttle moves an ion along a minimum-time route to the destination,
// claiming space-time reservations for every traversed cell. If the
// route conflicts with a previously scheduled transit, the start is
// delayed until the conflicting reservation clears (counted as a
// stall).
func (s *Sim) Shuttle(id int, to Pos) (ShuttleResult, error) {
	ion := s.ions[id]
	if ion.Pos == to {
		return ShuttleResult{End: s.busy[id]}, nil
	}
	path, corners, err := s.Route(ion.Pos, to, id)
	if err != nil {
		return ShuttleResult{}, err
	}
	tMove := s.p.Time[iontrap.OpMoveCell]
	tCorner := s.p.Time[iontrap.OpCorner]
	tSplit := s.p.Time[iontrap.OpSplit]

	start := s.busy[id]
	stalled := false
	for attempt := 0; ; attempt++ {
		if attempt >= maxScheduleRetries {
			return ShuttleResult{}, ErrCongested
		}
		conflict, again := s.tryReserve(id, path, start, tSplit, tMove, tCorner)
		if !again {
			break
		}
		if conflict > start {
			if !stalled {
				s.stats.Stalls++
				stalled = true
			}
			s.stats.StallSeconds += conflict - start
			start = conflict
		} else {
			start += tMove // defensive nudge; conflicts always advance
		}
	}

	elapsed := tSplit + float64(len(path)-1)*tMove + float64(corners)*tCorner
	end := start + elapsed
	delete(s.occ, ion.Pos)
	ion.Pos = to
	s.occ[to] = id
	ion.Heat += float64(len(path)-1)*s.heat.PerCell + float64(corners)*s.heat.PerCorner
	s.busy[id] = end
	s.stats.Moves++
	s.stats.Cells += len(path) - 1
	s.stats.Corners += corners
	return ShuttleResult{End: end, Cells: len(path) - 1, Corners: corners, Stalled: stalled}, nil
}

// tryReserve attempts to claim the path starting at time start. On a
// conflict it returns the earliest time the blocking reservation clears
// and again=true; on success it records the reservations.
func (s *Sim) tryReserve(id int, path []Pos, start, tSplit, tMove, tCorner float64) (conflictEnd float64, again bool) {
	// Timeline: the split occupies the source cell, then each step
	// enters the next cell. Corner dwell is charged in the cell where
	// the direction changes. We approximate per-cell occupancy as
	// [enter, enter+step] with corner dwell extending the stay.
	type claim struct {
		cell       Pos
		from, till float64
	}
	claims := make([]claim, 0, len(path)+1)
	t := start
	claims = append(claims, claim{path[0], t, t + tSplit})
	t += tSplit
	prevDir := Pos{}
	first := true
	for i := 1; i < len(path); i++ {
		d := Pos{X: path[i].X - path[i-1].X, Y: path[i].Y - path[i-1].Y}
		dwell := tMove
		if !first && d != prevDir {
			dwell += tCorner
		}
		claims = append(claims, claim{path[i], t, t + dwell})
		t += dwell
		prevDir = d
		first = false
	}
	for _, cl := range claims {
		for _, iv := range s.res[cl.cell] {
			if iv.ion == id {
				continue
			}
			if cl.from < iv.end && iv.start < cl.till {
				return iv.end, true
			}
		}
	}
	for _, cl := range claims {
		ivs := append(s.res[cl.cell], interval{cl.from, cl.till, id})
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		s.res[cl.cell] = ivs
	}
	return 0, false
}

// --- physical operations ---------------------------------------------------

// Gate2 applies a two-qubit gate between adjacent ions (a linear chain
// across neighbouring cells). Both must be cool enough; the gate starts
// when both are free.
func (s *Sim) Gate2(a, b int) (float64, error) {
	ia, ib := s.ions[a], s.ions[b]
	if !ia.Pos.Adjacent(ib.Pos) {
		return 0, ErrNotAdjacent
	}
	if ia.Heat > s.heat.MaxGateHeat || ib.Heat > s.heat.MaxGateHeat {
		return 0, ErrTooHot
	}
	start := math.Max(s.busy[a], s.busy[b])
	end := start + s.p.Time[iontrap.OpDouble]
	s.busy[a], s.busy[b] = end, end
	s.stats.Gates2++
	return end, nil
}

// Measure reads an ion out by resonance fluorescence.
func (s *Sim) Measure(id int) (float64, error) {
	if s.ions[id].Kind != Data {
		return 0, fmt.Errorf("qccd: measuring a cooling ion")
	}
	s.busy[id] += s.p.Time[iontrap.OpMeasure]
	s.stats.Measures++
	return s.busy[id], nil
}

// Cool sympathetically recools a data ion against an adjacent cooling
// ion, resetting its accumulated heat.
func (s *Sim) Cool(id, coolerID int) (float64, error) {
	ion, cooler := s.ions[id], s.ions[coolerID]
	if cooler.Kind != Cooling {
		return 0, fmt.Errorf("qccd: ion %d is not a cooling ion", coolerID)
	}
	if !ion.Pos.Adjacent(cooler.Pos) {
		return 0, ErrNotAdjacent
	}
	start := math.Max(s.busy[id], s.busy[coolerID])
	end := start + s.p.Time[iontrap.OpCool]
	s.busy[id], s.busy[coolerID] = end, end
	ion.Heat = 0
	s.stats.Cools++
	return end, nil
}
