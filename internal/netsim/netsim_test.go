package netsim

import (
	"math/rand/v2"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, 1); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := New(5, 5, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
	n, err := New(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Directed edges: 2*((W-1)*H + W*(H-1)) = 2*(8+9) = 34.
	if n.Edges() != 34 {
		t.Errorf("edges = %d, want 34", n.Edges())
	}
	if n.TotalLaneCapacity() != 68 {
		t.Errorf("capacity = %d, want 68", n.TotalLaneCapacity())
	}
}

func TestFindPathBasics(t *testing.T) {
	n, _ := New(5, 5, 1)
	p := n.FindPath(Node{X: 0, Y: 0}, Node{X: 3, Y: 0})
	if len(p) != 4 {
		t.Fatalf("path length %d, want 4 nodes", len(p))
	}
	if p[0] != (Node{X: 0, Y: 0}) || p[len(p)-1] != (Node{X: 3, Y: 0}) {
		t.Error("path endpoints wrong")
	}
	// Self path.
	if p := n.FindPath(Node{X: 2, Y: 2}, Node{X: 2, Y: 2}); len(p) != 1 {
		t.Error("self path should be the single node")
	}
	// Out-of-grid.
	if p := n.FindPath(Node{X: -1, Y: 0}, Node{X: 0, Y: 0}); p != nil {
		t.Error("out-of-grid src should fail")
	}
}

func TestCapacityRespected(t *testing.T) {
	// A 2x1 grid has a single undirected adjacency; with bandwidth 1 the
	// directed lane (0,0)->(1,0) fits one path only.
	n, _ := New(2, 1, 1)
	r1 := n.ScheduleGreedy([]Request{{ID: 0, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}}})
	if len(r1.Scheduled) != 1 {
		t.Fatal("first request should schedule")
	}
	r2 := n.ScheduleGreedy([]Request{{ID: 1, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}}})
	if len(r2.Scheduled) != 0 || len(r2.Failed) != 1 {
		t.Error("second request should exhaust the lane and fail")
	}
	// The reverse direction is independent capacity.
	r3 := n.ScheduleGreedy([]Request{{ID: 2, Src: Node{X: 1, Y: 0}, Dst: Node{X: 0, Y: 0}}})
	if len(r3.Scheduled) != 1 {
		t.Error("reverse lane should still be free")
	}
}

func TestPathsRouteAroundCongestion(t *testing.T) {
	// Block the straight east lane; the scheduler should detour.
	n, _ := New(3, 2, 1)
	first := n.ScheduleGreedy([]Request{{ID: 0, Src: Node{X: 0, Y: 0}, Dst: Node{X: 2, Y: 0}}})
	if len(first.Scheduled) != 1 {
		t.Fatal("first path should schedule")
	}
	second := n.ScheduleGreedy([]Request{{ID: 1, Src: Node{X: 0, Y: 0}, Dst: Node{X: 2, Y: 0}}})
	if len(second.Scheduled) != 1 {
		t.Fatal("second path should detour through row 1")
	}
	if len(second.Scheduled[0].Path) <= 3 {
		t.Errorf("detour path has %d nodes, expected longer than direct", len(second.Scheduled[0].Path))
	}
}

func TestUtilizationAccounting(t *testing.T) {
	n, _ := New(2, 1, 2)
	n.ScheduleGreedy([]Request{{ID: 0, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}}})
	// 1 lane used of 4 (2 directed edges × bandwidth 2).
	if got := n.Utilization(); got != 0.25 {
		t.Errorf("utilization = %g, want 0.25", got)
	}
	n.Reset()
	if n.Utilization() != 0 {
		t.Error("Reset should clear utilization")
	}
}

func TestAlternateDestinations(t *testing.T) {
	// Saturate the only lane into the destination, then check the request
	// succeeds via its alternate.
	n, _ := New(3, 1, 1)
	n.ScheduleGreedy([]Request{{ID: 0, Src: Node{X: 1, Y: 0}, Dst: Node{X: 2, Y: 0}}})
	res := n.ScheduleGreedy([]Request{{
		ID: 1, Src: Node{X: 1, Y: 0}, Dst: Node{X: 2, Y: 0},
		AltDst: []Node{{X: 0, Y: 0}},
	}})
	if len(res.Scheduled) != 1 {
		t.Fatal("request should schedule via alternate destination")
	}
	if !res.Scheduled[0].UsedAlt {
		t.Error("schedule should be marked as using the alternate")
	}
	if res.Retries != 1 {
		t.Errorf("retries = %d, want 1", res.Retries)
	}
}

func TestScheduleWindowCarriesFailures(t *testing.T) {
	n, _ := New(2, 1, 1)
	reqs := []Request{
		{ID: 0, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}},
		{ID: 1, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}},
		{ID: 2, Src: Node{X: 0, Y: 0}, Dst: Node{X: 1, Y: 0}},
	}
	win := n.ScheduleWindow(reqs, 5)
	if !win.AllScheduled {
		t.Fatal("three beats should place three conflicting requests")
	}
	if win.BeatsUsed != 3 {
		t.Errorf("beats used = %d, want 3", win.BeatsUsed)
	}
	// Insufficient beats: not all scheduled.
	n2, _ := New(2, 1, 1)
	win = n2.ScheduleWindow(reqs, 2)
	if win.AllScheduled {
		t.Error("two beats cannot place three conflicting requests")
	}
}

func TestToffoliRequestsShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	reqs, err := ToffoliRequests(20, 20, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Each ancilla links to an operand, and the operands link pairwise.
	const perToffoli = ToffoliAncilla + 2
	if len(reqs) != 10*perToffoli {
		t.Fatalf("requests = %d, want %d", len(reqs), 10*perToffoli)
	}
	for _, r := range reqs {
		for _, v := range append([]Node{r.Src, r.Dst}, r.AltDst...) {
			if v.X < 0 || v.X >= 20 || v.Y < 0 || v.Y >= 20 {
				t.Fatalf("request %d touches out-of-grid node %v", r.ID, v)
			}
		}
	}
	if _, err := ToffoliRequests(2, 2, 5, rng); err == nil {
		t.Error("tiny grid should fail")
	}
	if _, err := ToffoliRequests(20, 20, 0, rng); err == nil {
		t.Error("zero Toffolis should fail")
	}
}

func TestBandwidthExperimentPaperClaims(t *testing.T) {
	// scheduler-sweep's defaults: a 20×20 island grid carrying 25
	// concurrent fault-tolerant Toffolis, workload seed 7.
	res, err := RunBandwidthSweep(20, 20, 25, []int{1, 2, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	byB := map[int]BandwidthResult{}
	for _, r := range res {
		byB[r.Bandwidth] = r
	}
	// Bandwidth 2: full overlap with EC, ≈23% first-beat utilization.
	b2 := byB[2]
	if !b2.Overlapped {
		t.Error("bandwidth 2 should hide all communication under the EC window")
	}
	if b2.Utilization < 0.12 || b2.Utilization > 0.40 {
		t.Errorf("bandwidth-2 utilization = %.3f, paper says ≈0.23", b2.Utilization)
	}
	if b2.BeatsUsed > 3 {
		t.Errorf("bandwidth 2 needed %d beats; should be almost single-beat", b2.BeatsUsed)
	}
	// Bandwidth 1 congests: first beat cannot place everything.
	b1 := byB[1]
	if b1.ScheduledFrac >= 0.99 {
		t.Errorf("bandwidth 1 first-beat fraction = %.3f; expected congestion", b1.ScheduledFrac)
	}
	if b1.Utilization <= b2.Utilization {
		t.Error("bandwidth 1 should run hotter than bandwidth 2")
	}
	// Bandwidth 4 is easy: single beat, lower utilization.
	b4 := byB[4]
	if b4.BeatsUsed != 1 || !b4.Overlapped {
		t.Error("bandwidth 4 should schedule in one beat")
	}
	if b4.Utilization >= b2.Utilization {
		t.Error("bandwidth 4 should be cooler than bandwidth 2")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a, err := RunBandwidthSweep(20, 20, 25, []int{2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBandwidthSweep(20, 20, 25, []int{2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("experiment not deterministic: %+v vs %+v", a[0], b[0])
	}
}
