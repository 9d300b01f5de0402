package tilegrid_test

import (
	"math"
	"testing"

	"qla/internal/iontrap"
	"qla/internal/netsim"
	"qla/internal/qccd"
	"qla/internal/tilegrid"
)

// The geometry extraction turned qccd.Pos and netsim.Node into aliases
// of tilegrid.Coord. These tests pin simulator outputs recorded before
// the extraction, so any behavioural drift in the shared geometry shows
// up as a diff against the pre-refactor numbers.

func TestAliasesShareCoord(t *testing.T) {
	var c tilegrid.Coord
	var p qccd.Pos = c    // compiles only if Pos aliases Coord
	var n netsim.Node = p // compiles only if Node aliases Coord
	if n != (netsim.Node{}) {
		t.Fatal("zero coordinates differ across aliases")
	}
}

func TestNetsimNumbersUnchanged(t *testing.T) {
	rows, err := netsim.RunBandwidthSweep(20, 20, 25, []int{1, 2, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		bandwidth, scheduled, retries, beats int
		frac, util                           float64
		overlap                              bool
	}{
		{1, 167, 62, 2, 0.835, 0.534868, true},
		{2, 199, 2, 2, 0.995, 0.229605, true},
		{4, 200, 0, 1, 1.0, 0.101974, true},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Bandwidth != w.bandwidth || r.Requests != 200 || r.Scheduled != w.scheduled ||
			r.Retries != w.retries || r.BeatsUsed != w.beats || r.Overlapped != w.overlap {
			t.Errorf("bw=%d row drifted: %+v", w.bandwidth, r)
		}
		if math.Abs(r.ScheduledFrac-w.frac) > 1e-9 || math.Abs(r.Utilization-w.util) > 1e-6 {
			t.Errorf("bw=%d fractions drifted: frac=%.6f util=%.6f, want %.6f/%.6f",
				w.bandwidth, r.ScheduledFrac, r.Utilization, w.frac, w.util)
		}
	}
}

func TestQCCDNumbersUnchanged(t *testing.T) {
	want := []struct {
		sep      int
		makespan float64
		cells    int
	}{
		{12, 7.156e-05, 392},
		{100, 7.332e-05, 1624},
	}
	for _, w := range want {
		rep, err := qccd.InterBlockTransversalGate(7, w.sep, iontrap.Expected())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.Makespan-w.makespan) > 1e-12 {
			t.Errorf("sep=%d makespan = %.6e, want %.6e", w.sep, rep.Makespan, w.makespan)
		}
		if rep.Ions != 7 || rep.MaxCorners != 2 || rep.Stats.Moves != 14 ||
			rep.Stats.Cells != w.cells || rep.Stats.Corners != 28 ||
			rep.Stats.Stalls != 0 || rep.Stats.Gates2 != 7 || rep.Stats.Cools != 7 {
			t.Errorf("sep=%d report drifted: %+v", w.sep, rep)
		}
	}
}
