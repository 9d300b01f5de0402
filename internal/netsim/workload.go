package netsim

import (
	"fmt"
	"math/rand/v2"
)

// The fault-tolerant Toffoli working set (Section 5): three operand
// logical qubits plus six ancilla qubits.
const (
	ToffoliOperands = 3
	ToffoliAncilla  = 6
)

// ToffoliRequests builds the EPR request set of `toffolis` concurrent
// fault-tolerant Toffoli gates on a w×h island grid. Each gate's nine
// logical qubits occupy a contiguous neighbourhood (the scheduler's drift
// optimization keeps interacting qubits adjacent), so requests span one to
// a few islands; alternates list the destination's neighbours.
func ToffoliRequests(w, h, toffolis int, rng *rand.Rand) ([]Request, error) {
	if w < 4 || h < 4 {
		return nil, fmt.Errorf("netsim: grid %dx%d too small for Toffoli clusters", w, h)
	}
	if toffolis <= 0 {
		return nil, fmt.Errorf("netsim: need a positive Toffoli count")
	}
	var reqs []Request
	id := 0
	for t := 0; t < toffolis; t++ {
		anchor := Node{X: 1 + rng.IntN(w-2), Y: 1 + rng.IntN(h-2)}
		member := func() Node {
			return Node{
				X: clamp(anchor.X+rng.IntN(5)-2, 0, w-1),
				Y: clamp(anchor.Y+rng.IntN(5)-2, 0, h-1),
			}
		}
		operands := [ToffoliOperands]Node{member(), member(), member()}
		addReq := func(src, dst Node) {
			var alts []Node
			for _, d := range [4]Node{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}} {
				alt := Node{X: dst.X + d.X, Y: dst.Y + d.Y}
				if alt.X >= 0 && alt.X < w && alt.Y >= 0 && alt.Y < h && alt != src {
					alts = append(alts, alt)
				}
			}
			reqs = append(reqs, Request{ID: id, Src: src, Dst: dst, AltDst: alts})
			id++
		}
		for a := 0; a < ToffoliAncilla; a++ {
			addReq(member(), operands[a%ToffoliOperands])
		}
		addReq(operands[0], operands[1])
		addReq(operands[1], operands[2])
	}
	return reqs, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WindowBeats is how many EPR transport beats fit inside one level-2 EC
// step: T(2,ecc) ≈ 43 ms against a few-ms on-chip connection time.
const WindowBeats = 10

// BandwidthResult is one row of the Section-5 bandwidth experiment.
type BandwidthResult struct {
	Bandwidth     int
	Requests      int
	Scheduled     int     // scheduled in the first beat
	ScheduledFrac float64 // first-beat fraction
	Utilization   float64 // first-beat aggregate bandwidth utilization
	Retries       int
	BeatsUsed     int  // beats needed to place everything (≤ WindowBeats)
	Overlapped    bool // whole request set hidden under the EC window
}

// RunBandwidthSweep reproduces the Section-5 scheduler study: the same
// Toffoli workload scheduled at each candidate bandwidth. The paper's
// finding: "given two channels in each direction (bandwidth of 2), we
// could schedule communication such that it always overlapped with error
// correction", at ≈23% aggregate bandwidth utilization.
func RunBandwidthSweep(w, h, toffolis int, bandwidths []int, seed uint64) ([]BandwidthResult, error) {
	var out []BandwidthResult
	for _, b := range bandwidths {
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		reqs, err := ToffoliRequests(w, h, toffolis, rng)
		if err != nil {
			return nil, err
		}
		net, err := New(w, h, b)
		if err != nil {
			return nil, err
		}
		win := net.ScheduleWindow(reqs, WindowBeats)
		first := win.Beats[0]
		out = append(out, BandwidthResult{
			Bandwidth:     b,
			Requests:      len(reqs),
			Scheduled:     len(first.Scheduled),
			ScheduledFrac: float64(len(first.Scheduled)) / float64(len(reqs)),
			Utilization:   first.Utilization,
			Retries:       first.Retries,
			BeatsUsed:     win.BeatsUsed,
			Overlapped:    win.AllScheduled,
		})
	}
	return out, nil
}
