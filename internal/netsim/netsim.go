// Package netsim simulates the QLA logical interconnect: the grid of
// teleportation islands and the channels between them, plus the greedy
// EPR-distribution scheduler of Section 5.
//
// "We assigned one channel to carry the created EPR pairs to their
// destinations and another channel to return the used EPR pairs. ... We
// define the bandwidth of QLA's communication channels as the number of
// physical channels in each direction. ... The scheduler is a heuristic
// greedy scheduler that scalably achieves an average of ~23% aggregate
// bandwidth utilization on our implementation of the Toffoli gate. It
// works by grabbing all available bandwidth whenever it can. However, if
// this means that the scheduler cannot find the necessary paths, it will
// back off and retry with a different set of start and end points."
package netsim

import (
	"fmt"
	"sort"

	"qla/internal/tilegrid"
)

// Node is an island position on the interconnect grid — the shared
// tilegrid coordinate type (see internal/tilegrid).
type Node = tilegrid.Coord

// Network is a rectangular island grid with capacitated channels. Each
// undirected neighbour pair is joined by Bandwidth lanes per direction per
// scheduling window (one EC step).
type Network struct {
	W, H      int
	Bandwidth int

	used map[[2]Node]int
}

// New builds a W×H island grid with the given per-direction bandwidth.
func New(w, h, bandwidth int) (*Network, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("netsim: grid %dx%d must be positive", w, h)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %d must be positive", bandwidth)
	}
	return &Network{W: w, H: h, Bandwidth: bandwidth, used: make(map[[2]Node]int)}, nil
}

// Reset clears all reservations (a new scheduling window).
func (n *Network) Reset() { n.used = make(map[[2]Node]int) }

// Edges returns the number of directed channel lanescapacities:
// each undirected adjacency contributes Bandwidth lanes per direction.
func (n *Network) Edges() int {
	horizontal := (n.W - 1) * n.H
	vertical := n.W * (n.H - 1)
	return 2 * (horizontal + vertical) // directed
}

// TotalLaneCapacity is the number of lane-slots available in one window.
func (n *Network) TotalLaneCapacity() int { return n.Edges() * n.Bandwidth }

// UsedLanes returns the number of reserved lane-slots.
func (n *Network) UsedLanes() int {
	total := 0
	for _, v := range n.used {
		total += v
	}
	return total
}

// Utilization is the aggregate bandwidth utilization of the window.
func (n *Network) Utilization() float64 {
	cap := n.TotalLaneCapacity()
	if cap == 0 {
		return 0
	}
	return float64(n.UsedLanes()) / float64(cap)
}

func (n *Network) rect() tilegrid.Rect { return tilegrid.Rect{W: n.W, H: n.H} }

func (n *Network) inGrid(v Node) bool { return n.rect().Contains(v) }

func (n *Network) neighbors(v Node, buf []Node) []Node {
	return n.rect().Neighbors(v, buf[:0])
}

func (n *Network) free(a, b Node) bool {
	return n.used[[2]Node{a, b}] < n.Bandwidth
}

func (n *Network) reserve(path []Node) {
	for i := 1; i < len(path); i++ {
		n.used[[2]Node{path[i-1], path[i]}]++
	}
}

// FindPath runs a BFS from src to dst over channels with free capacity,
// returning the node sequence (src first) or nil when disconnected.
func (n *Network) FindPath(src, dst Node) []Node {
	if !n.inGrid(src) || !n.inGrid(dst) {
		return nil
	}
	if src == dst {
		return []Node{src}
	}
	prev := map[Node]Node{src: src}
	queue := []Node{src}
	var nbuf [4]Node
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range n.neighbors(v, nbuf[:0]) {
			if _, seen := prev[w]; seen || !n.free(v, w) {
				continue
			}
			prev[w] = v
			if w == dst {
				var path []Node
				for at := dst; at != src; at = prev[at] {
					path = append(path, at)
				}
				path = append(path, src)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// Request asks for an EPR connection between two islands during the
// current window. AltDst lists fallback destinations (the "different set
// of start and end points" the paper's scheduler retries with, enabled by
// qubit drift: the gate can run at either operand's location or a
// neighbouring tile).
type Request struct {
	ID     int
	Src    Node
	Dst    Node
	AltDst []Node
}

// ScheduledPath records a satisfied request.
type ScheduledPath struct {
	Request Request
	Path    []Node
	UsedAlt bool
}

// Result summarizes one scheduling window.
type Result struct {
	Scheduled   []ScheduledPath
	Failed      []Request
	Utilization float64
	Retries     int
}

// ScheduleGreedy satisfies requests greedily: longest-distance requests
// first (they have the fewest routing options), one BFS path each,
// grabbing capacity as it goes. Requests that fail get a second pass with
// their alternate endpoints, then a final pass retrying the originals on
// whatever capacity remains.
func (n *Network) ScheduleGreedy(reqs []Request) Result {
	order := make([]Request, len(reqs))
	copy(order, reqs)
	sort.SliceStable(order, func(i, j int) bool {
		return manhattan(order[i]) > manhattan(order[j])
	})

	var res Result
	var deferred []Request
	for _, r := range order {
		if path := n.FindPath(r.Src, r.Dst); path != nil {
			n.reserve(path)
			res.Scheduled = append(res.Scheduled, ScheduledPath{Request: r, Path: path})
		} else {
			deferred = append(deferred, r)
		}
	}
	for _, r := range deferred {
		res.Retries++
		done := false
		for _, alt := range r.AltDst {
			if path := n.FindPath(r.Src, alt); path != nil {
				n.reserve(path)
				res.Scheduled = append(res.Scheduled, ScheduledPath{Request: r, Path: path, UsedAlt: true})
				done = true
				break
			}
		}
		if !done {
			if path := n.FindPath(r.Src, r.Dst); path != nil {
				n.reserve(path)
				res.Scheduled = append(res.Scheduled, ScheduledPath{Request: r, Path: path})
				done = true
			}
		}
		if !done {
			res.Failed = append(res.Failed, r)
		}
	}
	res.Utilization = n.Utilization()
	return res
}

// WindowResult reports scheduling a request set across the transport
// beats of one error-correction window: the 0.043 s level-2 EC step fits
// several few-ms EPR deliveries back to back, so requests that lose the
// bandwidth race in one beat retry in the next.
type WindowResult struct {
	Beats           []Result
	BeatsUsed       int
	AllScheduled    bool
	PeakUtilization float64 // utilization of the busiest beat
	MeanUtilization float64 // lane-slots used over capacity across beats
}

// ScheduleWindow schedules reqs across up to maxBeats transport beats,
// resetting channel capacity between beats and carrying failures forward.
func (n *Network) ScheduleWindow(reqs []Request, maxBeats int) WindowResult {
	if maxBeats <= 0 {
		panic("netsim: window needs at least one beat")
	}
	var win WindowResult
	pending := reqs
	usedTotal := 0
	for beat := 0; beat < maxBeats && len(pending) > 0; beat++ {
		n.Reset()
		res := n.ScheduleGreedy(pending)
		win.Beats = append(win.Beats, res)
		win.BeatsUsed++
		usedTotal += n.UsedLanes()
		if res.Utilization > win.PeakUtilization {
			win.PeakUtilization = res.Utilization
		}
		pending = res.Failed
	}
	win.AllScheduled = len(pending) == 0
	if cap := n.TotalLaneCapacity() * win.BeatsUsed; cap > 0 {
		win.MeanUtilization = float64(usedTotal) / float64(cap)
	}
	return win
}

func manhattan(r Request) int { return tilegrid.Manhattan(r.Src, r.Dst) }
