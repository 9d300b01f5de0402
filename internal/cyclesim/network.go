package cyclesim

import (
	"qla/internal/tilegrid"
)

// fabric is the contention state of the channel mesh: every directed
// nearest-neighbour link carries Bandwidth lanes, each lane a single
// reservation horizon (freeAt). A transfer entering a link reserves
// the earliest-free lane from max(now, freeAt) for its occupancy; the
// difference between the reserved start and the requested time is
// queueing delay.
type fabric struct {
	rect    tilegrid.Rect
	lanes   int
	transit int64 // head transit time per link (Latencies.HopCycles)
	// freeAt is indexed [link*lanes + lane]; link = tile*4 + dir with
	// dir an index into tilegrid.Dirs4 on the link's source tile.
	freeAt []int64

	laneCycles int64 // total reserved occupancy
	laneWaits  int64 // total queueing delay
	reserves   int64 // reservation events
}

func newFabric(rect tilegrid.Rect, lanes int, transit int64) *fabric {
	return &fabric{
		rect:    rect,
		lanes:   lanes,
		transit: transit,
		freeAt:  make([]int64, rect.Tiles()*4*lanes),
	}
}

func (f *fabric) linkIndex(from tilegrid.Coord, dir int) int {
	return (f.rect.Index(from)*4 + dir) * f.lanes
}

// earliest returns the soonest lane release time on (from, dir).
func (f *fabric) earliest(from tilegrid.Coord, dir int) int64 {
	base := f.linkIndex(from, dir)
	best := f.freeAt[base]
	for i := 1; i < f.lanes; i++ {
		if t := f.freeAt[base+i]; t < best {
			best = t
		}
	}
	return best
}

// reserve claims the earliest-free lane on (from, dir) starting no
// sooner than t, holding it for occ cycles. It returns the reserved
// start time.
func (f *fabric) reserve(from tilegrid.Coord, dir int, t, occ int64) int64 {
	base := f.linkIndex(from, dir)
	lane := 0
	for i := 1; i < f.lanes; i++ {
		if f.freeAt[base+i] < f.freeAt[base+lane] {
			lane = i
		}
	}
	start := t
	if f.freeAt[base+lane] > start {
		start = f.freeAt[base+lane]
	}
	f.freeAt[base+lane] = start + occ
	f.laneCycles += occ
	f.laneWaits += start - t
	f.reserves++
	return start
}

// route walks a minimal path from src to dst, reserving a lane on each
// link as it goes. headOcc is the occupancy charged per link beyond
// the corner penalty (transit + payload tail + per-hop stalls);
// hopStall is extra per-hop latency spent inside the channel (e.g.
// recooling stops). It returns the arrival time of the transfer head
// at dst and the number of corners turned.
func (f *fabric) route(src, dst tilegrid.Coord, t, headOcc, cornerOcc, hopStall int64, adaptive bool) (arrival int64, corners int64) {
	at := src
	prevDir := -1
	for at != dst {
		d := f.pickDir(at, dst, prevDir, t, adaptive)
		corner := prevDir >= 0 && d != prevDir
		occ := headOcc
		stall := hopStall
		if corner {
			occ += cornerOcc
			stall += cornerOcc
			corners++
		}
		start := f.reserve(at, d, t, occ)
		// The head leaves the link after the stalls plus transit; the
		// tail drains behind it within the reserved occupancy.
		t = start + stall + f.transit
		at = at.Add(tilegrid.Dirs4[d])
		prevDir = d
	}
	return t, corners
}

// pickDir chooses the next hop direction toward dst.
func (f *fabric) pickDir(at, dst tilegrid.Coord, prevDir int, t int64, adaptive bool) int {
	dx, dy := dst.X-at.X, dst.Y-at.Y
	xDir, yDir := -1, -1
	if dx > 0 {
		xDir = 0 // +X
	} else if dx < 0 {
		xDir = 1 // -X
	}
	if dy > 0 {
		yDir = 2 // +Y
	} else if dy < 0 {
		yDir = 3 // -Y
	}
	switch {
	case xDir < 0:
		return yDir
	case yDir < 0:
		return xDir
	case !adaptive:
		// Dimension order: finish X first.
		return xDir
	}
	// Adaptive: take the productive direction whose lane frees
	// earliest; prefer staying in the current direction on ties (fewer
	// corners), then X.
	ex, ey := f.earliest(at, xDir), f.earliest(at, yDir)
	if ex == ey {
		if prevDir == yDir {
			return yDir
		}
		return xDir
	}
	if ex < ey {
		return xDir
	}
	return yDir
}
