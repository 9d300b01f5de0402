package cyclesim

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"qla/internal/tilegrid"
)

// Kernel names accepted by MakeKernel.
const (
	// KernelRandom draws uniformly random distinct tile pairs — the
	// bisection-stressing traffic of the bandwidth figures.
	KernelRandom = "random"
	// KernelNeighbor pairs each tile with a random 4-neighbour —
	// nearest-neighbour circuits that favour ballistic movement.
	KernelNeighbor = "neighbor"
	// KernelTransversal sweeps every tile against its +X neighbour in
	// order — the lock-step transversal pattern of error correction.
	KernelTransversal = "transversal"
	// KernelBitrev pairs tile i with the bit-reversal of i — the
	// long-haul permutation traffic of QFT-style kernels.
	KernelBitrev = "bitrev"
)

// MakeKernel generates n logical ops of the named synthetic kernel on
// a W×H grid. Generation is deterministic in (kernel, w, h, n, seed).
func MakeKernel(kernel string, w, h, n int, seed uint64) ([]Op, error) {
	rect := tilegrid.Rect{W: w, H: h}
	tiles := rect.Tiles()
	if tiles < 2 {
		return nil, fmt.Errorf("cyclesim: kernel needs at least two tiles, have %dx%d", w, h)
	}
	if n < 1 {
		return nil, fmt.Errorf("cyclesim: kernel length %d must be positive", n)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	ops := make([]Op, 0, n)
	switch kernel {
	case KernelRandom:
		for len(ops) < n {
			a, b := rng.IntN(tiles), rng.IntN(tiles)
			if a == b {
				continue
			}
			ops = append(ops, Op{Src: a, Dst: b})
		}
	case KernelNeighbor:
		var buf []tilegrid.Coord
		for len(ops) < n {
			a := rng.IntN(tiles)
			buf = rect.Neighbors(rect.Coord(a), buf[:0])
			b := buf[rng.IntN(len(buf))]
			ops = append(ops, Op{Src: a, Dst: rect.Index(b)})
		}
	case KernelTransversal:
		for len(ops) < n {
			for i := 0; i < tiles && len(ops) < n; i++ {
				c := rect.Coord(i)
				if c.X+1 < w {
					ops = append(ops, Op{Src: i, Dst: rect.Index(tilegrid.Coord{X: c.X + 1, Y: c.Y})})
				}
			}
		}
	case KernelBitrev:
		bits := 0
		for 1<<(bits+1) <= tiles {
			bits++
		}
		span := 1 << bits
		for len(ops) < n {
			for i := 0; i < span && len(ops) < n; i++ {
				j := reverseBits(i, bits)
				if i != j {
					ops = append(ops, Op{Src: i, Dst: j})
				}
			}
		}
	default:
		return nil, fmt.Errorf("cyclesim: unknown kernel %q", kernel)
	}
	return ops, nil
}

func reverseBits(v, bits int) int {
	out := 0
	for i := 0; i < bits; i++ {
		out = out<<1 | (v>>i)&1
	}
	return out
}

// ParseTrace reads a logical-operation trace: one op per line in the
// form "cx SRC DST" (tile indices), with blank lines and '#' comments
// ignored. This is the circuit-trace seam — netsim's workload
// generators and external compilers emit the same shape.
func ParseTrace(trace string, tiles int) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(strings.NewReader(trace))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 || fields[0] != "cx" {
			return nil, fmt.Errorf("cyclesim: trace line %d: want \"cx SRC DST\", got %q", line, text)
		}
		src, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("cyclesim: trace line %d: bad source %q", line, fields[1])
		}
		dst, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("cyclesim: trace line %d: bad destination %q", line, fields[2])
		}
		if src < 0 || src >= tiles || dst < 0 || dst >= tiles {
			return nil, fmt.Errorf("cyclesim: trace line %d: tile outside grid of %d", line, tiles)
		}
		if src == dst {
			return nil, fmt.Errorf("cyclesim: trace line %d: self-operation on tile %d", line, src)
		}
		ops = append(ops, Op{Src: src, Dst: dst})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cyclesim: reading trace: %w", err)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("cyclesim: trace holds no operations")
	}
	return ops, nil
}
