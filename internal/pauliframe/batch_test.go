package pauliframe

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestBatchMatchesScalarFrames drives a Batch and 64 independent scalar
// Frames through the same random masked program and requires every lane
// to match its scalar twin bit for bit — the defining property of the
// bit-sliced layout.
func TestBatchMatchesScalarFrames(t *testing.T) {
	const n = 23
	rng := rand.New(rand.NewPCG(7, 11))
	b := NewBatch(n)
	var fs [Lanes]*Frame
	for l := range fs {
		fs[l] = New(n)
	}
	agree := func(step int) {
		for l := 0; l < Lanes; l++ {
			for q := 0; q < n; q++ {
				if fs[l].XBit(q) != (b.XBits(q)>>uint(l)&1 == 1) ||
					fs[l].ZBit(q) != (b.ZBits(q)>>uint(l)&1 == 1) {
					t.Fatalf("step %d: lane %d diverged from scalar frame on qubit %d", step, l, q)
				}
			}
		}
	}
	for step := 0; step < 4000; step++ {
		mask := rng.Uint64()
		q := rng.IntN(n)
		p := rng.IntN(n)
		for p == q {
			p = rng.IntN(n)
		}
		op := rng.IntN(12)
		for l := 0; l < Lanes; l++ {
			on := mask>>uint(l)&1 == 1
			if !on {
				continue
			}
			switch op {
			case 0:
				fs[l].H(q)
			case 1:
				fs[l].S(q)
			case 2:
				fs[l].Sdg(q)
			case 3:
				fs[l].CNOT(p, q)
			case 4:
				fs[l].CZ(p, q)
			case 5:
				fs[l].SWAP(p, q)
			case 6:
				fs[l].InjectX(q)
			case 7:
				fs[l].InjectZ(q)
			case 8:
				fs[l].InjectY(q)
			case 9:
				fs[l].Reset(q)
			case 10:
				fs[l].MeasureZ(q)
			case 11:
				fs[l].MeasureX(q)
			}
		}
		switch op {
		case 0:
			b.H(q, mask)
		case 1:
			b.S(q, mask)
		case 2:
			b.Sdg(q, mask)
		case 3:
			b.CNOT(p, q, mask)
		case 4:
			b.CZ(p, q, mask)
		case 5:
			b.SWAP(p, q, mask)
		case 6:
			b.InjectX(q, mask)
		case 7:
			b.InjectZ(q, mask)
		case 8:
			b.InjectY(q, mask)
		case 9:
			b.Reset(q, mask)
		case 10:
			// Outcomes must agree lane-wise too.
			out := b.MeasureZ(q, mask)
			for l := 0; l < Lanes; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				// Scalar outcome was consumed above; recompute from the
				// invariant instead: outcome bit == pre-measure X bit,
				// which MeasureZ leaves in place.
				want := uint64(0)
				if fs[l].XBit(q) {
					want = 1
				}
				if out>>uint(l)&1 != want {
					t.Fatalf("step %d: lane %d MeasureZ outcome mismatch", step, l)
				}
			}
		case 11:
			b.MeasureX(q, mask)
		}
		if step%512 == 0 {
			agree(step)
		}
	}
	agree(4000)
}

// TestBatchZeroMaskIsNoop: an op masked to zero lanes must leave the
// batch untouched.
func TestBatchZeroMaskIsNoop(t *testing.T) {
	b := NewBatch(4)
	b.InjectX(0, ^uint64(0))
	b.InjectZ(1, 0xF0F0)
	before := [][2]uint64{}
	for q := 0; q < 4; q++ {
		before = append(before, [2]uint64{b.XBits(q), b.ZBits(q)})
	}
	b.H(0, 0)
	b.S(1, 0)
	b.CNOT(0, 1, 0)
	b.CZ(2, 3, 0)
	b.SWAP(0, 3, 0)
	b.Reset(0, 0)
	if out := b.MeasureZ(0, 0); out != 0 {
		t.Fatalf("zero-mask MeasureZ returned %x", out)
	}
	for q := 0; q < 4; q++ {
		if b.XBits(q) != before[q][0] || b.ZBits(q) != before[q][1] {
			t.Fatalf("zero-mask ops disturbed qubit %d", q)
		}
	}
}

// TestBatchLaneAndDirty covers the lane-extraction helpers.
func TestBatchLaneAndDirty(t *testing.T) {
	b := NewBatch(3)
	if b.DirtyLanes() != 0 {
		t.Fatal("fresh batch must be clean")
	}
	b.InjectX(1, 1<<5)
	b.InjectZ(2, 1<<9)
	if b.DirtyLanes() != 1<<5|1<<9 {
		t.Fatalf("dirty lanes = %x", b.DirtyLanes())
	}
	f := b.Lane(5)
	if !f.XBit(1) || f.ZBit(2) {
		t.Fatal("Lane(5) extraction wrong")
	}
	if b.Weight(5) != 1 || b.Weight(0) != 0 {
		t.Fatal("per-lane weight wrong")
	}
	if b.PopulationWeight() != 2 {
		t.Fatalf("population weight = %d", b.PopulationWeight())
	}
	b.Clear()
	if b.DirtyLanes() != 0 {
		t.Fatal("Clear must empty every lane")
	}
}

// The helpers below serve only this package's tests.

// Lane extracts one trial's frame as a scalar Frame (for debugging and
// cross-checking against the scalar backend).
func (b *Batch) Lane(lane int) *Frame {
	if lane < 0 || lane >= Lanes {
		panic("pauliframe: lane out of range")
	}
	f := New(b.n)
	for q := 0; q < b.n; q++ {
		f.setX(q, b.x[q]>>uint(lane)&1 == 1)
		f.setZ(q, b.z[q]>>uint(lane)&1 == 1)
	}
	return f
}

// PopulationWeight returns the total number of set error bits across
// all lanes and qubits (X and Z components counted separately).
func (b *Batch) PopulationWeight() int {
	w := 0
	for q := 0; q < b.n; q++ {
		w += bits.OnesCount64(b.x[q]) + bits.OnesCount64(b.z[q])
	}
	return w
}
