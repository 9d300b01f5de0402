package codes

// Bit-sliced decoder Monte Carlo: 64 trials per uint64 word. Errors
// are drawn as 64-lane depolarizing hit masks via noise.BatchModel
// (geometric skip-ahead, so a qubit site costs O(1) plus O(actual
// hits)), syndromes are computed as lane-mask XOR folds over the
// generators' support, and the success criterion — the residual
// error·correction lies in the stabilizer group — runs as a
// lane-stacked GF(2) span-membership check: the symplectic kernels of
// codes.go generalized from one vector to 64 lanes per word. Only the
// per-lane syndrome-table lookup remains scalar, and only dirty lanes
// pay for it.
//
// Equivalence with the scalar path: failure ⇔ residual ∉ span(S).
// A syndrome-table miss leaves the identity correction, and the
// residual (the raw error, with a non-zero syndrome) cannot lie in the
// span, so the scalar path's explicit miss-counting folds into the
// same test. The identity residual is in the span, covering the
// scalar path's IsIdentity early-out.

import (
	"math/bits"

	"qla/internal/iontrap"
	"qla/internal/noise"
	"qla/internal/pauli"
	"qla/internal/pauliframe"
)

// mcKernel holds the precomputed bit-sliced machinery for one (code,
// decoder) pair.
type mcKernel struct {
	c   *Code
	dec *Decoder
	// genXSupport[i] / genZSupport[i] list the qubits where generator i
	// carries an X / Z component: the error anticommutes with generator
	// i iff the XOR fold of (error Z-bits over genXSupport) and (error
	// X-bits over genZSupport) is odd.
	genXSupport, genZSupport [][]int
	// span is the reduced row echelon form of the stabilizer group's
	// symplectic vectors; spanPivots[r] is row r's pivot column and
	// spanSupport[r] its set bit positions. Transposed elimination over
	// these rows reduces 64 lane-stacked residuals at once.
	spanPivots  []int
	spanSupport [][]int
	// corrBits caches each table syndrome's correction as symplectic
	// bit positions (x part at q, z part at n+q).
	corrBits map[uint64][]int
}

func newMCKernel(c *Code, dec *Decoder) *mcKernel {
	k := &mcKernel{
		c:        c,
		dec:      dec,
		corrBits: make(map[uint64][]int, len(dec.table)),
	}
	for _, g := range c.Stabilizers {
		var xs, zs []int
		for q := 0; q < c.N; q++ {
			if g.XBit(q) {
				xs = append(xs, q)
			}
			if g.ZBit(q) {
				zs = append(zs, q)
			}
		}
		k.genXSupport = append(k.genXSupport, xs)
		k.genZSupport = append(k.genZSupport, zs)
	}
	rows, pivots := reducedRowEchelon(vectors(c.Stabilizers), 2*c.N)
	k.spanPivots = pivots
	for _, row := range rows {
		var support []int
		for j := 0; j < 2*c.N; j++ {
			if getBit(row, j) {
				support = append(support, j)
			}
		}
		k.spanSupport = append(k.spanSupport, support)
	}
	for s, p := range dec.table {
		k.corrBits[s] = symplecticBits(p)
	}
	return k
}

// symplecticBits lists the set positions of p's symplectic vector.
func symplecticBits(p pauli.String) []int {
	var out []int
	for q := 0; q < p.N; q++ {
		if p.XBit(q) {
			out = append(out, q)
		}
		if p.ZBit(q) {
			out = append(out, p.N+q)
		}
	}
	return out
}

// reducedRowEchelon row-reduces rows over GF(2) to RREF, dropping zero
// rows; it returns the reduced rows and their pivot columns.
func reducedRowEchelon(rows [][]uint64, bits int) (m [][]uint64, pivots []int) {
	m = cloneRows(rows)
	r := 0
	for col := 0; col < bits && r < len(m); col++ {
		pivot := -1
		for i := r; i < len(m); i++ {
			if getBit(m[i], col) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[r], m[pivot] = m[pivot], m[r]
		for i := 0; i < len(m); i++ {
			if i != r && getBit(m[i], col) {
				xorInto(m[i], m[r])
			}
		}
		pivots = append(pivots, col)
		r++
	}
	return m[:r], pivots
}

// runBlock executes one 64-trial block: draw lane-stacked depolarizing
// errors, decode per dirty lane, and reduce the residuals against the
// stabilizer span in one bit-sliced elimination. It returns the number
// of failed lanes among the active ones.
func (k *mcKernel) runBlock(model *noise.BatchModel, f *pauliframe.Batch, residual []uint64, p float64, active uint64) int {
	n := k.c.N
	f.Clear()
	for q := 0; q < n; q++ {
		model.Depolarize1(f, q, p, active)
	}

	// residual planes: bit j of plane l... plane[j] holds the lane mask
	// of trials whose residual has symplectic bit j set.
	dirty := uint64(0)
	for q := 0; q < n; q++ {
		residual[q] = f.XBits(q)
		residual[n+q] = f.ZBits(q)
		dirty |= residual[q] | residual[n+q]
	}
	if dirty == 0 {
		return 0
	}

	// Lane-stacked syndromes: one XOR fold per generator.
	syndrome := make([]uint64, len(k.genXSupport))
	for i := range k.genXSupport {
		var s uint64
		for _, q := range k.genZSupport[i] {
			s ^= residual[q] // error X components vs generator Z
		}
		for _, q := range k.genXSupport[i] {
			s ^= residual[n+q] // error Z components vs generator X
		}
		syndrome[i] = s
	}

	// Apply each dirty lane's table correction (identity on a miss: the
	// untouched residual then fails the span test, as it must).
	for d := dirty; d != 0; d &= d - 1 {
		lane := bits.TrailingZeros64(d)
		var s uint64
		for i, sm := range syndrome {
			s |= sm >> uint(lane) & 1 << uint(i)
		}
		for _, j := range k.corrBits[s] {
			residual[j] ^= 1 << uint(lane)
		}
	}

	// Bit-sliced span membership: eliminate the RREF pivots from all 64
	// residuals at once; a lane with any surviving bit is outside the
	// stabilizer group — a logical failure.
	for r, pivot := range k.spanPivots {
		m := residual[pivot]
		if m == 0 {
			continue
		}
		for _, j := range k.spanSupport[r] {
			residual[j] ^= m
		}
	}
	var fail uint64
	for _, plane := range residual[:2*n] {
		fail |= plane
	}
	return bits.OnesCount64(fail & active)
}

// mcBatch is the bit-sliced backend of MonteCarloLogicalErrorBackend:
// blocks of 64 trials, each block's noise model seeded from its global
// index.
func mcBatch(c *Code, dec *Decoder, p float64, trials int, seed uint64) int {
	k := newMCKernel(c, dec)
	f := pauliframe.NewBatch(c.N)
	residual := make([]uint64, 2*c.N)
	model := noise.NewBatchModel(iontrap.Params{}, 0)
	failures := 0
	blocks := (trials + pauliframe.Lanes - 1) / pauliframe.Lanes
	for b := 0; b < blocks; b++ {
		lanes := pauliframe.Lanes
		if rem := trials - b*pauliframe.Lanes; rem < lanes {
			lanes = rem
		}
		// One model, reseeded per block from the block's global index:
		// blocks stay independently seeded (the single probability p
		// makes Reseed exactly fresh-model equivalent) without a model
		// + RNG + sampler allocation each.
		model.Reseed(seed ^ (uint64(b)+1)*0x9e3779b97f4a7c15 ^ 0xc0de5)
		failures += k.runBlock(model, f, residual, p, pauliframe.LaneMask(lanes))
	}
	return failures
}
