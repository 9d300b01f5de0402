package noise

import (
	"math"
	"math/rand/v2"
	"testing"

	"qla/internal/iontrap"
	"qla/internal/layout"
)

// exactGap is the geometric gap as math.Log computes it: the oracle
// maskSampler.gap must equal on every draw.
func exactGap(invLog, u float64) int64 {
	if u == 0 {
		return maxGap
	}
	g := math.Log(u) * invLog
	if g >= maxGap {
		return maxGap
	}
	return int64(g)
}

// drawOf is the uniform rand.Rand.Float64 returns for the 53-bit draw k.
func drawOf(k uint64) float64 { return float64(k) / (1 << 53) }

// gapProbabilities lists every probability the Figure-7 schedule and
// code-ablation draw with (each op class of figure7's default sweep and
// of syndrome-rates' expected parameters, both move shapes, the
// code-ablation defaults), plus extremes from 1e-9 to 1-1e-6.
func gapProbabilities() []float64 {
	ps := []float64{5e-4, 1e-3, 1.5e-3, 2e-3, 2.5e-3, 3e-3, 4e-3} // figure7
	ps = append(ps, 0.002, 0.01, 0.05)                            // code-ablation
	expected := iontrap.Expected()
	for _, c := range []iontrap.OpClass{iontrap.OpSingle, iontrap.OpDouble, iontrap.OpMeasure, iontrap.OpPrep} {
		ps = append(ps, expected.Fail[c])
	}
	for _, mv := range []layout.GateMove{layout.IntraBlockGateMove(), layout.InterBlockGateMove()} {
		ps = append(ps, iontrap.Uniform(0, 1e-6).MoveFailure(mv.Cells, mv.Corners))
	}
	return append(ps, 1e-9, 1e-6, 0.1, 0.5, 0.9, 0.999, 1-1e-6)
}

// TestTableLogErrorBound: the table log stays within tableLogErr of
// math.Log, with the margin the constant's comment claims, over random
// draws and the draws at the edges of every table interval and binade.
func TestTableLogErrorBound(t *testing.T) {
	var worst, worstU float64
	check := func(k uint64) {
		u := drawOf(k)
		if d := math.Abs(tableLog(u) - math.Log(u)); d > worst {
			worst, worstU = d, u
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1<<20; i++ {
		check(rng.Uint64() >> 11)
	}
	for e := 0; e < 53; e++ {
		for i := uint64(0); i <= 1<<tableLogBits; i++ {
			// The draw nearest the edge 2^-e·(1+i/256) of interval i-1/i.
			edge := uint64(math.Ldexp(1+float64(i)/(1<<tableLogBits), 52-e))
			for _, k := range []uint64{edge - 1, edge, edge + 1} {
				if k >= 1 && k < 1<<53 {
					check(k)
				}
			}
		}
	}
	if worst > tableLogErr/16 {
		t.Fatalf("|tableLog - math.Log| = %g at u = %v, past tableLogErr/16 = %g", worst, worstU, tableLogErr/16)
	}
	t.Logf("worst |tableLog - math.Log| = %.3g at u = %v (bound %.3g)", worst, worstU, tableLogErr)
}

// TestGapMatchesMathLogRandom: on millions of random draws, at every
// probability the kernels use, the table gap equals math.Log's.
func TestGapMatchesMathLogRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, p := range gapProbabilities() {
		s := newMaskSampler(p)
		for i := 0; i < 1<<18; i++ {
			u := drawOf(rng.Uint64() >> 11)
			if got, want := s.gap(u), exactGap(s.invLog, u); got != want {
				t.Fatalf("p=%g u=%v: gap %d, math.Log gives %d", p, u, got, want)
			}
		}
	}
}

// TestGapMatchesMathLogAtBoundaries: every 53-bit draw within ±64 of
// each boundary where math.Log's gap steps from k to k-1 (k < 5,000)
// gives the same gap — the draws where a table log's error could move
// the floor.
func TestGapMatchesMathLogAtBoundaries(t *testing.T) {
	for _, p := range gapProbabilities() {
		s := newMaskSampler(p)
		lp := math.Log1p(-p)
		for k := 1; k < 5000; k++ {
			// The gap is k for u just below (1-p)^k and k-1 just above.
			mid := math.Round(math.Exp(float64(k)*lp) * (1 << 53))
			if mid < 1 {
				break // every later boundary lies below the smallest draw
			}
			lo, hi := uint64(math.Max(mid-64, 1)), uint64(math.Min(mid+64, 1<<53-1))
			if exactGap(s.invLog, drawOf(lo)) < int64(k) && lo > 1 || exactGap(s.invLog, drawOf(hi)) >= int64(k) && hi < 1<<53-1 {
				t.Fatalf("p=%g k=%d: draws %d..%d do not straddle the boundary", p, k, lo, hi)
			}
			for d := lo; d <= hi; d++ {
				u := drawOf(d)
				if got, want := s.gap(u), exactGap(s.invLog, u); got != want {
					t.Fatalf("p=%g k=%d u=%v: gap %d, math.Log gives %d", p, k, u, got, want)
				}
			}
		}
	}
}

// FuzzMaskGap: for any raw 53-bit draw and any probability in (0, 1),
// the table gap equals math.Log's.
func FuzzMaskGap(f *testing.F) {
	for _, p := range gapProbabilities() {
		f.Add(uint64(1)<<52, p)
	}
	f.Add(uint64(1), 0.5)
	f.Add(uint64(1)<<53-1, 1e-9)
	f.Fuzz(func(t *testing.T, raw uint64, p float64) {
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		s := newMaskSampler(p)
		u := drawOf(raw << 11 >> 11) // as rand.Rand.Float64 keeps it
		if got, want := s.gap(u), exactGap(s.invLog, u); got != want {
			t.Fatalf("p=%g u=%v: gap %d, math.Log gives %d", p, u, got, want)
		}
	})
}
