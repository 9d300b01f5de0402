package noise

import (
	"math"
	"math/bits"
	"testing"

	"qla/internal/iontrap"
	"qla/internal/pauliframe"
)

// TestMaskSamplerRate: the geometric-skipping sampler must produce
// per-lane Bernoulli(p) hits at the right rate.
func TestMaskSamplerRate(t *testing.T) {
	for _, p := range []float64{1e-3, 0.01, 0.1, 0.5} {
		m := NewBatchModel(iontrap.Uniform(0, 0), 42)
		const sites = 20000
		hits := 0
		for i := 0; i < sites; i++ {
			hits += bits.OnesCount64(m.site(p, ^uint64(0)))
		}
		n := float64(sites * 64)
		mean := p * n
		sigma := math.Sqrt(n * p * (1 - p))
		if math.Abs(float64(hits)-mean) > 6*sigma {
			t.Errorf("p=%g: %d hits, want %.0f ± %.0f", p, hits, mean, 6*sigma)
		}
	}
}

// TestMaskSamplerEdges: p=0 never hits, p=1 always hits, and the
// execution mask restricts hits.
func TestMaskSamplerEdges(t *testing.T) {
	m := NewBatchModel(iontrap.Uniform(0, 0), 1)
	for i := 0; i < 100; i++ {
		if m.site(0, ^uint64(0)) != 0 {
			t.Fatal("p=0 must never hit")
		}
		if m.site(1, ^uint64(0)) != ^uint64(0) {
			t.Fatal("p=1 must always hit")
		}
		if m.site(0.7, 0xFF)&^uint64(0xFF) != 0 {
			t.Fatal("hits escaped the execution mask")
		}
	}
}

// TestBatchModelDeterminism: identical seeds must reproduce identical
// hit masks.
func TestBatchModelDeterminism(t *testing.T) {
	run := func() []uint64 {
		m := NewBatchModel(iontrap.Uniform(0.01, 1e-6), 99)
		var out []uint64
		for i := 0; i < 500; i++ {
			out = append(out, m.site(0.01, ^uint64(0)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("site %d: masks diverge with identical seeds", i)
		}
	}
}

// TestBatchDepolarize1Variants: every Pauli variant appears, lane-wise,
// and X+Z planes stay consistent (Y sets both).
func TestBatchDepolarize1Variants(t *testing.T) {
	m := NewBatchModel(iontrap.Uniform(0, 0), 7)
	f := pauliframe.NewBatch(1)
	var sawX, sawZ, sawY bool
	for i := 0; i < 2000; i++ {
		f.Clear()
		m.Depolarize1(f, 0, 0.5, ^uint64(0))
		x, z := f.XBits(0), f.ZBits(0)
		if x&^z != 0 {
			sawX = true
		}
		if z&^x != 0 {
			sawZ = true
		}
		if x&z != 0 {
			sawY = true
		}
	}
	if !sawX || !sawZ || !sawY {
		t.Errorf("missing depolarizing variant: X=%v Y=%v Z=%v", sawX, sawY, sawZ)
	}
}

// TestBatchDepolarize2Variants: all 15 two-qubit variants occur.
func TestBatchDepolarize2Variants(t *testing.T) {
	m := NewBatchModel(iontrap.Uniform(0, 0), 13)
	f := pauliframe.NewBatch(2)
	seen := map[int]bool{}
	for i := 0; i < 4000 && len(seen) < 15; i++ {
		f.Clear()
		m.Pauli2(f, 0, 1, m.site(0.5, 1)) // single lane isolates the variant
		pa := int(f.XBits(0)&1) | int(f.ZBits(0)&1)<<1
		pb := int(f.XBits(1)&1) | int(f.ZBits(1)&1)<<1
		if pa != 0 || pb != 0 {
			seen[pa<<2|pb] = true
		}
	}
	if len(seen) != 15 {
		t.Errorf("saw %d of 15 two-qubit Pauli variants", len(seen))
	}
}

// TestBatchForceMode mirrors the scalar deterministic-fault contract:
// exactly the forced site injects, into exactly the forced lane, and
// only when that lane is in the execution mask.
func TestBatchForceMode(t *testing.T) {
	m := NewBatchModel(iontrap.Uniform(0.5, 0.5), 3)
	m.ForceEnabled = true
	m.ForceSite = 5
	m.ForceChoice = 2 // Z for 1-qubit sites
	m.ForceLane = 17
	f := pauliframe.NewBatch(1)
	for i := 0; i < 10; i++ {
		m.Depolarize1(f, 0, 0.5, ^uint64(0))
	}
	if f.XBits(0) != 0 || f.ZBits(0) != 1<<17 {
		t.Fatalf("forced fault landed wrong: x=%x z=%x", f.XBits(0), f.ZBits(0))
	}
	if m.Sites() != 10 {
		t.Fatalf("site counter = %d, want 10", m.Sites())
	}

	// Same forced site, but the forced lane is masked out: no injection.
	m2 := NewBatchModel(iontrap.Uniform(0.5, 0.5), 3)
	m2.ForceEnabled = true
	m2.ForceSite = 0
	m2.ForceLane = 17
	f2 := pauliframe.NewBatch(1)
	m2.Depolarize1(f2, 0, 0.5, ^(uint64(1) << 17))
	if f2.DirtyLanes() != 0 {
		t.Fatal("forced fault must respect the execution mask")
	}
}

// TestBatchInjectedLedger: lane-hit counts land in the right op class.
func TestBatchInjectedLedger(t *testing.T) {
	p := iontrap.Uniform(0.5, 0.01)
	m := NewBatchModel(p, 21)
	sites := []Site{
		m.Site(iontrap.OpSingle), m.Site(iontrap.OpDouble),
		m.Site(iontrap.OpPrep), m.Site(iontrap.OpMeasure), m.MoveSite(3, 1),
	}
	var total int64
	for i := range sites {
		total += int64(bits.OnesCount64(sites[i].Hits(^uint64(0))))
	}
	for _, c := range []iontrap.OpClass{iontrap.OpSingle, iontrap.OpDouble, iontrap.OpPrep, iontrap.OpMeasure, iontrap.OpMoveCell} {
		if m.Injected[c] == 0 {
			t.Errorf("op class %v recorded no injections at p=0.5", c)
		}
	}
	if m.TotalInjected() != total {
		t.Errorf("total injected %d, want the %d lanes hit", m.TotalInjected(), total)
	}
	if m.Sites() != 5 {
		t.Errorf("sites = %d, want 5", m.Sites())
	}
}

// TestSiteHandlesMatchByProbability: bound handles draw exactly the
// by-probability path's masks. Handles of equal probability share one
// stream (here four op classes at p plus two move shapes), binding
// draws nothing, and the inlined no-hit path advances the skip and the
// site counter exactly as the full path does.
func TestSiteHandlesMatchByProbability(t *testing.T) {
	for _, p := range []float64{0, 3e-3, 0.05, 1} {
		params := iontrap.Uniform(p, 1e-3)
		bound := NewBatchModel(params, 5)
		sites := []Site{
			bound.Site(iontrap.OpSingle), bound.Site(iontrap.OpDouble),
			bound.Site(iontrap.OpPrep), bound.Site(iontrap.OpMeasure),
			bound.MoveSite(3, 0), bound.MoveSite(12, 2),
		}
		probs := []float64{p, p, p, p, params.MoveFailure(3, 0), params.MoveFailure(12, 2)}
		byProb := NewBatchModel(params, 5)
		for i := 0; i < 20000; i++ {
			k := (5*i + 4) % len(sites)        // first visits in an order unlike binding's
			mask := ^uint64(0) >> uint(i%3*20) // full and partial execution masks
			got, want := sites[k].Hits(mask), byProb.site(probs[k], mask)
			if got != want {
				t.Fatalf("p=%g visit %d (site %d): handle hit %x, by-probability %x", p, i, k, got, want)
			}
		}
		if bound.Sites() != byProb.Sites() {
			t.Fatalf("p=%g: handle model counted %d sites, by-probability %d", p, bound.Sites(), byProb.Sites())
		}
	}
}

// TestBatchModelReseedMatchesFresh: a reseeded model must reproduce a
// freshly constructed model's hit masks exactly — the property that
// lets block loops reuse one model instead of allocating one per
// 64-trial block. The reused model holds a sampler for every
// probability before each reseed; in the two-probability case the
// first sites hit before the second probability is visited, so a
// reseed that redrew the skips eagerly, in cache order, would diverge
// from the fresh model's first-visit order.
func TestBatchModelReseedMatchesFresh(t *testing.T) {
	for _, ps := range [][]float64{{0.03}, {0.3, 0.01}} {
		visit := func(m *BatchModel) (*pauliframe.Batch, int64) {
			f := pauliframe.NewBatch(8)
			var n int64
			for q := 0; q < 8; q++ {
				p := ps[q*len(ps)/8] // each probability in turn
				n += m.Depolarize1(f, q, p, ^uint64(0))
			}
			return f, n
		}
		reused := NewBatchModel(iontrap.Params{}, 0)
		visit(reused)
	seeds:
		for _, seed := range []uint64{1, 99, 12345} {
			reused.Reseed(seed)
			ff, fn := visit(NewBatchModel(iontrap.Params{}, seed))
			rf, rn := visit(reused)
			for q := 0; q < 8; q++ {
				if ff.XBits(q) != rf.XBits(q) || ff.ZBits(q) != rf.ZBits(q) {
					t.Errorf("ps %v seed %d qubit %d: reseeded model diverged from fresh", ps, seed, q)
					continue seeds
				}
			}
			if fn == 0 || fn != rn {
				t.Errorf("ps %v seed %d: injected %d fresh vs %d reseeded (want equal and non-zero)", ps, seed, fn, rn)
			}
		}
	}
}
