package noise

import (
	"math/bits"
	"math/rand/v2"

	"qla/internal/iontrap"
	"qla/internal/pauliframe"
)

// BatchModel samples errors for 64 independent trials at once,
// injecting them lane-wise into a pauliframe.Batch. Each error site
// draws one Bernoulli hit mask over the lanes (via maskSampler's
// geometric skipping) and only the hit lanes pay for Pauli-variant
// selection. Masked injection — every sampler method takes the lane
// mask of trials that actually execute the operation — keeps per-lane
// control flow (ancilla retries, syndrome re-extraction) exact: lanes
// outside the mask see no error and no frame change.
//
// A circuit resolves its error sites once, as Site handles (Site,
// MoveSite), and visits them through Site.Hits; callers that pass the
// probability per visit use Depolarize1. Both share one sampler per
// distinct probability, so all sites of equal probability draw from
// one Bernoulli stream, and each sampler draws its first skip at its
// first visit: binding handles consumes no randomness.
//
// The deterministic-fault mode mirrors Model's: when ForceEnabled, no
// randomness is consumed at all; the site whose sequence number equals
// ForceSite injects error variant ForceChoice into lane ForceLane
// (when that lane is in the site's execution mask) and every other
// site is silent. Because sites are numbered once per batched site
// visit, a batch in which only ForceLane's control flow deviates
// visits sites in exactly the scalar backend's order — the property
// the batch-vs-scalar single-fault equivalence tests rely on. Set the
// Force fields before the first site visit (or Reseed after setting
// them): a sampler that has drawn its skip serves no-hit visits
// without consulting them.
type BatchModel struct {
	P   iontrap.Params
	Rng *rand.Rand

	// Injected counts lane-hits by op class, for diagnostics and tests.
	Injected [iontrap.NumOpClasses]int64

	// Deterministic fault injection (see Model).
	ForceEnabled bool
	ForceSite    int64
	ForceChoice  int
	ForceLane    int

	siteCounter int64
	pcg         *rand.PCG
	// samplers holds one skip-ahead state per distinct probability
	// (the op classes plus a few move-path compositions); a linear scan
	// beats a map at these counts, and handles skip it entirely.
	samplers []*maskSampler
}

// NewBatchModel returns a batch model over params p with a
// deterministic seed.
func NewBatchModel(p iontrap.Params, seed uint64) *BatchModel {
	pcg := rand.NewPCG(seed, seed^0xa5a5a5a5deadbeef)
	return &BatchModel{P: p, Rng: rand.New(pcg), pcg: pcg}
}

// Reseed rewinds the model to the state NewBatchModel(P, seed) would
// produce, reusing its allocations: the RNG stream restarts from the
// seed, the site counter and injection statistics zero, and every
// sampler returns to undrawn, redrawing its skip at its next visit as
// a fresh model's sampler would at its first. Handles stay bound.
// Callers running many independently seeded blocks through one model
// (one block per Reseed) avoid a model + RNG + sampler allocation per
// block.
func (m *BatchModel) Reseed(seed uint64) {
	m.pcg.Seed(seed, seed^0xa5a5a5a5deadbeef)
	m.siteCounter = 0
	m.Injected = [iontrap.NumOpClasses]int64{}
	for _, s := range m.samplers {
		s.skip = undrawn
	}
}

// Sites returns the number of potential error sites visited so far.
func (m *BatchModel) Sites() int64 { return m.siteCounter }

// sampler returns the model's sampler for probability p, creating it
// undrawn on first use.
func (m *BatchModel) sampler(p float64) *maskSampler {
	for _, s := range m.samplers {
		if s.p == p {
			return s
		}
	}
	s := newMaskSampler(p)
	m.samplers = append(m.samplers, s)
	return s
}

// hits is one full 64-lane site visit on sampler s: the lane mask of
// trials that inject, already restricted to the execution mask.
func (m *BatchModel) hits(s *maskSampler, mask uint64) uint64 {
	idx := m.siteCounter
	m.siteCounter++
	if m.ForceEnabled {
		if idx == m.ForceSite {
			return 1 << uint(m.ForceLane) & mask
		}
		return 0
	}
	return s.mask(m.Rng) & mask
}

// site visits a site of probability p (the by-probability entry point).
func (m *BatchModel) site(p float64, mask uint64) uint64 {
	return m.hits(m.sampler(p), mask)
}

// A Site is an error site of fixed probability and op class, resolved
// once so that each visit skips the probability lookup.
type Site struct {
	s     *maskSampler
	m     *BatchModel
	class iontrap.OpClass
}

// Site returns the handle of op class c's sites, at probability
// P.Fail[c].
func (m *BatchModel) Site(c iontrap.OpClass) Site {
	return Site{s: m.sampler(m.P.Fail[c]), m: m, class: c}
}

// MoveSite returns the handle of a shuttle across cells and corners,
// at probability P.MoveFailure(cells, corners), counted as OpMoveCell.
func (m *BatchModel) MoveSite(cells, corners int) Site {
	return Site{s: m.sampler(m.P.MoveFailure(cells, corners)), m: m, class: iontrap.OpMoveCell}
}

// Hits visits the site for the lanes in mask and returns the lanes it
// hits, counting them in Injected. The common visit, whose 64 lanes all
// fall inside the sampler's current skip, is inlined: it advances the
// skip and the site counter and returns 0.
func (h *Site) Hits(mask uint64) uint64 {
	if h.s.skip < pauliframe.Lanes {
		return h.visit(mask)
	}
	h.s.skip -= pauliframe.Lanes
	h.m.siteCounter++
	return 0
}

// visit is Hits' full path, kept out of line so Hits stays inlinable.
//
//go:noinline
func (h *Site) visit(mask uint64) uint64 {
	hits := h.m.hits(h.s, mask)
	h.m.Injected[h.class] += int64(bits.OnesCount64(hits))
	return hits
}

// Depolarize1 injects a uniformly random non-identity Pauli on q, per
// hit lane, with probability p.
func (m *BatchModel) Depolarize1(f *pauliframe.Batch, q int, p float64, mask uint64) int64 {
	hits := m.site(p, mask)
	if hits == 0 {
		return 0
	}
	m.Pauli1(f, q, hits)
	return int64(bits.OnesCount64(hits))
}

// Pauli1 injects a uniformly random non-identity Pauli on q in every
// lane of hits (variant ForceChoice in force mode).
func (m *BatchModel) Pauli1(f *pauliframe.Batch, q int, hits uint64) {
	var xm, ym, zm uint64
	for h := hits; h != 0; h &= h - 1 {
		lane := uint64(1) << uint(bits.TrailingZeros64(h))
		k := m.ForceChoice % 3
		if !m.ForceEnabled {
			k = m.Rng.IntN(3)
		}
		switch k {
		case 0:
			xm |= lane
		case 1:
			ym |= lane
		case 2:
			zm |= lane
		}
	}
	f.InjectX(q, xm|ym)
	f.InjectZ(q, zm|ym)
}

// Pauli2 injects a uniformly random non-identity two-qubit Pauli on
// (a,b) in every lane of hits: one of the 15 non-II pairs, same
// indexing as Model.Depolarize2 (variant ForceChoice in force mode).
func (m *BatchModel) Pauli2(f *pauliframe.Batch, a, b int, hits uint64) {
	var ax, az, bx, bz uint64
	for h := hits; h != 0; h &= h - 1 {
		lane := uint64(1) << uint(bits.TrailingZeros64(h))
		k := m.ForceChoice % 15
		if !m.ForceEnabled {
			k = m.Rng.IntN(15)
		}
		k++ // 1..15, base-4 digits (pa, pb), not both I
		if pa := k / 4; pa > 0 {
			if pa != 3 { // X or Y carry an X component
				ax |= lane
			}
			if pa != 1 { // Y or Z carry a Z component
				az |= lane
			}
		}
		if pb := k % 4; pb > 0 {
			if pb != 3 {
				bx |= lane
			}
			if pb != 1 {
				bz |= lane
			}
		}
	}
	f.InjectX(a, ax)
	f.InjectZ(a, az)
	f.InjectX(b, bx)
	f.InjectZ(b, bz)
}

// TotalInjected returns the total number of lane-errors injected.
func (m *BatchModel) TotalInjected() int64 {
	var t int64
	for _, v := range m.Injected {
		t += v
	}
	return t
}
