package noise

import (
	"math"
	"math/rand/v2"

	"qla/internal/pauliframe"
)

// maskSampler draws 64-lane Bernoulli(p) hit masks. Instead of one
// uniform draw per (site, lane) pair it flattens the pairs into one
// stream and jumps between hits with geometric gaps — the standard
// skip-ahead trick — so a site costs O(1) plus O(actual hits). At the
// Figure-7 error rates (p ~ 1e-3) that replaces 64 RNG draws per site
// with ~0.06 on average.
type maskSampler struct {
	// skip is the number of lanes to skip before the next hit, or
	// undrawn until the sampler's first visit (since construction or
	// the model's last Reseed) draws it. It stays undrawn for p <= 0,
	// p >= 1 and in force mode, none of which consumes randomness.
	skip   int64
	p      float64
	invLog float64 // 1 / log1p(-p), negative
	// tol bounds |tableLog(u) - math.Log(u)| * |invLog|: how far the
	// table's gap may sit from math.Log's before rounding (see gap).
	tol float64
}

// undrawn marks a sampler whose skip is not drawn yet. Any negative
// value fails Site.Hits' fast-path test, sending the visit to the full
// path, which draws it.
const undrawn = -1

// maxGap caps a gap: log(0) would overflow the conversion, and a gap
// this long outlasts any run.
const maxGap = 1 << 40

func newMaskSampler(p float64) *maskSampler {
	s := &maskSampler{p: p, skip: undrawn}
	if p > 0 && p < 1 {
		s.invLog = 1 / math.Log1p(-p)
		s.tol = -s.invLog * tableLogErr
	}
	return s
}

// gap maps a uniform draw u in [0, 1) to the number of misses before
// the next hit (Geometric(p)): int64(math.Log(u) * invLog). A table log
// decides the floor whenever its value lies farther than its error
// bound from an integer, which is all but a vanishing fraction of
// draws; only the rest pay for math.Log. Either way the result is
// exactly math.Log's, so the random stream does not depend on which
// path ran.
func (s *maskSampler) gap(u float64) int64 {
	if u == 0 {
		return maxGap
	}
	// The slack covers the table log's error (tol) plus the rounding of
	// both products and of the two bounds (4 ulps of g in all).
	g := tableLog(u) * s.invLog
	slack := s.tol + g*0x1p-50
	if hi := g + slack; hi < maxGap {
		// g >= 0 up to the slack, so truncation is the floor; a lower
		// bound in (-1, 0) truncates to 0, the floor of any g in [0, 1).
		if k := int64(g - slack); k == int64(hi) {
			return k
		}
	}
	g = math.Log(u) * s.invLog
	if g >= maxGap {
		return maxGap
	}
	return int64(g)
}

// mask consumes one site's worth (64 lanes) of the Bernoulli stream and
// returns its hit mask.
func (s *maskSampler) mask(rng *rand.Rand) uint64 {
	if s.p <= 0 {
		return 0
	}
	if s.p >= 1 {
		return ^uint64(0)
	}
	skip := s.skip
	if skip < 0 {
		skip = s.gap(rng.Float64())
	}
	var m uint64
	for skip < pauliframe.Lanes {
		m |= 1 << uint64(skip)
		skip += 1 + s.gap(rng.Float64())
	}
	s.skip = skip - pauliframe.Lanes
	return m
}

// tableLogBits is the number of leading mantissa bits that index
// logTable.
const tableLogBits = 8

// tableLogErr bounds |tableLog(u) - math.Log(u)| for u in (0, 1) with
// a wide margin. The table log's own error is below 1.5e-14: the
// quartic's truncation (|t|^5/5 < 5.7e-15 for |t| < 2^-9), rounding in
// the final sum (~8e-15 at |log u| <= 37) and Ln2's representation
// error times the exponent (< 1.3e-15). math.Log adds under 1 ulp
// (7.1e-15 at 37). TestTableLogErrorBound checks the bound directly.
const tableLogErr = 0x1p-40

// logTable[i] serves mantissas in [1+i/256, 1+(i+1)/256): log is
// math.Log of the interval's midpoint c, invs is 2^-52/c.
var logTable = func() (t [1 << tableLogBits]struct{ invs, log float64 }) {
	for i := range t {
		c := 1 + (float64(i)+0.5)/(1<<tableLogBits)
		t[i].invs = 0x1p-52 / c
		t[i].log = math.Log(c)
	}
	return t
}()

// tableLog approximates log(u) for u in (0, 1): with u = m·2^e and m
// in [1, 2), log u = e·ln2 + log c + log1p((m-c)/c) for the table
// midpoint c nearest m, and the last term is a quartic in t = (m-c)/c,
// |t| < 2^-9. The error bound is tableLogErr.
func tableLog(u float64) float64 {
	b := math.Float64bits(u)
	e := float64(int64(b>>52) - 1023)
	r := &logTable[b>>(52-tableLogBits)&(1<<tableLogBits-1)]
	// m - c in units of 2^-52: the mantissa bits below the index, less
	// the half-interval. Exact, being a 44-bit integer.
	t := float64(int64(b&(1<<(52-tableLogBits)-1))-1<<(51-tableLogBits)) * r.invs
	return e*math.Ln2 + r.log + t*(1+t*(-1.0/2+t*(1.0/3-t/4)))
}
