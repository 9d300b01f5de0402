package codes

import (
	"math"
	"testing"
)

func TestMonteCarloValidation(t *testing.T) {
	c := Steane7()
	if _, err := MonteCarloLogicalErrorBackend(c, -0.1, 100, 1, BackendBatch); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := MonteCarloLogicalErrorBackend(c, 1.5, 100, 1, BackendBatch); err == nil {
		t.Fatal("p>1 accepted")
	}
	if _, err := MonteCarloLogicalErrorBackend(c, 0.1, 0, 1, BackendBatch); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestMonteCarloNoiselessIsPerfect(t *testing.T) {
	for _, c := range All() {
		r, err := MonteCarloLogicalErrorBackend(c, 0, 500, 3, BackendBatch)
		if err != nil {
			t.Fatal(err)
		}
		if r.LogicalFailures != 0 {
			t.Errorf("%s: %d failures at p=0", c.Name, r.LogicalFailures)
		}
	}
}

// TestDistance3QuadraticSuppression: for d=3 codes the logical rate
// must fall roughly quadratically with p (dominated by weight-2
// errors); check the ratio between p=0.02 and p=0.002 is much larger
// than linear scaling would give.
func TestDistance3QuadraticSuppression(t *testing.T) {
	for _, c := range []*Code{Perfect5(), Steane7(), Shor9()} {
		hi, err := MonteCarloLogicalErrorBackend(c, 0.02, 200000, 7, BackendBatch)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := MonteCarloLogicalErrorBackend(c, 0.002, 200000, 8, BackendBatch)
		if err != nil {
			t.Fatal(err)
		}
		if hi.LogicalRate == 0 || lo.LogicalRate == 0 {
			t.Skipf("%s: rates too small at these trials", c.Name)
		}
		ratio := hi.LogicalRate / lo.LogicalRate
		// Quadratic scaling predicts 100x; allow a wide statistical
		// band but demand clearly super-linear (>25x).
		if ratio < 25 {
			t.Errorf("%s: suppression ratio %.1f, want >25 (quadratic)", c.Name, ratio)
		}
	}
}

// TestRepetitionCodeLinearFailure: the bit-flip code leaks Z errors at
// first order — its logical rate tracks p linearly.
func TestRepetitionCodeLinearFailure(t *testing.T) {
	c := Bitflip3()
	hi, err := MonteCarloLogicalErrorBackend(c, 0.02, 100000, 9, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := MonteCarloLogicalErrorBackend(c, 0.002, 100000, 10, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	ratio := hi.LogicalRate / lo.LogicalRate
	if ratio < 5 || ratio > 20 {
		t.Fatalf("suppression ratio %.1f, want ~10 (linear leak)", ratio)
	}
	// And at equal p, the d=1 code must fail far more often than Steane.
	steane, err := MonteCarloLogicalErrorBackend(Steane7(), 0.02, 100000, 11, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	if hi.LogicalRate <= steane.LogicalRate {
		t.Fatalf("bit-flip %.4g should fail more than Steane %.4g at p=0.02",
			hi.LogicalRate, steane.LogicalRate)
	}
}

// TestSweepShape: the sweep returns rows for every code at every p and
// rates are monotone in p for each code (statistically, at these trial
// counts and well-separated points).
func TestSweepShape(t *testing.T) {
	ps := []float64{0.001, 0.01, 0.05}
	rows, err := MonteCarloSweepBackend(ps, 40000, 13, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(All())*len(ps) {
		t.Fatalf("rows %d", len(rows))
	}
	for i := 0; i < len(rows); i += len(ps) {
		for j := 1; j < len(ps); j++ {
			if rows[i+j].LogicalRate < rows[i+j-1].LogicalRate {
				t.Errorf("%s: rate not monotone (%g then %g)",
					rows[i+j].Code, rows[i+j-1].LogicalRate, rows[i+j].LogicalRate)
			}
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	a, err := MonteCarloLogicalErrorBackend(Steane7(), 0.03, 5000, 77, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloLogicalErrorBackend(Steane7(), 0.03, 5000, 77, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	if a.LogicalFailures != b.LogicalFailures {
		t.Fatal("non-deterministic MC")
	}
	if math.Abs(a.LogicalRate-float64(a.LogicalFailures)/5000) > 1e-15 {
		t.Fatal("rate inconsistent with counts")
	}
}

// TestMonteCarloBackendAgreement: the scalar and batch backends draw
// different random streams but must estimate the same logical rate for
// every catalog code (two-proportion z-test; fixed seeds make the 5σ
// bound deterministic, not flaky).
func TestMonteCarloBackendAgreement(t *testing.T) {
	const trials = 30000
	for _, c := range All() {
		s, err := MonteCarloLogicalErrorBackend(c, 0.03, trials, 404, BackendScalar)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MonteCarloLogicalErrorBackend(c, 0.03, trials, 505, BackendBatch)
		if err != nil {
			t.Fatal(err)
		}
		if s.LogicalFailures == 0 || b.LogicalFailures == 0 {
			t.Fatalf("%s: no failures at p=0.03 (scalar %d, batch %d); test has no power",
				c.Name, s.LogicalFailures, b.LogicalFailures)
		}
		p1 := s.LogicalRate
		p2 := b.LogicalRate
		pool := float64(s.LogicalFailures+b.LogicalFailures) / (2 * trials)
		se := math.Sqrt(pool * (1 - pool) * (2.0 / trials))
		if z := math.Abs(p1-p2) / se; z > 5 {
			t.Errorf("%s: backends disagree: scalar %.4g, batch %.4g (z=%.2f)", c.Name, p1, p2, z)
		}
	}
}

// TestMonteCarloBatchMatchesScalarCensus: at p=1 every qubit errs in
// every trial on both backends, so the decoders face the same dense
// error population; the heavy-error regime (table misses everywhere)
// must not diverge between the two engines.
func TestMonteCarloBatchMatchesScalarCensus(t *testing.T) {
	for _, c := range All() {
		s, err := MonteCarloLogicalErrorBackend(c, 1, 512, 3, BackendScalar)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MonteCarloLogicalErrorBackend(c, 1, 512, 3, BackendBatch)
		if err != nil {
			t.Fatal(err)
		}
		// At p=1 the hit masks are deterministic (all lanes hit) but the
		// per-hit Pauli choices still differ by stream; compare rates
		// loosely and failure counts for plausibility.
		if math.Abs(s.LogicalRate-b.LogicalRate) > 0.15 {
			t.Errorf("%s: p=1 rates far apart: scalar %.3f, batch %.3f", c.Name, s.LogicalRate, b.LogicalRate)
		}
	}
}

func TestMonteCarloBackendValidation(t *testing.T) {
	_, err := MonteCarloLogicalErrorBackend(Steane7(), 0.01, 10, 1, "warp")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	const want = `codes: unknown backend "warp" (want "batch" or "scalar")`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestMonteCarloBatchDeterministic(t *testing.T) {
	a, err := MonteCarloLogicalErrorBackend(Steane7(), 0.03, 5000, 77, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloLogicalErrorBackend(Steane7(), 0.03, 5000, 77, BackendBatch)
	if err != nil {
		t.Fatal(err)
	}
	if a.LogicalFailures != b.LogicalFailures {
		t.Fatal("non-deterministic batch MC")
	}
}

func BenchmarkMonteCarloSteane(b *testing.B) {
	c := Steane7()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloLogicalErrorBackend(c, 0.01, 2000, uint64(i), BackendBatch); err != nil {
			b.Fatal(err)
		}
	}
}
