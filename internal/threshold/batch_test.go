package threshold

import (
	"context"
	"math"
	"reflect"
	"testing"

	"qla/internal/iontrap"
)

// TestBatchSingleFaultEquivalenceLevel1: under deterministic fault
// injection the two backends must agree EXACTLY — same site census,
// and the same logical-failure verdict for every (site, choice) pair.
// The fault is planted in an arbitrary interior lane; every other lane
// runs fault-free and must stay clean.
func TestBatchSingleFaultEquivalenceLevel1(t *testing.T) {
	const lane = 37
	_, scalarTotal := SingleFaultTrial(1, -1, 0)
	_, _, batchTotal := SingleFaultTrialBatch(1, -1, 0, lane)
	if scalarTotal != batchTotal {
		t.Fatalf("site census disagrees: scalar %d, batch %d", scalarTotal, batchTotal)
	}
	for site := int64(0); site < scalarTotal; site++ {
		for choice := 0; choice < 15; choice += 2 {
			want, _ := SingleFaultTrial(1, site, choice)
			got, othersClean, _ := SingleFaultTrialBatch(1, site, choice, lane)
			if got != want {
				t.Fatalf("site %d choice %d: batch fail=%v, scalar fail=%v", site, choice, got, want)
			}
			if !othersClean {
				t.Fatalf("site %d choice %d: fault leaked into other lanes", site, choice)
			}
		}
	}
}

// TestBatchSingleFaultEquivalenceLevel2 strides the (much larger)
// level-2 site space.
func TestBatchSingleFaultEquivalenceLevel2(t *testing.T) {
	const lane = 0
	_, scalarTotal := SingleFaultTrial(2, -1, 0)
	_, _, batchTotal := SingleFaultTrialBatch(2, -1, 0, lane)
	if scalarTotal != batchTotal {
		t.Fatalf("site census disagrees: scalar %d, batch %d", scalarTotal, batchTotal)
	}
	stride := int64(101)
	if testing.Short() {
		stride = 997
	}
	for site := int64(0); site < scalarTotal; site += stride {
		for _, choice := range []int{0, 7, 14} {
			want, _ := SingleFaultTrial(2, site, choice)
			got, othersClean, _ := SingleFaultTrialBatch(2, site, choice, lane)
			if got != want {
				t.Fatalf("site %d choice %d: batch fail=%v, scalar fail=%v", site, choice, got, want)
			}
			if !othersClean {
				t.Fatalf("site %d choice %d: fault leaked into other lanes", site, choice)
			}
		}
	}
}

// zTest returns the two-proportion z statistic for k1/n1 vs k2/n2.
func zTest(k1 int64, n1 int, k2 int64, n2 int) float64 {
	p1 := float64(k1) / float64(n1)
	p2 := float64(k2) / float64(n2)
	pool := float64(k1+k2) / float64(n1+n2)
	if pool == 0 || pool == 1 {
		return 0
	}
	se := math.Sqrt(pool * (1 - pool) * (1/float64(n1) + 1/float64(n2)))
	return math.Abs(p1-p2) / se
}

// TestBatchScalarStatisticalAgreement: at a mid-sweep Figure-7 point
// the two backends draw different random streams but must estimate the
// same failure and non-trivial-syndrome rates. 5σ on fixed seeds is
// deterministic, not flaky.
func TestBatchScalarStatisticalAgreement(t *testing.T) {
	const trials = 30000
	base := Config{Level: 1, PhysError: 2.5e-3, MovePerCell: DefaultMovePerCell, Trials: trials}
	scalar := base
	scalar.Backend = BackendScalar
	scalar.Seed = 101
	sp, err := RunCtx(context.Background(), scalar)
	if err != nil {
		t.Fatal(err)
	}
	batch := base
	batch.Backend = BackendBatch
	batch.Seed = 202
	bp, err := RunCtx(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Failures == 0 || bp.Failures == 0 {
		t.Fatalf("operating point produced no failures (scalar %d, batch %d); test has no power",
			sp.Failures, bp.Failures)
	}
	if z := zTest(int64(sp.Failures), trials, int64(bp.Failures), trials); z > 5 {
		t.Errorf("failure rates disagree: scalar %.4g, batch %.4g (z=%.2f)", sp.FailRate, bp.FailRate, z)
	}
	// The non-trivial syndrome fraction is a per-extraction ratio (the
	// denominators differ between backends), so compare with a relative
	// tolerance rather than a z statistic.
	if diff := math.Abs(sp.NonTrivial - bp.NonTrivial); diff > 0.25*(sp.NonTrivial+bp.NonTrivial)/2+0.01 {
		t.Errorf("non-trivial syndrome fractions disagree: scalar %.4g, batch %.4g", sp.NonTrivial, bp.NonTrivial)
	}
}

// TestBatchScalarAgreementAtTable1Point: the Table-1 operating point
// (expected technology parameters) drives the Section-4.1.1 syndrome
// statistics; the backends must agree there too.
func TestBatchScalarAgreementAtTable1Point(t *testing.T) {
	const trials = 120000
	exp := iontrap.Expected()
	run := func(backend string, seed uint64) Point {
		p, err := RunCtx(context.Background(), Config{
			Level:       1,
			PhysError:   exp.Fail[iontrap.OpDouble],
			MovePerCell: exp.Fail[iontrap.OpMoveCell],
			Trials:      trials,
			Seed:        seed,
			Backend:     backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sp := run(BackendScalar, 301)
	bp := run(BackendBatch, 302)
	if sp.Failures != 0 || bp.Failures != 0 {
		t.Errorf("expected parameters should be failure-free (scalar %d, batch %d)", sp.Failures, bp.Failures)
	}
	// Paper: 3.35e-4 non-trivial syndromes per extraction at level 1.
	for name, p := range map[string]Point{"scalar": sp, "batch": bp} {
		if p.NonTrivial < 3e-5 || p.NonTrivial > 3e-3 {
			t.Errorf("%s: non-trivial syndrome rate %.3g outside the paper's ballpark", name, p.NonTrivial)
		}
	}
	ratio := sp.NonTrivial / bp.NonTrivial
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("backends disagree at the Table-1 point: scalar %.3g, batch %.3g", sp.NonTrivial, bp.NonTrivial)
	}
}

// TestBatchParallelMatchesSerial: the batch backend seeds every
// 64-trial block from its global block index, so results must be
// bit-identical at any worker-pool width — the reproducibility
// contract the spec-hash result cache relies on.
func TestBatchParallelMatchesSerial(t *testing.T) {
	base := Config{
		Level:       1,
		PhysError:   3e-3,
		MovePerCell: DefaultMovePerCell,
		Trials:      4000,
		Seed:        19,
		Backend:     BackendBatch,
	}
	serial := base
	serial.Parallelism = 1
	want, err := RunCtx(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16, 64} {
		cfg := base
		cfg.Parallelism = workers
		got, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: %+v != serial %+v", workers, got, want)
		}
	}
}

// TestBatchPartialBlock: trial counts that are not multiples of 64 must
// score only the live lanes.
func TestBatchPartialBlock(t *testing.T) {
	for _, trials := range []int{1, 3, 63, 65, 100} {
		pt, err := RunCtx(context.Background(), Config{
			Level: 1, PhysError: 0, MovePerCell: 0,
			Trials: trials, Seed: 1, Backend: BackendBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Failures != 0 {
			t.Errorf("trials=%d: %d failures with zero noise", trials, pt.Failures)
		}
		if pt.Trials != trials {
			t.Errorf("trials=%d: point reports %d", trials, pt.Trials)
		}
		// One extraction per error kind per live trial, no retries.
		if pt.NonTrivial != 0 || pt.PrepRetry != 0 {
			t.Errorf("trials=%d: clean run produced syndrome activity", trials)
		}
	}
	// Dead lanes must not leak into the statistics at high error rates
	// either: a 1-trial run can at most fail once.
	pt, err := RunCtx(context.Background(), Config{
		Level: 1, PhysError: 0.2, MovePerCell: DefaultMovePerCell,
		Trials: 1, Seed: 7, Backend: BackendBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Failures > 1 {
		t.Errorf("1-trial run reports %d failures", pt.Failures)
	}
}

// TestBatchHighErrorRetries: the masked "Start Over" retry path engages
// under heavy noise.
func TestBatchHighErrorRetries(t *testing.T) {
	pt, err := RunCtx(context.Background(), Config{
		Level: 1, PhysError: 0.2, MovePerCell: DefaultMovePerCell,
		Trials: 640, Seed: 9, Backend: BackendBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.FailRate < 0.2 {
		t.Errorf("at p=0.2 the gadget should fail frequently, got %.3f", pt.FailRate)
	}
	if pt.PrepRetry == 0 {
		t.Error("at p=0.2 ancilla verification should be retrying")
	}
}

// TestBackendValidation: unknown backends are rejected, named backends
// are honored.
func TestBackendValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{Level: 1, PhysError: 1e-3, Trials: 10, Backend: "bogus"}); err == nil {
		t.Error("unknown backend must be rejected")
	}
	for _, b := range []string{"", BackendBatch, BackendScalar} {
		if _, err := RunCtx(context.Background(), Config{Level: 1, PhysError: 1e-3, MovePerCell: DefaultMovePerCell, Trials: 10, Backend: b}); err != nil {
			t.Errorf("backend %q rejected: %v", b, err)
		}
	}
}

// TestBatchLevel2Smoke: the level-2 batched pipeline runs end to end
// and matches the scalar backend's qualitative behavior (failures grow
// with physical error).
func TestBatchLevel2Smoke(t *testing.T) {
	lo, err := RunCtx(context.Background(), Config{Level: 2, PhysError: 1e-3, MovePerCell: DefaultMovePerCell, Trials: 640, Seed: 5, Backend: BackendBatch})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunCtx(context.Background(), Config{Level: 2, PhysError: 8e-3, MovePerCell: DefaultMovePerCell, Trials: 640, Seed: 6, Backend: BackendBatch})
	if err != nil {
		t.Fatal(err)
	}
	if hi.FailRate <= lo.FailRate {
		t.Errorf("batch level-2 failure rate did not grow with physical error (%g -> %g)", lo.FailRate, hi.FailRate)
	}
}
