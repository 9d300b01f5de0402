package commsim

import (
	"context"
	"math"
	"testing"

	"qla/internal/pauliframe"
)

// TestChainBatchBitExactScalar: every batch lane replays the scalar
// backend's per-trial noise RNG stream and the protocol's classical
// quantities are deterministic in the ideal circuit, so the two
// backends must agree BIT-EXACTLY at the same seed — same basis-split
// error counts and the same RawPairsMean, not merely statistical
// compatibility. Trial counts straddle block boundaries (short final
// blocks, odd basis splits).
func TestChainBatchBitExactScalar(t *testing.T) {
	for _, cfg := range []ChainConfig{
		{Links: 2, LinkEps: 0.06, PurifyRounds: 1, SwapEps: 0.01, Trials: 320, Seed: 9},
		{Links: 1, LinkEps: 0.12, PurifyRounds: 2, Trials: 200, Seed: 4},
		{Links: 4, LinkEps: 0.05, PurifyRounds: 0, SwapEps: 0.02, Trials: 257, Seed: 12},
		{Links: 3, LinkEps: 0.09, PurifyRounds: 1, SwapEps: 0.0, Trials: 63, Seed: 31},
	} {
		scalar := cfg
		scalar.Backend = BackendScalar
		want, err := RunChainCtx(context.Background(), scalar)
		if err != nil {
			t.Fatal(err)
		}
		batch := cfg
		batch.Backend = BackendBatch
		got, err := RunChainCtx(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if got.ZBasisErrors != want.ZBasisErrors || got.XBasisErrors != want.XBasisErrors {
			t.Errorf("%+v: batch errors %d/%d, scalar %d/%d", cfg,
				got.ZBasisErrors, got.XBasisErrors, want.ZBasisErrors, want.XBasisErrors)
		}
		if got.ZTrials != want.ZTrials || got.XTrials != want.XTrials {
			t.Errorf("%+v: basis split %d/%d vs %d/%d", cfg,
				got.ZTrials, got.XTrials, want.ZTrials, want.XTrials)
		}
		if got.RawPairsMean != want.RawPairsMean {
			t.Errorf("%+v: batch RawPairsMean %v, scalar %v", cfg,
				got.RawPairsMean, want.RawPairsMean)
		}
	}
}

// TestChainBatchForcedFaultLane: a parity disagreement forced into
// exactly one lane must make exactly that lane re-run the purification
// attempt — it alone consumes extra raw pairs, every other lane's
// count matches a clean run, and (with zero physical noise) no lane
// errs.
func TestChainBatchForcedFaultLane(t *testing.T) {
	cfg := ChainConfig{Links: 1, PurifyRounds: 2, Trials: 64, Seed: 7}
	const faultLane = 13

	clean := newBatchChain(cfg)
	clean.reset(0, pauliframe.Lanes)
	if _, err := clean.run(^uint64(0)); err != nil {
		t.Fatal(err)
	}

	faulty := newBatchChain(cfg)
	faulty.reset(0, pauliframe.Lanes)
	fired := false
	faulty.forceDisagree = func(k, attempt int) uint64 {
		// One-shot: the level-2 build visits a k=1 junction for both
		// the kept pair and the sacrificial pair; fault only the first.
		if k == 1 && attempt == 0 && !fired {
			fired = true
			return 1 << faultLane
		}
		return 0
	}
	errMask, err := faulty.run(^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if errMask != 0 {
		t.Fatalf("noise-free retry produced errors: %#x", errMask)
	}
	for l := 0; l < pauliframe.Lanes; l++ {
		want := clean.raw[l]
		if l == faultLane {
			// One retried level-1 attempt rebuilds both level-0 pairs.
			want += 2
		}
		if faulty.raw[l] != want {
			t.Errorf("lane %d: raw pairs %d, want %d", l, faulty.raw[l], want)
		}
	}
}

// TestChainBatchForcedFaultRetryIsolation: the forced lane's extra
// attempts run under a mask that excludes every converged lane, so a
// second forced disagreement at the *retried* attempt must charge the
// fault lane again and nobody else.
func TestChainBatchForcedFaultRetryIsolation(t *testing.T) {
	cfg := ChainConfig{Links: 2, PurifyRounds: 1, Trials: 64, Seed: 3}
	const faultLane = 60

	clean := newBatchChain(cfg)
	clean.reset(0, pauliframe.Lanes)
	if _, err := clean.run(^uint64(0)); err != nil {
		t.Fatal(err)
	}

	faulty := newBatchChain(cfg)
	faulty.reset(0, pauliframe.Lanes)
	faulty.forceDisagree = func(k, attempt int) uint64 {
		if k == 1 && attempt <= 1 {
			return 1 << faultLane
		}
		return 0
	}
	if _, err := faulty.run(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < pauliframe.Lanes; l++ {
		want := clean.raw[l]
		if l == faultLane {
			// Both links' junctions retry twice: 2 links × 2 retries ×
			// 2 raw pairs per attempt.
			want += 8
		}
		if faulty.raw[l] != want {
			t.Errorf("lane %d: raw pairs %d, want %d", l, faulty.raw[l], want)
		}
	}
}

// TestChainBatchParallelMatchesSerial: 64-trial blocks are seeded by
// their global index and integer-summed, so the batch backend is
// bit-identical at any worker-pool width.
func TestChainBatchParallelMatchesSerial(t *testing.T) {
	base := ChainConfig{
		Links: 3, LinkEps: 0.07, PurifyRounds: 1, SwapEps: 0.01,
		Trials: 1200, Seed: 29, Backend: BackendBatch,
	}
	serial := base
	serial.Parallelism = 1
	want, err := RunChainCtx(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		cfg := base
		cfg.Parallelism = workers
		got, err := RunChainCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Config, want.Config = ChainConfig{}, ChainConfig{}
		if got != want {
			t.Fatalf("parallelism %d: %+v != serial %+v", workers, got, want)
		}
	}
}

// TestChainBackendStatisticalAgreement: belt and suspenders on top of
// the bit-exactness test — at *different* seeds the two backends must
// still estimate the same error rate (two-proportion z-test; fixed
// seeds make the 5σ bound deterministic, not flaky).
func TestChainBackendStatisticalAgreement(t *testing.T) {
	const trials = 4000
	base := ChainConfig{Links: 2, LinkEps: 0.08, PurifyRounds: 1, SwapEps: 0.01, Trials: trials}
	scalar := base
	scalar.Backend = BackendScalar
	scalar.Seed = 101
	sp, err := RunChainCtx(context.Background(), scalar)
	if err != nil {
		t.Fatal(err)
	}
	batch := base
	batch.Backend = BackendBatch
	batch.Seed = 202
	bp, err := RunChainCtx(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	k1 := sp.ZBasisErrors + sp.XBasisErrors
	k2 := bp.ZBasisErrors + bp.XBasisErrors
	if k1 == 0 || k2 == 0 {
		t.Fatalf("operating point produced no errors (scalar %d, batch %d); test has no power", k1, k2)
	}
	p1 := float64(k1) / trials
	p2 := float64(k2) / trials
	pool := float64(k1+k2) / (2 * trials)
	se := math.Sqrt(pool * (1 - pool) * (2.0 / trials))
	if z := math.Abs(p1-p2) / se; z > 5 {
		t.Errorf("error rates disagree: scalar %.4f, batch %.4f (z=%.2f)", p1, p2, z)
	}
	if ratio := sp.RawPairsMean / bp.RawPairsMean; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("raw-pair means disagree: scalar %.3f, batch %.3f", sp.RawPairsMean, bp.RawPairsMean)
	}
}

// TestChainBackendValidation: unknown backend names are rejected with
// the catalogued error text.
func TestChainBackendValidation(t *testing.T) {
	cfg := ChainConfig{Links: 1, Trials: 10, Backend: "warp"}
	_, err := RunChainCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	const want = `commsim: unknown backend "warp" (want "batch" or "scalar")`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
