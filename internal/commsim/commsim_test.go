package commsim

import (
	"context"
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	good := ChainConfig{Links: 2, LinkEps: 0.05, PurifyRounds: 1, Trials: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ChainConfig{
		{Links: 0, Trials: 10},
		{Links: 1, LinkEps: 0.6, Trials: 10},
		{Links: 1, LinkEps: -0.1, Trials: 10},
		{Links: 1, PurifyRounds: -1, Trials: 10},
		{Links: 1, PurifyRounds: 9, Trials: 10},
		{Links: 1, SwapEps: 0.7, Trials: 10},
		{Links: 1, Trials: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

func TestNoiselessChainIsPerfect(t *testing.T) {
	res, err := RunChainCtx(context.Background(), ChainConfig{Links: 4, Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate != 0 {
		t.Fatalf("noiseless chain error rate %g", res.ErrorRate)
	}
	if res.PredictedError > 1e-12 {
		t.Fatalf("prediction should be 0, got %g", res.PredictedError)
	}
	if res.RawPairsMean != 4 {
		t.Fatalf("raw pairs %g, want exactly 4 (one per link)", res.RawPairsMean)
	}
}

func TestFullyTrackedBases(t *testing.T) {
	res, err := RunChainCtx(context.Background(), ChainConfig{Links: 2, LinkEps: 0.1, Trials: 101, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZTrials+res.XTrials != 101 {
		t.Fatalf("trials split %d+%d != 101", res.ZTrials, res.XTrials)
	}
	if res.ZTrials != 51 || res.XTrials != 50 {
		t.Fatalf("basis split %d/%d", res.ZTrials, res.XTrials)
	}
}

// TestErrorRateTracksPrediction: the measured error rate must sit in a
// band around the Werner-model prediction. A Werner pair of fidelity F
// errs in one fixed basis with probability 2(1-F)/3, so the combined
// two-basis observable is ~2/3 of the envelope 1-F.
func TestErrorRateTracksPrediction(t *testing.T) {
	res, err := RunChainCtx(context.Background(), ChainConfig{
		Links: 3, LinkEps: 0.06, SwapEps: 0.01, Trials: 4000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedError <= 0 {
		t.Fatal("expected non-zero prediction")
	}
	lo, hi := 0.3*res.PredictedError, 1.1*res.PredictedError
	if res.ErrorRate < lo || res.ErrorRate > hi {
		t.Fatalf("error rate %.4f outside [%.4f, %.4f] around prediction %.4f",
			res.ErrorRate, lo, hi, res.PredictedError)
	}
}

// TestPurificationImprovesDeliveredState: at fixed link noise, one
// BBPSSW round must reduce the measured error rate.
func TestPurificationImprovesDeliveredState(t *testing.T) {
	raw, err := RunChainCtx(context.Background(), ChainConfig{Links: 2, LinkEps: 0.12, Trials: 3000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pur, err := RunChainCtx(context.Background(), ChainConfig{Links: 2, LinkEps: 0.12, PurifyRounds: 1, Trials: 3000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if pur.ErrorRate >= raw.ErrorRate {
		t.Fatalf("purified %.4f not better than raw %.4f", pur.ErrorRate, raw.ErrorRate)
	}
}

// TestResourceCurveDoubles: raw-pair cost must at least double per
// purification round (2 pairs per round before retry losses).
func TestResourceCurveDoubles(t *testing.T) {
	curve, err := ResourceCurve(0.08, 3, 600, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	for k := 0; k < len(curve); k++ {
		// Structural floor: a level-k pair consumes at least 2^k raws
		// even with zero retries; with noise, strictly more for k >= 1.
		floor := float64(int(1) << uint(k))
		if curve[k].RawPairsMean < floor {
			t.Fatalf("round %d: %.2f pairs below structural floor %g",
				k, curve[k].RawPairsMean, floor)
		}
		if k >= 1 && curve[k].RawPairsMean <= floor {
			t.Fatalf("round %d: %.2f pairs; retries should exceed the floor %g",
				k, curve[k].RawPairsMean, floor)
		}
	}
	// Exponential growth overall: two extra rounds multiply the cost by
	// nearly 4 (exactly 4 at perfect acceptance; retries add more at
	// low rounds, so the measured ratio sits just below 4).
	if ratio := curve[3].RawPairsMean / curve[1].RawPairsMean; ratio < 3.5 {
		t.Fatalf("rounds 1->3 cost ratio %.2f, want >= 3.5 (exponential growth)", ratio)
	}
}

// TestRepeaterBeatsNaive is the paper's contribution-2 claim executed
// on the quantum backend: over a channel long enough that a stretched
// pair is badly degraded, splitting into repeater links delivers a
// lower error rate with the same purification depth.
func TestRepeaterBeatsNaive(t *testing.T) {
	cmp, err := CompareStrategiesCtx(context.Background(), 0.05, 8, 1, 3000, 41, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Repeater.ErrorRate >= cmp.Naive.ErrorRate {
		t.Fatalf("repeater %.4f not better than naive %.4f",
			cmp.Repeater.ErrorRate, cmp.Naive.ErrorRate)
	}
	// The naive pair's accumulated noise should be near the depolarized
	// ceiling; the repeater chain must stay usable (< 25% combined).
	if cmp.Repeater.ErrorRate > 0.25 {
		t.Fatalf("repeater chain unusable: %.4f", cmp.Repeater.ErrorRate)
	}
}

// TestSwapNoiseAccumulates: adding swap noise must not decrease the
// prediction, and the measured rate should grow with chain length.
func TestSwapNoiseAccumulates(t *testing.T) {
	short, err := RunChainCtx(context.Background(), ChainConfig{Links: 2, LinkEps: 0.04, SwapEps: 0.02, Trials: 3000, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunChainCtx(context.Background(), ChainConfig{Links: 6, LinkEps: 0.04, SwapEps: 0.02, Trials: 3000, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if long.PredictedError <= short.PredictedError {
		t.Fatal("prediction should grow with chain length")
	}
	if long.ErrorRate <= short.ErrorRate {
		t.Fatalf("measured error should grow with chain length: %.4f vs %.4f",
			long.ErrorRate, short.ErrorRate)
	}
}

// TestDeterministicSeeding: identical configs give identical results.
func TestDeterministicSeeding(t *testing.T) {
	cfg := ChainConfig{Links: 3, LinkEps: 0.07, PurifyRounds: 1, Trials: 500, Seed: 61}
	a, err := RunChainCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChainCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ErrorRate != b.ErrorRate || a.RawPairsMean != b.RawPairsMean {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestPredictFidelityMonotone: prediction degrades smoothly with link
// noise.
func TestPredictFidelityMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for _, eps := range []float64{0.0, 0.02, 0.05, 0.1, 0.2} {
		cfg := ChainConfig{Links: 4, LinkEps: eps, Trials: 1}
		pe := 1 - cfg.predictFidelity()
		if pe < prev {
			t.Fatalf("prediction not monotone at eps=%g", eps)
		}
		prev = pe
	}
}

func BenchmarkRunChain4Links(b *testing.B) {
	cfg := ChainConfig{Links: 4, LinkEps: 0.05, PurifyRounds: 1, Trials: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := RunChainCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
