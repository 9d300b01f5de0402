package commsim

import (
	"context"
	"reflect"
	"testing"
)

// TestParallelMatchesSerial: both RNG streams of a trial derive from the
// trial's global index (and each worker's reused scratch resets to that
// trial-indexed state), so the aggregate must be bit-identical at any
// worker-pool width — on both backends.
func TestParallelMatchesSerial(t *testing.T) {
	for _, backend := range []string{BackendScalar, BackendBatch} {
		base := ChainConfig{
			Links: 3, LinkEps: 0.07, PurifyRounds: 1, SwapEps: 0.01,
			Trials: 1200, Seed: 29, Backend: backend,
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
			// Configs differ only in Parallelism; the measurements must not.
			got.Config, want.Config = ChainConfig{}, ChainConfig{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parallelism %d: %+v != serial %+v", backend, workers, got, want)
			}
		}
	}
}

func TestRunChainCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunChainCtx(ctx, ChainConfig{
		Links: 2, LinkEps: 0.05, Trials: 100000, Seed: 1,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
