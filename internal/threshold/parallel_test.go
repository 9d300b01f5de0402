package threshold

import (
	"context"
	"reflect"
	"testing"
)

// TestParallelMatchesSerial: trials are seeded from their global index,
// so the aggregate must be bit-identical at any worker-pool width.
func TestParallelMatchesSerial(t *testing.T) {
	base := Config{
		Level:       1,
		PhysError:   3e-3,
		MovePerCell: DefaultMovePerCell,
		Trials:      4000,
		Seed:        19,
	}
	serial := base
	serial.Parallelism = 1
	want, err := RunCtx(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 16} {
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

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, Config{
		Level:       1,
		PhysError:   3e-3,
		MovePerCell: DefaultMovePerCell,
		Trials:      100000,
		Seed:        1,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
