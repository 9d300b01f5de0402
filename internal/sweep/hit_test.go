package sweep

import (
	"context"
	"strings"
	"testing"
	"time"

	"qla/internal/cache"
	"qla/internal/engine"
	"qla/internal/obs"
)

// TestMemoryHitArmsNoDeadline: a point the memory tier holds is
// answered before the per-attempt deadline is armed — a hot sweep
// point allocates nothing, neither a timer nor a compute closure.
func TestMemoryHitArmsNoDeadline(t *testing.T) {
	sw := expandSmall(t)
	eng := engine.New()
	r := &Runner{Engine: eng, Cache: cache.New(1 << 20), Retry: RetryPolicy{MaxAttempts: 3, PointTimeout: time.Minute}}
	if _, err := r.Run(context.Background(), sw, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if pr := r.runPoint(ctx, eng, sw, 1); !pr.Cached || pr.Status != "ok" {
			t.Fatalf("primed point replayed as %+v", pr)
		}
	})
	if allocs != 0 {
		t.Fatalf("a memory-hit point allocates %v times", allocs)
	}
}

// TestMemoryHitCounted: points answered by the memory tier still count
// as memory hits in the cache's metrics and as cached points in the
// per-point duration histogram.
func TestMemoryHitCounted(t *testing.T) {
	sw := expandSmall(t)
	reg := obs.NewRegistry()
	r := &Runner{
		Engine:  engine.New(),
		Cache:   cache.New(1<<20, cache.WithMetrics(reg)),
		Retry:   RetryPolicy{PointTimeout: time.Minute},
		Metrics: NewPointMetrics(reg),
	}
	for range 2 {
		if _, err := r.Run(context.Background(), sw, nil); err != nil {
			t.Fatal(err)
		}
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`qla_cache_hits_total{tier="memory"} 4`,
		`qla_sweep_point_duration_seconds_count{outcome="cached"} 4`,
		`qla_sweep_point_duration_seconds_count{outcome="ok"} 4`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("metrics lack %s:\n%s", want, text.String())
		}
	}
}
