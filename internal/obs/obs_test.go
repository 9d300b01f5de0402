package obs

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("qla_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("qla_test_total", "test counter"); same != c {
		t.Fatalf("re-registering returned a different counter")
	}

	g := r.Gauge("qla_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatalf("nil registry must return nil instruments")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
}

// TestHistogramBucketBoundaries pins the le semantics: an observation
// exactly at a bound counts into that bound's bucket; just above goes
// to the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("qla_test_seconds", "test", []float64{1, 2, 4})

	h.Observe(0.5)  // below first bound -> bucket le=1
	h.Observe(1.0)  // exactly at bound  -> bucket le=1
	h.Observe(1.01) // just above        -> bucket le=2
	h.Observe(2.0)  // at second bound   -> bucket le=2
	h.Observe(4.0)  // at last bound     -> bucket le=4
	h.Observe(4.5)  // above all bounds  -> +Inf only

	cum := h.BucketCounts()
	want := []uint64{2, 4, 5, 6} // cumulative: le=1, le=2, le=4, +Inf
	if len(cum) != len(want) {
		t.Fatalf("bucket count len = %d, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative bucket[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1.0+1.01+2.0+4.0+4.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("qla_test_seconds", "test", ExpBuckets(1e-3, 2, 10))
	c := r.Counter("qla_test_total", "test")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	cum := h.BucketCounts()
	if got := cum[len(cum)-1]; got != workers*per {
		t.Fatalf("+Inf cumulative = %d, want %d", got, workers*per)
	}
}

func TestVecCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("qla_test_total", "test", "tenant")
	for i := 0; i < maxSeries+50; i++ {
		v.With(fmt.Sprintf("tenant-%d", i)).Inc()
	}
	over := v.With("one-more")
	if over != v.With("and-another") {
		t.Fatalf("past the cap, new label combos must share the overflow child")
	}
	over.Inc()
	v.f.mu.Lock()
	n := len(v.f.children)
	oc, ok := v.f.children[Overflow]
	v.f.mu.Unlock()
	if n != maxSeries+1 {
		t.Fatalf("children = %d, want %d (cap + overflow)", n, maxSeries+1)
	}
	if !ok || oc.c.Value() != 51 {
		t.Fatalf("overflow child count = %d (present=%v), want 51", oc.c.Value(), ok)
	}
	// Existing children keep resolving after the cap.
	if v.With("tenant-3").Value() != 1 {
		t.Fatalf("pre-cap child lost after overflow")
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("qla_a_total", "a counter").Add(7)
	r.CounterVec("qla_b_total", "b counter", "route", "status").With(`ro"te`, "200").Inc()
	r.Gauge("qla_c", "a gauge").Set(1.25)
	h := r.Histogram("qla_d_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("qla_e", "pulled", map[string]string{"tier": "memory"}, func() float64 { return 3 })
	r.GaugeFunc("qla_e", "pulled", map[string]string{"tier": "disk"}, func() float64 { return 2 })
	// A pre-created child renders at zero before its first increment.
	r.CounterVec("qla_f_total", "pre-created", "tier").With("peer")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP qla_a_total a counter\n# TYPE qla_a_total counter\nqla_a_total 7\n",
		`qla_b_total{route="ro\"te",status="200"} 1`,
		"# TYPE qla_c gauge\nqla_c 1.25\n",
		`qla_d_seconds_bucket{le="0.1"} 1`,
		`qla_d_seconds_bucket{le="1"} 2`,
		`qla_d_seconds_bucket{le="+Inf"} 3`,
		"qla_d_seconds_sum 5.55",
		"qla_d_seconds_count 3",
		`qla_e{tier="memory"} 3`,
		`qla_e{tier="disk"} 2`,
		`qla_f_total{tier="peer"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE qla_e gauge"); n != 1 {
		t.Errorf("family header for qla_e written %d times, want 1", n)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-5, 2, 4)
	want := []float64{1e-5, 2e-5, 4e-5, 8e-5}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestTraceContext(t *testing.T) {
	id := NewTraceID()
	if len(id) != 32 || SanitizeTraceID(id) != id {
		t.Fatalf("NewTraceID returned %q", id)
	}
	if other := NewTraceID(); other == id {
		t.Fatalf("two trace IDs collided: %q", id)
	}
	ctx := WithTrace(context.Background(), id)
	if got := TraceFrom(ctx); got != id {
		t.Fatalf("TraceFrom = %q, want %q", got, id)
	}
	// Values survive WithoutCancel — how a cache flight keeps its first
	// caller's trace.
	if got := TraceFrom(context.WithoutCancel(ctx)); got != id {
		t.Fatalf("trace lost through WithoutCancel: %q", got)
	}
	if TraceFrom(context.Background()) != "" || TraceFrom(nil) != "" {
		t.Fatalf("empty contexts must yield empty trace")
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "sp ace", "new\nline", `quo"te`} {
		if SanitizeTraceID(bad) != "" {
			t.Errorf("SanitizeTraceID(%q) accepted", bad)
		}
	}
	if SanitizeTraceID("abc-DEF_1.2:3") != "abc-DEF_1.2:3" {
		t.Errorf("SanitizeTraceID rejected a valid ID")
	}
}

func TestTraceLogger(t *testing.T) {
	var b strings.Builder
	base := slog.New(slog.NewTextHandler(&b, nil))
	ctx := WithTrace(context.Background(), "abc123")
	L(ctx, base).Info("hello")
	if !strings.Contains(b.String(), "trace=abc123") {
		t.Fatalf("log line missing trace attr: %s", b.String())
	}
	b.Reset()
	L(context.Background(), base).Info("no trace")
	if strings.Contains(b.String(), "trace=") {
		t.Fatalf("untraced log line grew a trace attr: %s", b.String())
	}
}
