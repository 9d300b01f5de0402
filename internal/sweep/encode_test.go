package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"qla/internal/cache"
	"qla/internal/engine"
)

// payload marshals v the way the engine marshals a Result: compact,
// HTML-escaped JSON — the form every stored point payload takes.
func payload(t testing.TB, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// synthResult builds the Result a Runner would aggregate over sw, with
// each point's outcome set by fill (which sees the point's index,
// coordinates and spec hash already in place).
func synthResult(sw *Sweep, fill func(i int, pr *PointResult)) *Result {
	res := &Result{
		Experiment: sw.Experiment, SweepHash: sw.Hash, Fields: sw.Fields,
		Total: len(sw.Points), Points: make([]PointResult, len(sw.Points)),
		Elapsed: 1234567 * time.Nanosecond,
	}
	for i, pt := range sw.Points {
		pr := &res.Points[i]
		*pr = PointResult{Index: i, Coords: pt.Coords, SpecHash: pt.Canonical.Hash}
		fill(i, pr)
		if pr.Status == "ok" {
			res.OK++
		} else {
			res.Failed++
		}
		if pr.Cached {
			res.Cached++
		}
		if pr.Attempts > 1 {
			res.Retried++
			res.RetryAttempts += pr.Attempts - 1
		}
	}
	return res
}

// writeRecorder records what each Write was handed: the bytes, and
// the backing array and length of the slice itself.
type writeRecorder struct {
	buf    bytes.Buffer
	slices map[[2]uintptr]bool
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	if w.slices == nil {
		w.slices = map[[2]uintptr]bool{}
	}
	w.slices[[2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p))}] = true
	return w.buf.Write(p)
}

// checkSettled asserts the settled form of res writes json.Marshal's
// bytes, that Len is the written length, and that every payload was
// written from its own backing array, not from a copy.
func checkSettled(t *testing.T, sw *Sweep, res *Result) {
	t.Helper()
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Settle(sw)
	if err != nil {
		t.Fatal(err)
	}
	var rec writeRecorder
	n, err := s.WriteTo(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("settled bytes differ from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if n != int64(len(want)) || s.Len() != n {
		t.Fatalf("Len %d, WriteTo reported %d, json.Marshal wrote %d", s.Len(), n, len(want))
	}
	for i, pt := range res.Points {
		if len(pt.Result) > 0 && !rec.slices[[2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(pt.Result))), uintptr(len(pt.Result))}] {
			t.Errorf("point %d: payload written from a copy, not its own bytes", i)
		}
	}
}

func expand(t testing.TB, s Spec) *Sweep {
	t.Helper()
	sw, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// nastyError holds every byte class json.Marshal escapes or replaces:
// HTML-sensitive bytes, U+2028/U+2029, NUL and other control bytes,
// and invalid UTF-8.
const nastyError = `engine: "quoted" <tag> & amp` + "\u2028\u2029\n\t\x00\b\f\r\x1f\x7f \xc3\x28 \xe2\x82 \xed\xa0\x80 \xf0\x90\x80 trailing\xff"

// TestSettledMatchesMarshal: a settled result, built from real
// expansions over every axis kind, writes byte for byte what
// json.Marshal writes for the Result it settled, Len is that length,
// and each payload is written from the cache's (here: the Result's)
// own bytes.
func TestSettledMatchesMarshal(t *testing.T) {
	hot := payload(t, map[string]any{"experiment": "figure7", "data": map[string]any{"rate": 1.5e-7, "note": "a<b && c>d \u2028"}})
	other := payload(t, []any{1, "two", nil, true, 3.25})
	okAll := func(i int, pr *PointResult) {
		pr.Status, pr.Attempts, pr.Elapsed, pr.Result = "ok", 1, time.Duration(1000*i+7), hot
		if i%2 == 1 {
			pr.Cached, pr.Result = true, other
		}
	}
	cases := []struct {
		name string
		spec Spec
		fill func(i int, pr *PointResult)
	}{
		{"ok and cached", gridSpec(), okAll},
		{"failed retried and cached", gridSpec(), func(i int, pr *PointResult) {
			switch i % 4 {
			case 0:
				pr.Status, pr.Elapsed, pr.Attempts, pr.Error = "error", 9, 3, nastyError
			case 1:
				pr.Status, pr.Attempts, pr.Result = "ok", 2, hot
			case 2:
				pr.Status, pr.Error = "error", "deadline"
			default:
				pr.Status, pr.Cached, pr.Attempts, pr.Result = "ok", true, 1, other
			}
		}},
		{"every axis kind", Spec{
			Base: engine.Spec{Experiment: "figure7", Params: engine.Params{"trials": 64}},
			Axes: []Axis{
				{Field: "params.phys-errors", Values: []any{[]float64{1e-7, 0.004, 1e21}, []any{}, []float64{math.Copysign(0, -1), 2.5e-9}}},
				{Field: "params.seed", Values: []any{uint64(1)<<53 + 1, uint64(math.MaxUint64), 0.0}},
				{Field: "params.backend", Values: []any{"batch", "scalar"}},
			},
		}, okAll},
		{"int lists and bools", Spec{
			Base: engine.Spec{Experiment: "compare-adders"},
			Axes: []Axis{
				{Field: "params.widths", Values: []any{[]any{}, []int{4, 8, -3}}},
				{Field: "params.with-modular", Values: []any{true, false}},
			},
		}, okAll},
		{"nil int list", Spec{
			Base: engine.Spec{Experiment: "compare-adders"},
			Axes: []Axis{{Field: "params.widths", Values: []any{[]int(nil), []int{16}}}},
		}, okAll},
		{"scalar floats and machine axes", Spec{
			Base: engine.Spec{Experiment: "equation2"},
			Axes: []Axis{
				{Field: "machine.param_set", Values: []any{"current", "expected"}},
				{Field: "params.p0", Values: []any{math.Copysign(0, -1), 1e-7, 1e21, 0.001}},
				{Field: "machine.bandwidth", Values: []any{3, 1}},
				{Field: "machine.level", Values: []any{1, 2}},
			},
		}, okAll},
		{"escaped strings", Spec{
			Base: engine.Spec{Experiment: "arq-estimate"},
			Axes: []Axis{{Field: "params.circuit", Values: []any{
				"qubits 1\nh 0 # <&> \"q\" \u2028\u2029",
				"qubits 2\x00\x1f\x7f \xff\xc3\x28",
			}}},
		}, okAll},
		{"ok points without payload", gridSpec(), func(i int, pr *PointResult) {
			pr.Status = "ok"
			if i == 3 {
				pr.Result = json.RawMessage{}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := expand(t, tc.spec)
			checkSettled(t, sw, synthResult(sw, tc.fill))
		})
	}
}

// TestSettledRealRun: the settled form of real runs — fresh, failed
// after retries, and replayed from the cache — matches json.Marshal.
func TestSettledRealRun(t *testing.T) {
	sw := expandSmall(t)
	var (
		mu    sync.Mutex
		calls = map[string]int{}
	)
	fault := func(ctx context.Context, hash string) error {
		mu.Lock()
		calls[hash]++
		n := calls[hash]
		mu.Unlock()
		switch {
		case hash == sw.Points[1].Canonical.Hash && n == 1:
			return errors.New("transient")
		case hash == sw.Points[2].Canonical.Hash:
			return errors.New(nastyError)
		}
		return nil
	}
	r := &Runner{Engine: engine.New(), Cache: cache.New(1 << 20), Retry: fastRetry(3), Fault: fault}
	for run := range 2 {
		res, err := r.Run(context.Background(), sw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 || res.Retried == 0 || (run == 1 && res.Cached != res.Total-1) {
			t.Fatalf("run %d: %+v", run, res)
		}
		checkSettled(t, sw, res)
	}
}

// TestSettleRejectsMismatch: a Result that is not the given sweep's —
// a point out of place, a foreign spec hash, an unknown status, a
// different point count — fails to settle rather than encoding wrong.
func TestSettleRejectsMismatch(t *testing.T) {
	sw := expandSmall(t)
	ok := func(i int, pr *PointResult) { pr.Status = "ok" }
	for name, spoil := range map[string]func(*Result){
		"index":       func(r *Result) { r.Points[1].Index = 2 },
		"spec hash":   func(r *Result) { r.Points[0].SpecHash = sw.Points[1].Canonical.Hash },
		"upper hex":   func(r *Result) { r.Points[0].SpecHash = strings.ToUpper(r.Points[0].SpecHash) },
		"status":      func(r *Result) { r.Points[3].Status = "leased" },
		"empty":       func(r *Result) { r.Points = nil },
		"extra point": func(r *Result) { r.Points = append(r.Points, r.Points[0]) },
	} {
		res := synthResult(sw, ok)
		spoil(res)
		if s, err := res.Settle(sw); err == nil {
			t.Errorf("%s: settled %d bytes", name, s.Len())
		}
	}
}

// BenchmarkResultEncode times a run-hot-shaped aggregate — a real
// 128-point figure7 expansion, every point cached with a ~560 B
// payload — through json.Marshal, through Settle (what a job does once
// when it finishes), and through WriteTo (what each result fetch does).
func BenchmarkResultEncode(b *testing.B) {
	sw := expand(b, hotGrid())
	body := payload(b, map[string]any{"data": strings.Repeat("7", 540)})
	res := synthResult(sw, func(i int, pr *PointResult) {
		pr.Status, pr.Cached, pr.Elapsed, pr.Attempts, pr.Result = "ok", true, 2100, 1, body
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("settle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := res.Settle(sw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		s, err := res.Settle(sw)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := s.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
