package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
	"unsafe"
)

// payload marshals v the way the engine marshals a Result: compact,
// HTML-escaped JSON — the form every stored point payload takes.
func payload(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMarshalChunksMatchesMarshal: the chunks written back to back are
// byte for byte json.Marshal of the same Result, and every non-empty
// point payload is a chunk of its own that aliases the point's bytes.
func TestMarshalChunksMatchesMarshal(t *testing.T) {
	hot := payload(t, map[string]any{"experiment": "figure7", "data": map[string]any{"rate": 1.5e-7, "note": "a<b && c>d \u2028"}})
	other := payload(t, []any{1, "two", nil, true, 3.25})
	cases := []struct {
		name string
		res  Result
	}{
		{"empty sweep", Result{Experiment: "ec-latency", SweepHash: "abc", Fields: []string{"machine.level"}, Points: []PointResult{}}},
		{"nil points", Result{Experiment: "ec-latency", SweepHash: "abc"}},
		{"ok and cached", Result{
			Experiment: "figure7", SweepHash: "f00d", Fields: []string{"params.seed"},
			Total: 2, OK: 2, Cached: 1, Elapsed: 1500 * time.Microsecond,
			Points: []PointResult{
				{Index: 0, Coords: []any{1}, SpecHash: "h0", Status: "ok", Cached: true, Elapsed: 3, Attempts: 1, Result: hot},
				{Index: 1, Coords: []any{2}, SpecHash: "h1", Status: "ok", Elapsed: 4e6, Attempts: 1, Result: other},
			},
		}},
		{"failed retried and deferred", Result{
			Experiment: "run-chain", SweepHash: "beef", Fields: []string{"params.links", "params.purify-rounds"},
			Total: 3, OK: 1, Failed: 2, Retried: 2, RetryAttempts: 3, Elapsed: time.Second,
			Points: []PointResult{
				{Index: 0, Coords: []any{2, 0}, SpecHash: "p0", Status: "error", Elapsed: 9,
					Error: `engine: "quoted" <tag> & amp` + "\u2028\u2029\n\t\x01 \xff", Attempts: 3},
				{Index: 1, Coords: []any{2, 1}, SpecHash: "p1", Status: "ok", Attempts: 2, Result: hot},
				{Index: 2, Coords: []any{3, 0}, SpecHash: "p2", Status: "error", Error: "deadline"},
			},
		}},
		{"coordinate kinds and escaped metadata", Result{
			Experiment: "a<b>&c", SweepHash: "\u2028", Fields: []string{"machine.param_set", "params.x", "params.y", "params.z", "params.w", "params.v"},
			Total: 2, OK: 2,
			Points: []PointResult{
				{Index: 0, Coords: []any{"expected<&>", int64(-7), uint64(math.MaxUint64), 0.001, true, nil}, SpecHash: "c0", Status: "ok", Result: other},
				{Index: 1, Coords: []any{"current", 42, uint64(1) << 63, 1e21, false, 1e-7}, SpecHash: "c1", Status: "ok", Result: json.RawMessage(`{}`)},
			},
		}},
		{"every axis kind", Result{
			Experiment: "figure7", SweepHash: "k1nd", Fields: []string{"params.phys-errors", "params.levels", "params.flag", "params.seed", "params.p", "params.backend"},
			Total: 3, OK: 2, Failed: 1,
			Points: []PointResult{
				{Index: 0, Coords: []any{[]float64{1e-7, 0.004, 1e21}, []int{1, 2, -3}, true, uint64(1)<<53 + 1, 2.5e-9, "batch"},
					SpecHash: "k0", Status: "ok", Elapsed: 12, Attempts: 1, Result: hot},
				{Index: 1, Coords: []any{[]float64{}, []int{}, false, uint64(math.MaxUint64), math.Copysign(0, -1), "scalar"},
					SpecHash: "k1", Status: "ok", Cached: true, Attempts: 1, Result: other},
				{Index: 2, Coords: []any{[]float64(nil), []int(nil), true, uint64(9007199254740993), 1e20, "<gpu>"},
					SpecHash: "k2", Status: "error", Attempts: 2,
					Error: "bad\x00\b\f\r\x1f\x7f \xc3\x28 \xe2\x82 \xed\xa0\x80 \xf0\x90\x80 trailing\xff"},
			},
		}},
		{"ok point without payload", Result{
			Experiment: "x", Total: 1, OK: 1,
			Points: []PointResult{{Index: 0, Coords: []any{}, SpecHash: "e0", Status: "ok"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(&tc.res)
			if err != nil {
				t.Fatal(err)
			}
			chunks, err := tc.res.MarshalChunks()
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Join(chunks, nil); !bytes.Equal(got, want) {
				t.Fatalf("chunks differ from json.Marshal:\n got %s\nwant %s", got, want)
			}
			var payloads [][]byte
			for _, pt := range tc.res.Points {
				if len(pt.Result) > 0 {
					payloads = append(payloads, pt.Result)
				}
			}
			if len(chunks) != 2*len(payloads)+1 {
				t.Fatalf("%d chunks for %d payloads", len(chunks), len(payloads))
			}
			for k, p := range payloads {
				if c := chunks[2*k+1]; unsafe.SliceData(c) != unsafe.SliceData(p) || len(c) != len(p) {
					t.Errorf("payload %d was copied, not referenced", k)
				}
			}
		})
	}
}

// BenchmarkResultEncode compares encoding a 128-point aggregate of
// figure7-sized payloads with json.Marshal against MarshalChunks, which
// skips scanning the payloads.
func BenchmarkResultEncode(b *testing.B) {
	body := bytes.Repeat([]byte("7"), 560)
	res := Result{Experiment: "figure7", SweepHash: "h", Fields: []string{"params.seed"}, Total: 128, OK: 128, Cached: 128}
	for i := range 128 {
		res.Points = append(res.Points, PointResult{Index: i, Coords: []any{float64(i)}, SpecHash: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
			Status: "ok", Cached: true, Elapsed: 2100, Attempts: 1, Result: json.RawMessage(`{"data":` + string(body) + `}`)})
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(&res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chunks", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := res.MarshalChunks(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
