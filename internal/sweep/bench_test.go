package sweep

// Sweep-expansion overhead: the serving layer expands (and so fully
// canonicalizes) every submitted SweepSpec before admitting it as a
// job, so expansion sits on the request path. CI runs one iteration
// to keep the harness honest; measure with a real -benchtime.

import (
	"testing"

	"qla/internal/engine"
)

func benchGrid(levels int) Spec {
	vals := make([]any, levels)
	for i := range vals {
		vals[i] = i + 1
	}
	return Spec{
		Base: engine.Spec{Experiment: "ec-latency"},
		Axes: []Axis{
			{Field: "machine.param_set", Values: []any{"expected", "current"}},
			{Field: "machine.level", Values: vals},
			{Field: "machine.bandwidth", Values: []any{1, 2, 4}},
		},
	}
}

// hotGrid is the shape of perfbench's run-hot sweeps: a figure7
// trials × seeds grid of 8 × 16 points, parameter axes only.
func hotGrid() Spec {
	trials := make([]any, 8)
	for i := range trials {
		trials[i] = float64(64 * (i + 1))
	}
	seeds := make([]any, 16)
	for i := range seeds {
		seeds[i] = float64(1 + 7919*i)
	}
	return Spec{
		Base: engine.Spec{Experiment: "figure7", Params: engine.Params{
			"phys-errors": []any{0.002}, "backend": "batch"}},
		Axes: []Axis{
			{Field: "params.trials", Values: trials},
			{Field: "params.seed", Values: seeds},
		},
	}
}

func BenchmarkSweepExpand(b *testing.B) {
	for _, tc := range []struct {
		name   string
		spec   Spec
		points int
	}{
		{"points=12", benchGrid(2), 12},
		{"points=96", benchGrid(16), 96},
		{"figure7/points=128", hotGrid(), 128},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sw *Sweep
			for b.Loop() {
				var err error
				sw, err = Expand(tc.spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(sw.Points) != tc.points {
				b.Fatalf("expanded %d points", len(sw.Points))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.points), "ns/point")
		})
	}
}
