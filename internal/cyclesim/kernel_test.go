package cyclesim

import (
	"reflect"
	"strings"
	"testing"
)

func TestMakeKernelShapes(t *testing.T) {
	for _, kernel := range KernelNames {
		ops, err := MakeKernel(kernel, 4, 4, 64, 7)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		if len(ops) != 64 {
			t.Fatalf("%s: generated %d ops, want 64", kernel, len(ops))
		}
		for i, op := range ops {
			if op.Src < 0 || op.Src >= 16 || op.Dst < 0 || op.Dst >= 16 || op.Src == op.Dst {
				t.Fatalf("%s: op %d invalid: %+v", kernel, i, op)
			}
		}
	}
	if _, err := MakeKernel("nope", 4, 4, 8, 7); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := MakeKernel(KernelRandom, 1, 1, 8, 7); err == nil {
		t.Error("single-tile grid accepted")
	}
	if _, err := MakeKernel(KernelRandom, 4, 4, 0, 7); err == nil {
		t.Error("empty kernel accepted")
	}
}

func TestMakeKernelDeterministic(t *testing.T) {
	a, err := MakeKernel(KernelRandom, 8, 8, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeKernel(KernelRandom, 8, 8, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different kernels")
	}
	c, err := MakeKernel(KernelRandom, 8, 8, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical kernels")
	}
}

func TestKernelNeighborLocality(t *testing.T) {
	ops, err := MakeKernel(KernelNeighbor, 6, 6, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		sx, sy := op.Src%6, op.Src/6
		dx, dy := op.Dst%6, op.Dst/6
		if d := absInt(sx-dx) + absInt(sy-dy); d != 1 {
			t.Fatalf("neighbor op %d spans %d hops: %+v", i, d, op)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestParseTrace(t *testing.T) {
	ops, err := ParseTrace("# toffoli slice\ncx 0 5\n\ncx 3 6\n", 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{0, 5}, {3, 6}}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("parsed %+v, want %+v", ops, want)
	}

	for name, trace := range map[string]string{
		"empty":        "",
		"comment only": "# nothing\n",
		"bad verb":     "cz 0 1\n",
		"missing arg":  "cx 0\n",
		"non-numeric":  "cx a b\n",
		"out of grid":  "cx 0 16\n",
		"negative":     "cx -1 2\n",
		"self op":      "cx 3 3\n",
	} {
		if _, err := ParseTrace(trace, 16); err == nil {
			t.Errorf("%s: trace accepted", name)
		}
	}
}

func TestParseTraceMatchesDefaultSpec(t *testing.T) {
	// The cycle-trace experiment's default trace must stay parseable
	// on its default 4x4 grid.
	def := "cx 0 5\ncx 3 6\ncx 12 9\ncx 15 10"
	ops, err := ParseTrace(def, 16)
	if err != nil {
		t.Fatalf("default cycle-trace trace no longer parses: %v", err)
	}
	if len(ops) != strings.Count(def, "cx") {
		t.Errorf("parsed %d ops from default trace", len(ops))
	}
}

// The helpers below serve only this package's tests.

// KernelNames lists the synthetic kernels in spec order.
var KernelNames = []string{KernelRandom, KernelNeighbor, KernelTransversal, KernelBitrev}
