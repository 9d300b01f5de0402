// Addercompare reproduces the arithmetic ablation behind the paper's
// adder choice (Section 5): it builds the Cuccaro ripple-carry adder
// and the Draper–Kutin–Rains–Svore carry-lookahead adder (QCLA) as
// explicit reversible circuits, verifies them against integer addition,
// and prints the Toffoli critical-path comparison that makes the QCLA
// "most optimized for time of computation rather than system size."
//
// The Toffoli depth column is what the QLA latency model multiplies by
// 21 error-correction steps per Toffoli; the width column is the qubit
// price the lookahead adder pays.
package main

import (
	"context"
	"fmt"
	"log"

	"qla"
	"qla/internal/adder"
	"qla/internal/engine"
	"qla/internal/shor"
)

func main() {
	fmt.Println("== adder verification ==")
	for _, n := range []int{4, 8} {
		rc, rl := adder.Ripple(n)
		cc, cl := adder.CLA(n)
		ok := true
		for a := uint64(0); a < 1<<uint(n) && ok; a += 3 {
			for b := uint64(0); b < 1<<uint(n) && ok; b += 5 {
				want := (a + b) & (1<<uint(n) - 1)
				wantC := (a+b)>>uint(n) == 1
				if s, c := adder.Add(rc, rl, a, b, false); s != want || c != wantC {
					ok = false
				}
				if s, c := adder.Add(cc, cl, a, b, false); s != want || c != wantC {
					ok = false
				}
			}
		}
		status := "ok"
		if !ok {
			status = "FAILED"
		}
		fmt.Printf("  n=%2d: ripple and lookahead vs integer addition: %s\n", n, status)
	}

	fmt.Println("\n== Toffoli critical path: ripple (2n) vs lookahead (Θ(log n)) ==")
	fmt.Printf("%6s %14s %14s %10s %12s %12s\n",
		"bits", "ripple depth", "QCLA depth", "speedup", "QCLA wires", "paper 4·lg n")
	widths := []int{4, 8, 16, 32, 64}
	res, err := qla.NewEngine().Run(context.Background(), qla.Spec{
		Experiment: "compare-adders",
		Params:     qla.ExperimentParams{"widths": widths, "with-modular": false},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, cmp := range res.Data.(engine.AddersData).Comparisons {
		n := widths[i]
		fmt.Printf("%6d %14d %14d %9.1fx %12d %12d\n",
			n, cmp.Ripple.ToffoliDepth, cmp.CLA.ToffoliDepth,
			cmp.DepthRatio, cmp.CLA.Width, shor.QCLAToffoliDepth(n))
	}

	fmt.Println("\nThe paper's Table-2 model charges 4·log2(n) Toffoli steps per")
	fmt.Println("QCLA call; the measured circuit tracks that shape (constant-factor")
	fmt.Println("difference from phase-sequential tree scheduling, see DESIGN.md §6).")
	fmt.Println("At n = 128 the ripple baseline would be ~9x deeper — the whole")
	fmt.Println("modular exponentiation would inflate by the same factor.")
}
