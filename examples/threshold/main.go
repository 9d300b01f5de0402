// Threshold reproduces Figure 7 at example scale: the Monte Carlo failure
// rate of a logical one-qubit gate followed by recursive error correction
// at levels 1 and 2, swept over the physical component failure rate, with
// the movement rate pinned to the expected value — showing the
// pseudo-threshold crossing that justifies recursion level 2.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"qla"
	"qla/internal/engine"
	"qla/internal/threshold"
)

func main() {
	ps := []float64{5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3}
	const trialsL1, trialsL2 = 60000, 20000

	fmt.Println("Figure 7 (example scale): logical gate failure vs physical error")
	fmt.Printf("level-1 trials %d, level-2 trials %d\n\n", trialsL1, trialsL2)
	res, err := qla.NewEngine().Run(context.Background(), qla.Spec{
		Experiment: "figure7",
		Params: qla.ExperimentParams{
			"phys-errors": ps, "trials": trialsL1, "trials-l2": trialsL2, "seed": 99,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fig7 := res.Data.(engine.Figure7Data)
	l1, l2, crossing := fig7.L1, fig7.L2, fig7.Crossing

	fmt.Printf("%9s %12s %12s   ratio L2/L1\n", "p_phys", "level 1", "level 2")
	for i := range ps {
		ratio := "-"
		if l1[i].FailRate > 0 {
			ratio = fmt.Sprintf("%.2f", l2[i].FailRate/l1[i].FailRate)
		}
		fmt.Printf("%9.2g %12.6f %12.6f   %s\n", ps[i], l1[i].FailRate, l2[i].FailRate, ratio)
	}
	fmt.Printf("\npseudo-threshold crossing: %.2g (paper: (2.1±1.8)e-3)\n", crossing)

	// A tiny ASCII rendition of the two curves.
	fmt.Println("\nlog-scale sketch (1=level-1, 2=level-2):")
	maxRate := 0.0
	for i := range ps {
		if l2[i].FailRate > maxRate {
			maxRate = l2[i].FailRate
		}
		if l1[i].FailRate > maxRate {
			maxRate = l1[i].FailRate
		}
	}
	for i := range ps {
		col := func(rate float64) int {
			if rate <= 0 {
				return 0
			}
			return int(60 * rate / maxRate)
		}
		row := []byte(strings.Repeat(" ", 62))
		c1, c2 := col(l1[i].FailRate), col(l2[i].FailRate)
		row[c1] = '1'
		if c2 == c1 {
			row[c2] = '*'
		} else {
			row[c2] = '2'
		}
		fmt.Printf("p=%7.2g |%s\n", ps[i], string(row))
	}

	// The fault-tolerance property behind the curves: no single fault
	// fails the gadget.
	fmt.Println("\nsingle-fault spot check (every 29th site, all Pauli variants):")
	_, total := threshold.SingleFaultTrial(2, -1, 0)
	checked, failures := 0, 0
	for site := int64(0); site < total; site += 29 {
		for choice := 0; choice < 15; choice++ {
			fail, _ := threshold.SingleFaultTrial(2, site, choice)
			checked++
			if fail {
				failures++
			}
		}
	}
	fmt.Printf("checked %d forced single faults at level 2: %d failures\n", checked, failures)
}
