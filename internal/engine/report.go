package engine

// Human-readable rendering of experiment results, printed beside the
// paper's reported values. This is the presentation layer the qlabench
// command used to hard-code per experiment; it lives next to the
// registry so every front end (CLI, service, tests) shares it.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"qla/internal/arq"
	"qla/internal/codes"
	"qla/internal/commsim"
	"qla/internal/control"
	"qla/internal/ft"
	"qla/internal/iontrap"
	"qla/internal/multichip"
	"qla/internal/netsim"
	"qla/internal/shor"
	"qla/internal/teleport"
)

// Report renders a Result for humans: the experiment's registered
// formatter when it has one and the data payload is still typed,
// otherwise indented JSON. Results decoded from JSON (whose Data is
// generic maps) always take the JSON path.
func Report(w io.Writer, res Result) error {
	if exp, ok := Lookup(res.Experiment); ok && exp.Report != nil {
		return exp.Report(w, res)
	}
	return reportJSON(w, res)
}

func reportJSON(w io.Writer, res Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func reportTable1(w io.Writer, res Result) error {
	data, ok := res.Data.(Table1Data)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Table 1: physical operation times and failure rates")
	fmt.Fprintf(w, "%-12s %12s %14s %14s\n", "operation", "time", "Pcurrent", "Pexpected")
	rows := []iontrap.OpClass{
		iontrap.OpSingle, iontrap.OpDouble, iontrap.OpMeasure,
		iontrap.OpMoveCell, iontrap.OpSplit, iontrap.OpCool,
	}
	for _, c := range rows {
		fmt.Fprintf(w, "%-12s %12v %14.3g %14.3g\n", c, data.Current.Duration(c), data.Current.Fail[c], data.Expected.Fail[c])
	}
	fmt.Fprintf(w, "%-12s %12s %14s %14s\n", "memory",
		fmt.Sprintf("%g-%g s", data.Current.MemoryLifetime, data.Expected.MemoryLifetime), "-", "-")
	fmt.Fprintf(w, "\nchannel bandwidth: %.0f Mqbps (paper: ~100)\n", data.Expected.ChannelBandwidthQBPS()/1e6)
	return nil
}

func reportTable2(w io.Writer, res Result) error {
	rows, ok := res.Data.([]shor.Resources)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Table 2: Shor's algorithm on the QLA (measured vs paper)")
	fmt.Fprintf(w, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("N=%d", r.N))
	}
	fmt.Fprintln(w)
	line := func(name string, f func(r shor.Resources) string) {
		fmt.Fprintf(w, "%-22s", name)
		for _, r := range rows {
			fmt.Fprintf(w, " %12s", f(r))
		}
		fmt.Fprintln(w)
	}
	line("logical qubits", func(r shor.Resources) string { return fmt.Sprintf("%d", r.LogicalQubits) })
	line("  paper", func(r shor.Resources) string { return fmt.Sprintf("%d", shor.PaperTable2[r.N].LogicalQubits) })
	line("Toffoli depth", func(r shor.Resources) string { return fmt.Sprintf("%d", r.ToffoliDepth) })
	line("  paper", func(r shor.Resources) string { return fmt.Sprintf("%d", shor.PaperTable2[r.N].Toffoli) })
	line("total gates", func(r shor.Resources) string { return fmt.Sprintf("%d", r.TotalGates) })
	line("  paper", func(r shor.Resources) string { return fmt.Sprintf("%d", shor.PaperTable2[r.N].TotalGates) })
	line("area (m^2)", func(r shor.Resources) string { return fmt.Sprintf("%.2f", r.AreaM2) })
	line("  paper", func(r shor.Resources) string { return fmt.Sprintf("%.2f", shor.PaperTable2[r.N].AreaM2) })
	line("time (days)", func(r shor.Resources) string { return fmt.Sprintf("%.1f", r.TimeDays) })
	line("  paper", func(r shor.Resources) string { return fmt.Sprintf("%.1f", shor.PaperTable2[r.N].TimeDays) })
	return nil
}

func reportFigure7(w io.Writer, res Result) error {
	data, ok := res.Data.(Figure7Data)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Figure 7: logical one-qubit gate failure vs component failure rate")
	if len(data.L1) > 0 && len(data.L2) > 0 {
		fmt.Fprintf(w, "(level-1 trials %d, level-2 trials %d)\n\n", data.L1[0].Trials, data.L2[0].Trials)
	}
	fmt.Fprintf(w, "%10s %14s %14s\n", "p_phys", "level-1 fail", "level-2 fail")
	for i := range data.L1 {
		if i >= len(data.L2) {
			break
		}
		fmt.Fprintf(w, "%10.2g %9.6f±%.6f %8.6f±%.6f\n",
			data.L1[i].PhysError, data.L1[i].FailRate, data.L1[i].StdErr,
			data.L2[i].FailRate, data.L2[i].StdErr)
	}
	fmt.Fprintf(w, "\npseudo-threshold crossing: %.2g  (paper: (2.1±1.8)e-3)\n", data.Crossing)
	return nil
}

func reportSyndromeRates(w io.Writer, res Result) error {
	data, ok := res.Data.(SyndromeRateData)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Non-trivial syndrome rates at expected parameters (Section 4.1.1)")
	fmt.Fprintf(w, "level 1: %.3g   (paper: 3.35e-4 ± 0.41e-4)\n", data.Level1)
	fmt.Fprintf(w, "level 2: %.3g   (paper: 7.92e-4 ± 0.81e-4)\n", data.Level2)
	return nil
}

func reportFigure9(w io.Writer, res Result) error {
	data, ok := res.Data.(Figure9Data)
	if !ok {
		return reportJSON(w, res)
	}
	dists := res.Params.Ints("distances")
	fmt.Fprintln(w, "Figure 9: connection time vs total distance by island separation")
	fmt.Fprintf(w, "%8s", "d \\ D")
	for _, d := range dists {
		fmt.Fprintf(w, " %8d", d)
	}
	fmt.Fprintln(w)
	bySep := map[int][]teleport.Figure9Point{}
	for _, p := range data.Points {
		bySep[p.Sep] = append(bySep[p.Sep], p)
	}
	var seps []int
	for s := range bySep {
		seps = append(seps, s)
	}
	sort.Ints(seps)
	for _, s := range seps {
		fmt.Fprintf(w, "%8d", s)
		for _, p := range bySep[s] {
			if p.Feasible {
				fmt.Fprintf(w, " %8.4f", p.Time)
			} else {
				fmt.Fprintf(w, " %8s", "inf")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nd=100 / d=350 crossover: %d cells  (paper: ≈6000 cells)\n", data.Crossover)
	if len(dists) > 0 {
		fmt.Fprintf(w, "best separation: %d cells at %d cells, %d cells at %d cells\n",
			data.BestSepShort, dists[0], data.BestSepLong, dists[len(dists)-1])
	}
	return nil
}

func reportECLatency(w io.Writer, res Result) error {
	sum, ok := res.Data.(ft.Summary)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Equation 1: error-correction latency (Section 4.1.1)")
	fmt.Fprintf(w, "T(1,ecc) = %.4f s   (paper: ≈0.003)\n", sum.ECLevel1)
	fmt.Fprintf(w, "T(2,ecc) = %.4f s   (paper: ≈0.043)\n", sum.ECLevel2)
	fmt.Fprintf(w, "level-2 ancilla preparation = %.4f s   (paper: ≈0.008)\n", sum.AncillaPrep)
	return nil
}

func reportEquation2(w io.Writer, res Result) error {
	data, ok := res.Data.(Equation2Data)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Equation 2: Gottesman local-architecture failure estimate")
	fmt.Fprintf(w, "p0 = %.3g, pth = %.3g, r = 12, L = %d\n", data.P0, data.Pth, data.Level)
	fmt.Fprintf(w, "P_f(%d) = %.3g   (paper: ≈1.0e-16)\n", data.Level, data.Failure)
	fmt.Fprintf(w, "S = K·Q = %.3g  (paper: ≈9.9e15)\n", data.MaxSystemSize)
	fmt.Fprintf(w, "with empirical pth %.2g: P_f(%d) = %.3g  (paper: approaching 1e-21)\n",
		data.EmpiricalPth, data.Level, data.EmpiricalFailure)
	return nil
}

func reportSchedulerSweep(w io.Writer, res Result) error {
	rows, ok := res.Data.([]netsim.BandwidthResult)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "Section 5: EPR scheduler bandwidth sweep (%dx%d islands, %d Toffolis)\n",
		res.Params.Int("islands-w"), res.Params.Int("islands-h"), res.Params.Int("toffolis"))
	fmt.Fprintf(w, "%10s %10s %12s %12s %8s %10s\n", "bandwidth", "requests", "1st-beat %", "utilization", "beats", "overlapped")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %10d %11.1f%% %11.1f%% %8d %10v\n",
			r.Bandwidth, r.Requests, 100*r.ScheduledFrac, 100*r.Utilization, r.BeatsUsed, r.Overlapped)
	}
	fmt.Fprintln(w, "\npaper: bandwidth 2 suffices for full overlap at ~23% aggregate utilization")
	return nil
}

func reportShor(w io.Writer, res Result) error {
	data, ok := res.Data.(ShorRunData)
	if !ok {
		return reportJSON(w, res)
	}
	r := data.Resources
	fmt.Fprintf(w, "Factoring a %d-bit number on the QLA (Section 5 narrative)\n", r.N)
	fmt.Fprintf(w, "logical qubits:     %d\n", r.LogicalQubits)
	fmt.Fprintf(w, "Toffoli depth:      %d   (paper at N=128: 63,730)\n", r.ToffoliDepth)
	fmt.Fprintf(w, "total gates:        %d\n", r.TotalGates)
	fmt.Fprintf(w, "EC steps:           %.3g (paper at N=128: 1.34e6)\n", float64(r.ECSteps))
	fmt.Fprintf(w, "QFT share:          %d EC steps\n", r.QFTSteps)
	fmt.Fprintf(w, "EC step time:       %.4f s (paper: 0.043)\n", r.ECStepSeconds)
	fmt.Fprintf(w, "single run:         %.1f h (paper at N=128: ≈16 h)\n", r.TimeSeconds/3600)
	fmt.Fprintf(w, "with 1.3 retries:   %.1f h (paper at N=128: ≈21 h)\n", r.TimeHours)
	fmt.Fprintf(w, "retries, in days:   %.2f\n", r.TimeDays)
	fmt.Fprintf(w, "chip area:          %.2f m² (paper at N=128: 0.11), edge %.0f cm\n", r.AreaM2, data.EdgeCM)
	fmt.Fprintf(w, "system size S=K·Q:  %.3g\n", r.SystemSize)
	fmt.Fprintf(w, "physical ions:      %.2g (paper at N=128: ≈7e6)\n", float64(data.PhysicalIons))
	fmt.Fprintf(w, "classical baseline: %.3g MIPS-years by NFS (512-bit anchor: 8400)\n", data.ClassicalMIPSYears)
	return nil
}

func reportCompareAdders(w io.Writer, res Result) error {
	data, ok := res.Data.(AddersData)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Adder ablation: Toffoli critical path, ripple vs QCLA")
	fmt.Fprintf(w, "%6s %14s %14s %10s %12s %14s\n",
		"bits", "ripple depth", "QCLA depth", "speedup", "QCLA wires", "model 4·lg n")
	for _, cmp := range data.Comparisons {
		fmt.Fprintf(w, "%6d %14d %14d %9.1fx %12d %14d\n",
			cmp.Ripple.N, cmp.Ripple.ToffoliDepth, cmp.CLA.ToffoliDepth,
			cmp.DepthRatio, cmp.CLA.Width, shor.QCLAToffoliDepth(cmp.Ripple.N))
	}
	fmt.Fprintln(w, "\npaper: the QCLA is \"most optimized for time of computation")
	fmt.Fprintln(w, "rather than system size\" — the crossover lands by n=8 and the")
	fmt.Fprintln(w, "gap widens as 2n vs Θ(log n).")
	if len(data.Modular) == 0 {
		return nil
	}
	fmt.Fprintln(w, "\nModular adder (VBE construction, 4 adder passes), Toffoli depth:")
	fmt.Fprintf(w, "%6s %10s %16s %16s %12s\n", "bits", "modulus", "ripple-based", "QCLA-based", "ratio/adder")
	for _, row := range data.Modular {
		fmt.Fprintf(w, "%6d %10d %16d %16d %11.1fx\n",
			row.Bits, row.Modulus, row.Ripple.ToffoliDepth, row.CLA.ToffoliDepth,
			float64(row.CLA.ToffoliDepth)/float64(row.CLA.AdderDepth))
	}
	fmt.Fprintln(w, "\nThe modular adder costs ~4 adder passes (Van Meter–Itoh count the")
	fmt.Fprintln(w, "additions per modular multiplication the same way), so the QCLA's")
	fmt.Fprintln(w, "log-depth advantage carries straight into modular exponentiation.")
	return nil
}

func reportCodeAblation(w io.Writer, res Result) error {
	data, ok := res.Data.(CodeAblationData)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Code ablation: syndrome-extraction bill per full round")
	fmt.Fprintf(w, "%-22s %6s %8s %9s %8s %12s %6s\n",
		"code", "data", "ancilla", "2q-gates", "meas", "time/round", "CSS")
	for _, cost := range data.Costs {
		css := "no"
		for _, c := range codes.All() {
			if c.Name == cost.Code && c.IsCSS() {
				css = "yes"
			}
		}
		fmt.Fprintf(w, "%-22s %6d %8d %9d %8d %9.0f µs %6s\n",
			cost.Code, cost.DataQubits, cost.AncillaQubits,
			cost.TwoQubitGates, cost.Measures, cost.TimeSeconds*1e6, css)
	}
	if len(data.MonteCarlo) > 0 && len(data.MCErrors) > 0 {
		fmt.Fprintln(w, "\nLogical failure rate under i.i.d. depolarizing noise (decoder MC;")
		fmt.Fprintln(w, "d=3 codes suppress O(p²), repetition codes leak O(p)):")
		ps := data.MCErrors
		fmt.Fprintf(w, "%-22s", "code")
		for _, p := range ps {
			fmt.Fprintf(w, " %11s", fmt.Sprintf("p=%g", p))
		}
		fmt.Fprintln(w)
		for i := 0; i+len(ps) <= len(data.MonteCarlo); i += len(ps) {
			fmt.Fprintf(w, "%-22s", data.MonteCarlo[i].Code)
			for j := 0; j < len(ps); j++ {
				fmt.Fprintf(w, " %11.2e", data.MonteCarlo[i+j].LogicalRate)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\npaper: Steane [[7,1,3]] chosen as the smallest CSS block with a")
	fmt.Fprintln(w, "fully transversal Clifford group (Section 4.1).")
	return nil
}

func reportChainValidation(w io.Writer, res Result) error {
	data, ok := res.Data.(ChainValidationData)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Repeater-chain Monte Carlo vs Werner model")
	fmt.Fprintf(w, "%7s %9s %8s %12s %12s %10s\n",
		"links", "purify", "eps", "measured", "predicted", "raw pairs")
	for _, r := range data.Rows {
		fmt.Fprintf(w, "%7d %9d %8.2f %12.4f %12.4f %10.1f\n",
			r.Config.Links, r.Config.PurifyRounds, r.Config.LinkEps,
			r.ErrorRate, r.PredictedError, r.RawPairsMean)
	}
	fmt.Fprintf(w, "\nnaive end-to-end pair over 8 segments: error %.4f\n", data.Compare.Naive.ErrorRate)
	fmt.Fprintf(w, "repeater chain over the same channel:  error %.4f\n", data.Compare.Repeater.ErrorRate)
	fmt.Fprintln(w, "\npaper (contribution 2): the simplistic approach collapses with")
	fmt.Fprintln(w, "distance; repeater islands keep the delivered fidelity pinned.")
	return nil
}

// chainBackendName resolves the default for display.
func chainBackendName(backend string) string {
	if backend == "" {
		return commsim.BackendBatch
	}
	return backend
}

func reportRunChain(w io.Writer, res Result) error {
	r, ok := res.Data.(commsim.ChainResult)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "Repeater-chain Monte Carlo (%s backend)\n", chainBackendName(r.Config.Backend))
	fmt.Fprintf(w, "links %d, purify rounds %d, link eps %g, swap eps %g, trials %d\n",
		r.Config.Links, r.Config.PurifyRounds, r.Config.LinkEps, r.Config.SwapEps, r.Config.Trials)
	fmt.Fprintf(w, "measured error:  %.4f (Z basis %d/%d, X basis %d/%d)\n",
		r.ErrorRate, r.ZBasisErrors, r.ZTrials, r.XBasisErrors, r.XTrials)
	fmt.Fprintf(w, "Werner predicts: %.4f\n", r.PredictedError)
	fmt.Fprintf(w, "raw pairs/conn:  %.1f\n", r.RawPairsMean)
	return nil
}

func reportCompareComm(w io.Writer, res Result) error {
	c, ok := res.Data.(commsim.NaiveVsRepeater)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "Communication strategies at equal total channel noise")
	fmt.Fprintf(w, "naive end-to-end pair:  error %.4f (predicted %.4f, %.1f raw pairs/conn)\n",
		c.Naive.ErrorRate, c.Naive.PredictedError, c.Naive.RawPairsMean)
	fmt.Fprintf(w, "repeater chain:         error %.4f (predicted %.4f, %.1f raw pairs/conn)\n",
		c.Repeater.ErrorRate, c.Repeater.PredictedError, c.Repeater.RawPairsMean)
	fmt.Fprintln(w, "\npaper (Section 5): stretching one pair across the whole channel")
	fmt.Fprintln(w, "collapses with distance; repeater islands keep fidelity pinned.")
	return nil
}

func reportShuttle(w io.Writer, res Result) error {
	rows, ok := res.Data.([]ShuttleRow)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "QCCD substrate: executed %d-ion transversal gate vs analytic budget\n", res.Params.Int("ions"))
	fmt.Fprintf(w, "%12s %14s %14s %8s %8s %10s\n",
		"separation", "makespan", "analytic", "moves", "stalls", "max turns")
	for _, row := range rows {
		rep := row.Report
		fmt.Fprintf(w, "%8d cells %11.1f µs %11.1f µs %8d %8d %10d\n",
			row.Separation, rep.Makespan*1e6, rep.AnalyticSeconds*1e6,
			rep.Stats.Moves, rep.Stats.Stalls, rep.MaxCorners)
	}
	fmt.Fprintln(w, "\npaper design rules validated: at most two turns per ballistic")
	fmt.Fprintln(w, "route; split time dominates short hops; movement pipelines.")
	return nil
}

func reportQFT(w io.Writer, res Result) error {
	data, ok := res.Data.(QFTData)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintln(w, "QFT: banded circuit vs the paper's 2N·(log2(2N)+2) EC-step charge")
	fmt.Fprintln(w, "\nexact-circuit verification against the DFT matrix:")
	for _, r := range data.Exact {
		fmt.Fprintf(w, "  n=%d: max basis-state L2 error %.2e\n", r.N, r.MaxBasisError)
	}
	fmt.Fprintln(w, "\nbanding error at n=6 (Coppersmith: O(n·2^-band)):")
	for _, r := range data.Banding {
		fmt.Fprintf(w, "  band %d: %.4f\n", r.Band, r.MaxBasisError)
	}
	fmt.Fprintln(w, "\ngate count of the banded transform vs the model charge:")
	fmt.Fprintf(w, "%6s %8s %12s %12s %8s\n", "N", "band", "gates", "model", "ratio")
	for _, r := range data.Charge {
		fmt.Fprintf(w, "%6d %8d %12d %12d %8.2f\n", r.N, r.Band, r.Gates, r.Model, r.Ratio)
	}
	fmt.Fprintln(w, "\nThe model's serial charge brackets the circuit's gate count; ASAP")
	fmt.Fprintln(w, "depth is lower still, so the QFT term stays a rounding error next")
	fmt.Fprintln(w, "to the 21-EC-step Toffolis in Table 2.")
	return nil
}

func reportMultichip(w io.Writer, res Result) error {
	rows, ok := res.Data.([]multichip.Partition)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "Multi-chip partitioning (Section 6), %g cm max chip edge\n", res.Params.Float("max-edge-cm"))
	fmt.Fprintf(w, "%6s %10s %7s %12s %12s %12s %10s\n",
		"N", "qubits", "chips", "chip edge", "mono edge", "links/bdry", "slowdown")
	for _, pt := range rows {
		fmt.Fprintf(w, "%6d %10d %7d %9.1f cm %9.1f cm %12d %9.2fx\n",
			pt.N, pt.LogicalQubits, pt.Chips, pt.ChipEdgeCM,
			pt.MonolithicEdgeCM, pt.LinksPerBoundary, pt.Slowdown)
	}
	fmt.Fprintln(w, "\npaper: \"impractical for N > 128 with current single chip")
	fmt.Fprintln(w, "technology... a multi-chip solution is desirable.\" The link")
	fmt.Fprintln(w, "budget keeps inter-chip EPR supply ahead of the 2-pairs-per-EC-")
	fmt.Fprintln(w, "step demand, preserving full communication overlap.")
	return nil
}

func reportPlanMultichip(w io.Writer, res Result) error {
	rows, ok := res.Data.([]multichip.YieldPartition)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "Yield-aware multi-chip planning, %g cm max edge, defect p=%g, yield target %g\n",
		res.Params.Float("max-edge-cm"), res.Params.Float("cell-defect-prob"), res.Params.Float("yield-target"))
	fmt.Fprintf(w, "%6s %10s %7s %8s %12s %12s %12s %10s\n",
		"N", "qubits", "chips", "spares", "prov edge", "bare edge", "links/bdry", "slowdown")
	for _, pt := range rows {
		fmt.Fprintf(w, "%6d %10d %7d %8d %9.1f cm %9.1f cm %12d %9.2fx\n",
			pt.N, pt.LogicalQubits, pt.Chips, pt.SpareTiles, pt.ProvisionedEdgeCM,
			pt.ChipEdgeCM, pt.LinksPerBoundary, pt.Slowdown)
	}
	fmt.Fprintln(w, "\nSpare tiles implement Section 6's redundancy argument (\"defects can")
	fmt.Fprintln(w, "be diagnosed and masked out in software\"); they are real area, so")
	fmt.Fprintln(w, "provisioning can force more chips than the defect-free partition.")
	return nil
}

func reportEstimate(w io.Writer, res Result) error {
	data, ok := res.Data.(EstimateData)
	if !ok {
		return reportJSON(w, res)
	}
	rep := data.Report
	fmt.Fprintf(w, "logical qubits:        %d\n", rep.LogicalQubits)
	fmt.Fprintf(w, "EC steps (depth):      %d\n", rep.ECSteps)
	fmt.Fprintf(w, "EC step time:          %.4f s\n", data.ECStepTime)
	fmt.Fprintf(w, "estimated wall clock:  %.3f s\n", rep.Seconds)
	fmt.Fprintf(w, "2q comm overlapped:    %d\n", rep.CommOverlapped)
	fmt.Fprintf(w, "2q comm exposed:       %d (extra %.3f s)\n", rep.CommExposed, rep.ExtraCommTime)
	fmt.Fprintf(w, "failure budget used:   %.3g\n", rep.FailureBudget)
	fmt.Fprintf(w, "chip area:             %.4f m²\n", data.AreaM2)
	return nil
}

func reportRunExact(w io.Writer, res Result) error {
	out, ok := res.Data.([]int)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "measurements: %v\n", out)
	return nil
}

func reportRunNoisy(w io.Writer, res Result) error {
	r, ok := res.Data.(arq.NoisyResult)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "trials:          %d\n", r.Trials)
	fmt.Fprintf(w, "errors injected: %d\n", r.ErrorsInjected)
	fmt.Fprintf(w, "trials w/ flips: %d (%.3f%%)\n", r.AnyFlipTrials,
		100*float64(r.AnyFlipTrials)/float64(r.Trials))
	for i, f := range r.FlipHistogram {
		fmt.Fprintf(w, "  measurement %d flipped in %d trials\n", i, f)
	}
	return nil
}

func reportPulses(w io.Writer, res Result) error {
	text, ok := res.Data.(string)
	if !ok {
		return reportJSON(w, res)
	}
	_, err := io.WriteString(w, text)
	return err
}

func reportControl(w io.Writer, res Result) error {
	b, ok := res.Data.(control.Budget)
	if !ok {
		return reportJSON(w, res)
	}
	fmt.Fprintf(w, "pulses:                %d\n", b.Ops)
	fmt.Fprintf(w, "makespan:              %.6f s\n", b.Makespan)
	fmt.Fprintf(w, "peak lasers:           %d dedicated, %d SIMD groups (MEMS fanout)\n",
		b.PeakLasers, b.PeakLasersSIMD)
	fmt.Fprintf(w, "peak photodetectors:   %d\n", b.PeakDetectors)
	fmt.Fprintf(w, "control event rate:    %.3g/s mean, %.3g/s peak (%.0f µs window)\n",
		b.MeanEventRate, b.PeakEventRate, b.EventWindow*1e6)
	return nil
}
