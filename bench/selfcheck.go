package main

import (
	"fmt"
)

// runSelfcheck runs the end-to-end protocol twice in one process and holds
// the benchmark to its own bounds: two measurements of the same code must
// agree within the share by which a metric may later worsen. For every
// metric × workload it prints both reported values (a median of the
// samples, except setup_s, which is its fastest cycle) with the samples'
// quartiles, and it fails when any pair disagrees by more than the bound.
// Goodput is printed the same way with no bound: it is not gated.
func runSelfcheck(names []string, cfg runConfig) error {
	first, err := runEndToEnd(names, cfg)
	if err != nil {
		return err
	}
	second, err := runEndToEnd(names, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-22s %12s %25s %12s %25s %8s %6s\n",
		"workload", "metric", "first", "(q1 .. q3)", "second", "(q1 .. q3)", "diff", "bound")
	bad := 0
	for i, a := range first {
		b := second[i]
		row := func(name string, ma, mb measured, bound float64) {
			a1, a3 := quartiles(ma.Samples)
			b1, b3 := quartiles(mb.Samples)
			diff := relDiff(ma.Value, mb.Value)
			verdict := fmt.Sprintf("%5.0f%%", 100*bound)
			switch {
			case bound == 0:
				verdict = "  none"
			case diff > bound:
				verdict += "  DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-22s %12.6g %25s %12.6g %25s %7.1f%% %s\n",
				a.Workload, name, ma.Value, fmt.Sprintf("(%.5g .. %.5g)", a1, a3),
				mb.Value, fmt.Sprintf("(%.5g .. %.5g)", b1, b3), 100*diff, verdict)
		}
		for _, d := range endToEnd {
			row(d.Name, a.Metrics[d.Name], b.Metrics[d.Name], d.Bound)
		}
		row("goodput_gbps", a.Notes["goodput_gbps"], b.Notes["goodput_gbps"], 0)
		if a.Failed+b.Failed != 0 {
			bad++
			fmt.Printf("%-14s ops_failed %d and %d\n", a.Workload, a.Failed, b.Failed)
			for _, v := range append(a.Violations, b.Violations...) {
				fmt.Printf("  VIOLATION %s\n", v)
			}
		}
	}
	if bad != 0 {
		return fmt.Errorf("selfcheck: %d disagreements or failures", bad)
	}
	fmt.Println("selfcheck: every pair within its bound, no operation failed")
	return nil
}
