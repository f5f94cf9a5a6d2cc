// Command dpibench regenerates every table and figure of the paper's
// evaluation section (§V) from the synthetic Snort-like workload.
//
// Usage:
//
//	dpibench -all                 # everything
//	dpibench -table 2             # one table (1, 2 or 3)
//	dpibench -figure 7            # one figure (2, 6, 7 or 8)
//	dpibench -figure 7 -tsv       # emit the series as TSV instead of a plot
//	dpibench -ablation            # depth-2 sweep + adversarial comparison
//	dpibench -kernel              # raw scan-kernel throughput across all backends
//	dpibench -kernel -json BENCH_13.json  # plus the perf-trajectory report
//	dpibench -kernel -cpuprofile cpu.pprof -memprofile mem.pprof
//	dpibench -seed 2010           # workload seed (default 2010)
//
// Sensor throughput is measured by `go run ./bench`, inside the whole
// capture-to-verdict pipeline, and the fault-injection soaks are the root
// package's TestChaosSoak*/TestSwap* tests; dpibench has no gateway mode.
//
// On SIGINT/SIGTERM -kernel stops at the next row, writes a partial JSON
// report (marked "interrupted": true) and renders the rows measured so
// far; the report is written via temp-file + rename, so its path never
// holds a truncated document.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/ruleset"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1, 2 or 3)")
		figure   = flag.Int("figure", 0, "regenerate one figure (1, 2, 6, 7 or 8; 1 emits DOT)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		ablation = flag.Bool("ablation", false, "run the ablation experiments")
		kernel   = flag.Bool("kernel", false, "measure raw scan-kernel throughput across all registered backends")
		jsonOut  = flag.String("json", "", "with -kernel: also write the machine-readable report as JSON to this path")
		tsv      = flag.Bool("tsv", false, "emit figure series as TSV instead of ASCII plots")
		seed     = flag.Int64("seed", experiments.DefaultSeed, "workload generation seed")
		steps    = flag.Int("steps", 10, "clock sweep steps for figures 7/8")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf  = flag.String("memprofile", "", "write a heap profile to this path at exit")
	)
	flag.Parse()
	if !*all && *table == 0 && *figure == 0 && !*ablation && !*kernel {
		flag.Usage()
		os.Exit(2)
	}
	// A signal cancels the context instead of killing the process: -kernel
	// writes its partial report atomically and renders what it measured. A
	// second signal kills outright (the default disposition is restored
	// once stop runs).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Profiling wraps every mode so future perf PRs can attach pprof
	// evidence to any of the benchmark tables. The error paths run through
	// one exit point below, after the profiles are flushed.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpibench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dpibench:", err)
			os.Exit(1)
		}
	}
	err := dispatch(ctx, modes{
		all: *all, table: *table, figure: *figure, ablation: *ablation,
		kernel: *kernel, jsonOut: *jsonOut,
		tsv: *tsv, seed: *seed, steps: *steps,
	})
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if perr := writeHeapProfile(*memProf); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpibench:", err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the steady-state live set
	return pprof.WriteHeapProfile(f)
}

// modes carries the parsed command line; one named field per flag so the
// single construction site cannot transpose the many booleans silently.
type modes struct {
	all      bool
	table    int
	figure   int
	ablation bool
	kernel   bool
	jsonOut  string
	tsv      bool
	seed     int64
	steps    int
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, so a reader (or a CI artifact upload racing a
// signal) never observes a truncated report. The rename is atomic on the
// platforms the bench runs on; the temp file is removed on any failure.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func dispatch(ctx context.Context, m modes) error {
	if m.jsonOut != "" && !m.kernel {
		return fmt.Errorf("-json is only produced by -kernel; no report would be written")
	}
	if m.kernel {
		if err := runKernel(ctx, os.Stdout, m.jsonOut, defaultKernelConfig(m.seed)); err != nil {
			return err
		}
	}
	return run(os.Stdout, m.all, m.table, m.figure, m.ablation, m.tsv, m.seed, m.steps)
}

func run(out io.Writer, all bool, table, figure int, ablation, tsv bool, seed int64, steps int) error {
	var ctx *experiments.Context
	getCtx := func() (*experiments.Context, error) {
		if ctx == nil {
			fmt.Fprintf(os.Stderr, "generating %d-string workload (seed %d)...\n",
				experiments.FullSetSize, seed)
			c, err := experiments.NewContext(seed)
			if err != nil {
				return nil, err
			}
			ctx = c
		}
		return ctx, nil
	}

	if all || table == 1 {
		if err := renderTable1(out); err != nil {
			return err
		}
	}
	if all || table == 2 {
		c, err := getCtx()
		if err != nil {
			return err
		}
		if err := renderTable2(out, c); err != nil {
			return err
		}
	}
	if all || table == 3 {
		c, err := getCtx()
		if err != nil {
			return err
		}
		if err := renderTable3(out, c); err != nil {
			return err
		}
	}
	if figure == 1 {
		if err := renderFigure1(out); err != nil {
			return err
		}
	}
	if all || figure == 2 {
		if err := renderFigure2(out); err != nil {
			return err
		}
	}
	if all || figure == 6 {
		c, err := getCtx()
		if err != nil {
			return err
		}
		if err := renderFigure6(out, c, tsv); err != nil {
			return err
		}
	}
	if all || figure == 7 {
		if err := renderPowerFigure(out, 7, steps, tsv); err != nil {
			return err
		}
	}
	if all || figure == 8 {
		if err := renderPowerFigure(out, 8, steps, tsv); err != nil {
			return err
		}
	}
	if all || ablation {
		c, err := getCtx()
		if err != nil {
			return err
		}
		if err := renderAblations(out, c); err != nil {
			return err
		}
	}
	return nil
}

func renderTable1(out io.Writer) error {
	rows := experiments.Table1()
	t := &report.Table{
		Title:   "TABLE I. RESOURCE UTILIZATION (model vs paper)",
		Headers: []string{"Device", "Logic (model)", "Logic (paper)", "Logic cap", "M9K (model)", "M9K (paper)", "M9K cap", "fmax (MHz)"},
	}
	for _, r := range rows {
		t.AddRow(r.Device, r.LogicModel, r.LogicPaper, r.LogicCap, r.M9KModel, r.M9KPaper, r.M9KCap, r.FmaxMHz)
	}
	return t.Render(out)
}

func renderTable2(out io.Writer, c *experiments.Context) error {
	rows, err := c.Table2()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title: "TABLE II. REDUCTION IN TRANSITION POINTERS",
		Headers: []string{"Device", "Strings", "Blocks", "Orig.States", "Orig.Avg",
			"States", "d1", "Avg", "d1+d2", "Avg", "d1+d2+d3", "Avg", "Reduction", "Mem(bytes)", "Speed(Gbps)"},
	}
	for _, r := range rows {
		t.AddRow(r.Device, r.N, r.Blocks, r.OrigStates, r.OrigAvg,
			r.States, r.D1, r.AvgAfterD1, r.D1D2, r.AvgAfterD12,
			r.D1D2D3, r.AvgAfterD123, fmt.Sprintf("%.1f%%", r.ReductionPct),
			r.MemoryBytes, r.SpeedGbps)
	}
	return t.Render(out)
}

func renderTable3(out io.Writer, c *experiments.Context) error {
	rows, err := c.Table3()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "TABLE III. PERFORMANCE COMPARISON (19,124-character subset)",
		Headers: []string{"Approach", "Device", "Memory (bytes)", "Throughput (Gbps)", "Source"},
	}
	for _, r := range rows {
		t.AddRow(r.Approach, r.Device, r.MemoryBytes, r.Throughput, r.Source)
	}
	return t.Render(out)
}

// renderFigure1 emits the paper's Figure 1 state machine (he, she, his,
// hers) as Graphviz DOT, with the compressed machine's stored pointers
// solid and the removed trie skeleton dotted — pipe into `dot -Tsvg`.
func renderFigure1(out io.Writer) error {
	toy := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("he")},
		{ID: 1, Data: []byte("she")},
		{ID: 2, Data: []byte("his")},
		{ID: 3, Data: []byte("hers")},
	}}
	m, err := core.Build(toy, core.Options{})
	if err != nil {
		return err
	}
	trie, err := ac.New(toy)
	if err != nil {
		return err
	}
	return m.WriteDot(out, trie, core.DotOptions{ShowDefaults: true})
}

func renderFigure2(out io.Writer) error {
	rows, err := experiments.Figure2()
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "FIGURE 2 WALKTHROUGH (he, she, his, hers)",
		Headers: []string{"Stage", "Avg stored pointers", "Paper"},
	}
	for _, r := range rows {
		t.AddRow(r.Stage, r.AvgStored, r.PaperValue)
	}
	return t.Render(out)
}

func renderFigure6(out io.Writer, c *experiments.Context, tsv bool) error {
	series, err := c.Figure6()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "FIGURE 6. DISTRIBUTION OF STRING LENGTHS")
	if tsv {
		return report.WriteTSV(out, "Number of Characters in String", "Number of Strings", series)
	}
	return report.AsciiPlot(out, series, 72, 20)
}

func renderPowerFigure(out io.Writer, fig, steps int, tsv bool) error {
	var series []report.Series
	var err error
	var title string
	if fig == 7 {
		series, err = experiments.Figure7(steps)
		title = "FIGURE 7. POWER CONSUMED BY CYCLONE 3 IMPLEMENTATION"
	} else {
		series, err = experiments.Figure8(steps)
		title = "FIGURE 8. POWER CONSUMED BY STRATIX 3 IMPLEMENTATION"
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(out, title)
	if tsv {
		return report.WriteTSV(out, "Power Consumption (Watts)", "Throughput (Gbps)", series)
	}
	return report.AsciiPlot(out, series, 72, 20)
}

func renderAblations(out io.Writer, c *experiments.Context) error {
	rows, err := c.D2Sweep(634, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "ABLATION: DEPTH-2 DEFAULTS PER CHARACTER (634-string set; paper: 4 is optimal)",
		Headers: []string{"d2/char", "Stored pointers", "Avg", "State bytes", "LUT bytes", "Total bytes"},
	}
	for _, r := range rows {
		t.AddRow(r.D2PerChar, r.StoredPointers, r.AvgStored, r.StateBytes, r.LUTBytes, r.TotalBytes)
	}
	if err := t.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)

	adv, err := c.Adversarial(634, 65536)
	if err != nil {
		return err
	}
	t2 := &report.Table{
		Title:   "WORST-CASE INPUT: AUTOMATON STEPS PER SCANNED CHARACTER",
		Headers: []string{"Approach", "Steps/char", "Worst-case throughput fraction"},
	}
	for _, r := range adv {
		t2.AddRow(r.Approach, fmt.Sprintf("%.3f", r.StepsPerChar), fmt.Sprintf("%.2f", r.ThroughputFraction))
	}
	return t2.Render(out)
}
