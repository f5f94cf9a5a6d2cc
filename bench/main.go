// Command bench is the repository's capture-to-verdict benchmark: five
// seeded packet-shape workloads replayed as pcap images through the whole
// gateway. The end-to-end run gates live heap and set-up time and prints
// goodput beside them; a separate traced run reports goodput, match latency
// at a fixed rate and a per-layer budget composed from the layers' public
// functions. README.md defines every metric; BENCHMARK.json
// declares them to the driver.
//
//	go run ./bench                      # all five workloads, interleaved
//	go run ./bench --workload small-pkt --seed 7 --seconds 15 --trace 0
//	go run ./bench --workload small-pkt --trace 1   # per-layer budget
//	go run ./bench --selfcheck          # two runs, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// rulesSeed fixes the ruleset: it is the sensor's configuration, not its
// input. --seed varies the traffic only, so that ten seeds measure ten
// inputs to one system and their spread is the benchmark's noise.
const rulesSeed = 2010

// metricDecl declares a metric the way BENCHMARK.json does.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, measured with tracing off. Goodput and
// match latency are not among them: neither repeats within a tenth on a
// shared host, and the rule is to demote such a metric, not to widen its
// bound. README.md has the measurements.
var endToEnd = []metricDecl{
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.10},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 2010, "traffic seed")
		seconds   = flag.Float64("seconds", 15, "measured seconds per workload")
		trace     = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
		windows   = flag.Int("windows", 30, "closed-loop windows kept per workload")
		jsonPath  = flag.String("json", "", "write the full report, every sample included, to this file")
		traceOut  = flag.String("trace-out", "", "traced run: write the spans here (default bench-trace-<workload>.json under os.TempDir())")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end protocol twice and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || *windows < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames()
	if *workload != "all" {
		if _, ok := specByName(*workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
		names = []string{*workload}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, windows: *windows, scale: 1,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }}
	if err := run(names, cfg, *trace == 1, *selfcheck, *jsonPath, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the -json artifact.
type report struct {
	Commit        string    `json:"commit"`
	GoVersion     string    `json:"go_version"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	Backend       string    `json:"backend"`
	StreamWorkers int       `json:"stream_workers"`
	EngineShards  int       `json:"engine_shards"`
	RulesSeed     int64     `json:"rules_seed"`
	Seed          int64     `json:"seed"`
	Seconds       float64   `json:"seconds_per_workload"`
	Windows       int       `json:"windows"`
	WindowSeconds float64   `json:"window_seconds"` // end-to-end run: one closed-loop window
	Traced        bool      `json:"traced"`
	Results       []*result `json:"results"`
}

func newReport(cfg runConfig, traced bool, results []*result) report {
	gc := specs[0].gatewayConfig()
	return report{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Backend: results[0].Backend, StreamWorkers: gc.StreamWorkers,
		EngineShards: gc.EngineShards, RulesSeed: rulesSeed, Seed: cfg.seed, Seconds: cfg.seconds,
		Windows: cfg.windows, WindowSeconds: cfg.seconds / float64(cfg.windows+1) * (1 - calibShare),
		Traced: traced, Results: results,
	}
}

// commit names the measured tree; the driver's checkout is not a git
// repository, which is reported as such rather than guessed at.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func run(names []string, cfg runConfig, traced, selfcheck bool, jsonPath, traceOut string) error {
	var results []*result
	var err error
	switch {
	case selfcheck:
		return runSelfcheck(names, cfg)
	case traced:
		results, err = runTraced(names, cfg, traceOut)
	default:
		results, err = runEndToEnd(names, cfg)
	}
	if err != nil {
		return err
	}
	rep := newReport(cfg, traced, results)
	printReport(rep)
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(jsonPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(results) == 1 {
		return printContractLine(results[0])
	}
	return nil
}

// printReport prints every metric by name with its unit, then the side
// readings and any violation in full.
func printReport(rep report) {
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  backend %s  shards %d  stream workers %d\n",
		rep.Commit, rep.GoVersion, rep.NProc, rep.GOMAXPROCS, rep.Backend, rep.EngineShards, rep.StreamWorkers)
	fmt.Printf("ruleset %d strings (seed %d)  traffic seed %d  %.3g s per workload  %d windows  traced %v\n",
		rulesetStrings, rep.RulesSeed, rep.Seed, rep.Seconds, rep.Windows, rep.Traced)
	for _, r := range rep.Results {
		fmt.Printf("\n== %s ==\n", r.Workload)
		printMeasured(r.Metrics)
		if len(r.Notes) > 0 {
			fmt.Println("  -- beside them, not gated --")
			printMeasured(r.Notes)
		}
		fmt.Printf("  %-34s %14d packets\n", "ops_attempted", r.Attempted)
		fmt.Printf("  %-34s %14d packets\n", "ops_failed", r.Failed)
		for _, v := range r.Violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
	}
	fmt.Println()
}

func printMeasured(ms map[string]measured) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		q1, q3 := quartiles(m.Samples)
		fmt.Printf("  %-34s %14.6g %-8s", n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			fmt.Printf(" n=%d q1 %.6g q3 %.6g", len(m.Samples), q1, q3)
		}
		fmt.Println()
	}
}

// printContractLine prints the driver's result line: last on stdout, one
// JSON object.
func printContractLine(r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}
