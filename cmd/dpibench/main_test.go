package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRunKernelSmall(t *testing.T) {
	var sb strings.Builder
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "kernel-bench.json")
	cfg := kernelBenchConfig{
		Sizes: []int{60}, Bytes: 1 << 13, Seed: 2010,
		MinTime: 5 * time.Millisecond,
	}
	if err := runKernel(context.Background(), &sb, jsonPath, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"SCAN KERNEL THROUGHPUT", "baked", "reference", "prefiltered", "clean", "Oracle", "Allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep kernelBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v\n%s", err, data)
	}
	if !rep.OK || rep.Bench != 13 {
		t.Fatalf("report not OK: %s", data)
	}
	// One attack row group + one clean row group, three backends each.
	if len(rep.Rows) != 6 {
		t.Fatalf("report has %d rows, want 6: %s", len(rep.Rows), data)
	}
	byKey := map[string]kernelBenchRow{}
	for _, r := range rep.Rows {
		if r.Matches != r.OracleMatches {
			t.Fatalf("row %+v diverged from the oracle but report.OK is true", r)
		}
		byKey[r.Profile+"/"+r.Backend] = r
	}
	for _, profile := range []string{"attack", "clean"} {
		for _, backend := range core.RegisteredBackends() {
			if _, ok := byKey[profile+"/"+backend]; !ok {
				t.Fatalf("missing %s/%s row: %s", profile, backend, data)
			}
		}
	}
	if r := byKey["attack/baked"]; r.DenseStates == 0 || r.KernelBytes == 0 {
		t.Fatalf("baked row missing kernel stats: %+v", r)
	}
	if r := byKey["attack/prefiltered"]; r.PrefilterBytes == 0 {
		t.Fatalf("prefiltered row missing prefilter stats: %+v", r)
	}
	// All backends in a group share the oracle count — the prefilter's
	// lossiness must be invisible in match output.
	if a, b := byKey["clean/baked"], byKey["clean/prefiltered"]; a.OracleMatches != b.OracleMatches {
		t.Fatalf("clean rows disagree on the oracle: %+v vs %+v", a, b)
	}
	// No floor assertion on the tiny timing budget: the speedup gates are
	// exercised by CI's full-size run and the committed BENCH_13.json.

	// The atomic writer must leave no temp litter next to the report.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("report directory not clean after atomic write: %v", entries)
	}
}

// TestRunKernelInterrupted pins the graceful-shutdown contract: a canceled
// context ends the run without error, and the report is written, parseable
// and marked interrupted.
func TestRunKernelInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	jsonPath := filepath.Join(t.TempDir(), "kernel-bench.json")
	cfg := kernelBenchConfig{Sizes: []int{60}, Bytes: 1 << 13, Seed: 2010, MinTime: 5 * time.Millisecond}
	if err := runKernel(ctx, &sb, jsonPath, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep kernelBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("partial report does not parse: %v\n%s", err, data)
	}
	if !rep.Interrupted || len(rep.Rows) != 0 {
		t.Fatalf("canceled run not marked interrupted: %s", data)
	}
	if !strings.Contains(sb.String(), "interrupted") {
		t.Errorf("interruption not reported to the operator:\n%s", sb.String())
	}
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, false, 1, 0, false, false, 2010, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TABLE I", "Cyclone III", "Stratix III", "460.19"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure1EmitsDot(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, false, 0, 1, false, false, 2010, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "digraph machine {") {
		t.Fatalf("not DOT output:\n%.120s", out)
	}
	if !strings.Contains(out, "doublecircle") {
		t.Error("match states missing from DOT")
	}
}

func TestRunFigure2(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, false, 0, 2, false, false, 2010, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIGURE 2", "0.1", "0.5", "1.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure7TSV(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, false, 0, 7, false, true, 2010, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "FIGURE 7") || !strings.Contains(out, "# 500 Strings") {
		t.Errorf("TSV series missing:\n%s", out)
	}
	// The top sample of the 500-string curve: 2.78 W, 14.9 Gbps.
	if !strings.Contains(out, "2.78\t14.9") {
		t.Errorf("calibrated endpoint missing:\n%s", out)
	}
}

func TestRunFigure8Plot(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, false, 0, 8, false, false, 2010, 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "FIGURE 8") || !strings.Contains(out, "634 Strings") {
		t.Errorf("plot missing:\n%s", out)
	}
}

// The ctx-dependent paths (tables 2/3, figure 6, ablation) are covered by
// internal/experiments tests; exercising them here again would rebuild the
// full 6,275-string workload, so they are exercised once in -short form.
func TestRunSmallContextPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload build")
	}
	var sb strings.Builder
	if err := run(&sb, false, 0, 6, false, true, 2010, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FIGURE 6") {
		t.Error("figure 6 missing")
	}
}
