package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	dpi "repro"
)

// tiny divides every workload's flow count so the whole file runs in a few
// seconds; the per-flow shapes are the full-scale ones.
const tiny = 32

func tinyConfig(seconds float64) runConfig {
	return runConfig{seed: 7, seconds: seconds, windows: 2, scale: tiny, logf: func(string, ...any) {}}
}

func testRules(t *testing.T) *dpi.Ruleset {
	t.Helper()
	rules, err := dpi.GenerateSnortLike(rulesetStrings, rulesSeed)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// The same seed must give the same capture, byte for byte, and another
// seed another one: the driver compares runs by seed.
func TestImagesDeterministic(t *testing.T) {
	rules := testRules(t)
	for _, s := range specs {
		s = s.scaled(tiny)
		a, err := s.build(rules, 2010)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.build(rules, 2010)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.build(rules, 2011)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.image, b.image) {
			t.Errorf("%s: seed 2010 built two different images", s.name)
		}
		if bytes.Equal(a.image, c.image) {
			t.Errorf("%s: seeds 2010 and 2011 built the same image", s.name)
		}
		if a.half <= pcapHeaderLen || a.half >= len(a.image) {
			t.Errorf("%s: half %d outside the image (%d bytes)", s.name, a.half, len(a.image))
		}
	}
}

// One pass of every workload through the real gateway and through the
// hand-composed pipeline must both reproduce the FindAll oracle, with the
// ledger balanced and the workload's signature in the counters.
func TestOraclePassPerWorkload(t *testing.T) {
	rules := testRules(t)
	g, err := buildGrouped(rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		p, _, err := prepare(s.name, rules, tinyConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if p.want == 0 {
			t.Fatalf("%s: oracle finds nothing; the check would be vacuous", s.name)
		}
		r, err := newReplayer(p.w, p.m, p.want, p.w.gatewayConfig(), p.res)
		if err != nil {
			t.Fatal(err)
		}
		r.checkpoint()
		r.window(0)
		if err := r.gw.Close(); err != nil {
			t.Fatal(err)
		}
		for _, v := range p.res.Violations {
			t.Errorf("%s", v)
		}
		pl := newPipeline(p.w, g, newTracer(false))
		for range 2 { // the second pass reopens every finished connection
			if err := pl.pass(); err != nil {
				t.Fatal(err)
			}
		}
		if pl.n.matches != 2*p.want {
			t.Errorf("%s: composed pipeline found %d matches in two passes, oracle %d", s.name, pl.n.matches, 2*p.want)
		}
	}
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func keys(ms map[string]measured) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ds []metricDecl) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// What BENCHMARK.json declares, what the code declares and what a run
// actually reports must be one set of names, units, directions and bounds.
func TestDeclaredNamesMatchReport(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", d.Paths)
	}
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(d.Workloads), len(specs))
	}
	for i, s := range specs {
		if d.Workloads[i].Name != s.name || d.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, s.name, s.why)
		}
	}
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json %+v\n code %+v", d.PerLayer, perLayer)
	}

	results, err := runEndToEnd(workloadNames(), tinyConfig(0.3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Workload != specs[i].name {
			t.Errorf("result %d is %q, want %q", i, r.Workload, specs[i].name)
		}
		if got, want := keys(r.Metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end run reports %v, declared %v", r.Workload, got, want)
		}
		for _, v := range r.Violations {
			t.Errorf("%s", v)
		}
	}
	// The traced run's names do not depend on the workload; churn-mixed is
	// the one that reaches every layer, the burst lane and eviction included.
	traced, err := runTraced([]string{"churn-mixed"}, tinyConfig(0.3), filepath.Join(t.TempDir(), "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keys(traced[0].Metrics), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v, declared %v", got, want)
	}
	for _, v := range traced[0].Violations {
		t.Errorf("%s", v)
	}
}
