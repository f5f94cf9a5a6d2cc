package dpi

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// stampLane writes distinct values into every counter slot and per-rule
// counter of lane l of an idle 2 × 2 gateway: stampValue(l, slot) and
// stampRule(l, rule). Lanes 2s and 2s+1 split between them what one shard
// of the per-shard golden held, so stamping all four lanes leaves every
// gateway total in testdata/metrics/stamped.prom where it was.
func stampLane(t *testing.T, gw *Gateway, l int) {
	t.Helper()
	if len(gw.lanes) != 4 {
		t.Fatalf("stampLane wants a 2 × 2 gateway, this one has %d lanes", len(gw.lanes))
	}
	ln := gw.lanes[l]
	for i := range ln.n {
		ln.n[i].Store(stampValue(l, gwCounter(i)))
	}
	for r := range ln.rules {
		flows, matches := stampRule(l, r)
		ln.rules[r].flows.Store(flows)
		ln.rules[r].matches.Store(matches)
	}
}

// stampValue is what stampLane writes into slot c of lane l: an odd lane
// holds a part, the even lane below it the rest of its pair's sum.
func stampValue(l int, c gwCounter) uint64 {
	s := l / 2
	part := uint64(10_007 + 101*int(c) + 53*s)
	if l%2 == 1 {
		return part
	}
	return uint64(1_000_003+7_919*int(c)+104_729*s) - part
}

// stampRule is what stampLane writes into rule r's counters on lane l,
// split the same way.
func stampRule(l, r int) (flows, matches uint64) {
	if l%2 == 1 {
		return uint64(601 + r), uint64(701 + r)
	}
	s := l / 2
	return uint64(50_021+1_013*r+211*s) - uint64(601+r), uint64(70_001+1_019*r+223*s) - uint64(701+r)
}

// scrape renders one exposition of gw.
func scrape(t *testing.T, gw *Gateway) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := gw.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGatewayCountersSurfacedExactlyOnce pins the counter table's contract
// on a 2 × 2 gateway: every slot declared in gwCounter reaches exactly one
// GatewayStats field — none dropped, none mapped twice (FlowsEvicted is the
// sum of the three eviction-reason slots, which Metrics labels apart) — the
// same field in Stats and in the lane's LaneStats element, and exactly one
// /metrics sample. It writes distinct values into one lane of an idle
// gateway and looks for each by reflection and in the exposition, so a slot
// added without a row, a row read from the wrong slot, or a lane read from
// another lane's block fails here. The same values must then survive a
// ruleset swap and the old generation's retirement untouched: the counters
// belong to the lanes, there is no retired baseline to fold them into.
func TestGatewayCountersSurfacedExactlyOnce(t *testing.T) {
	m := testMatcher(t, snortLike(60, 77, BackendAuto))
	gw := testGateway(t, m, 2, GatewayConfig{StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})

	const lane = 2
	stampLane(t, gw, lane)
	val := func(c gwCounter) uint64 { return stampValue(lane, c) }

	fields := func(s GatewayStats) map[uint64][]string {
		seen := map[uint64][]string{}
		v := reflect.ValueOf(s)
		for i := 0; i < v.NumField(); i++ {
			var n uint64
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				n = f.Uint()
			case reflect.Int:
				n = uint64(f.Int())
			default:
				t.Fatalf("GatewayStats.%s: unexpected field kind %s", v.Type().Field(i).Name, f.Kind())
			}
			seen[n] = append(seen[n], v.Type().Field(i).Name)
		}
		return seen
	}
	lanes := gw.LaneStats()
	if len(lanes) != 4 {
		t.Fatalf("LaneStats has %d elements, want one per lane (4)", len(lanes))
	}
	for _, snap := range []struct {
		name string
		seen map[uint64][]string
	}{{"Stats", fields(gw.Stats())}, {"LaneStats[2]", fields(lanes[lane])}} {
		evicted := val(cFlowsEvictedCap) + val(cFlowsEvictedIdle) + val(cFlowsRemoved)
		if f := snap.seen[evicted]; len(f) != 1 || f[0] != "FlowsEvicted" {
			t.Errorf("%s: eviction-reason slots sum to %d, surfaced in %v, want exactly FlowsEvicted", snap.name, evicted, f)
		}
		for c := range numCounters {
			if c == cFlowsEvictedCap || c == cFlowsEvictedIdle || c == cFlowsRemoved {
				continue
			}
			if f := snap.seen[val(c)]; len(f) != 1 || f[0] != gwCounters[c].field {
				t.Errorf("%s: counter slot %d (row %q) surfaced in fields %v, want exactly its row's field", snap.name, c, gwCounters[c].field, f)
			}
		}
	}
	for l, ls := range lanes {
		if l != lane && ls != (GatewayStats{}) {
			t.Errorf("untouched lane %d reports work: %+v", l, ls)
		}
	}

	// Every row's value is in exactly one sample: its own family, under its
	// own label, or the stamped lane's sample of a per-lane family, which
	// samples every lane once.
	samples := map[uint64][]string{}
	perLane := map[string]int{}
	for _, line := range strings.Split(scrape(t, gw), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if family, _, found := strings.Cut(name, `{lane="`); found {
			perLane[family]++
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err == nil {
			samples[n] = append(samples[n], name)
		}
	}
	for c, r := range gwCounters {
		want := r.name
		switch label, value, labelled := strings.Cut(r.kind, "="); {
		case r.kind == "lane":
			want += `{lane="2"}`
			if perLane[r.name] != len(lanes) {
				t.Errorf("%s has %d lane samples, want one per lane (%d)", r.name, perLane[r.name], len(lanes))
			}
		case labelled:
			want += "{" + label + `="` + value + `"}`
		}
		if got := samples[val(gwCounter(c))]; len(got) != 1 || got[0] != want {
			t.Errorf("counter slot %d renders in samples %v, want exactly %s", c, got, want)
		}
	}

	if h := gw.Health(); h.Panics != val(cPanics) || h.QuarantinedFlows != val(cQuarantinedFlows) {
		t.Errorf("Health = %+v, want the lane's panic and quarantine counts %d, %d", h, val(cPanics), val(cQuarantinedFlows))
	}
	for r, rs := range gw.RuleStats() {
		if flows, matches := stampRule(lane, r); rs.Flows != flows || rs.Matches != matches {
			t.Errorf("RuleStats[%d] = %+v, want flows %d, matches %d", r, rs, flows, matches)
		}
	}

	m2 := compileRules(t, snortLike(60, 77, BackendAuto))
	if err := gw.SwapRules(m2); err != nil {
		t.Fatal(err)
	}
	if st := gw.Stats(); st.GenerationsRetired != 1 || st.GenerationsLive != 1 {
		t.Fatalf("idle swap did not retire the old generation: %+v", st)
	}
	if after := gw.LaneStats(); !reflect.DeepEqual(after, lanes) {
		t.Errorf("LaneStats moved across swap + retirement: %+v then %+v", lanes, after)
	}
}

// TestGatewayMetricsStampedExposition pins the whole exposition of an idle
// 2 × 2 gateway with metricsTestRules() and every lane counter stamped:
// names, types, help texts, labels and values, compared with
// testdata/metrics/stamped.prom as a set of lines, so the order of families
// may change and nothing else.
func TestGatewayMetricsStampedExposition(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics/stamped.prom")
	if err != nil {
		t.Fatal(err)
	}
	gw := testGateway(t, testMatcher(t, corpusRules(BackendAuto)), 2,
		GatewayConfig{StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	for l := range gw.lanes {
		stampLane(t, gw, l)
	}
	// The generation is process-unique; the golden spells it G.
	gen := strconv.FormatUint(gw.Generation(), 10)
	out := regexp.MustCompile(`generation="`+gen+`"`).ReplaceAllString(scrape(t, gw), `generation="G"`)
	out = regexp.MustCompile(`(?m)^dpi_ruleset_generation `+gen+`$`).ReplaceAllString(out, `dpi_ruleset_generation G`)

	lines := func(s string) []string {
		l := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
		slices.Sort(l)
		return l
	}
	want, got := lines(string(golden)), lines(out)
	for _, l := range got {
		if _, found := slices.BinarySearch(want, l); !found {
			t.Errorf("scrape line not in the golden: %s", l)
		}
	}
	for _, l := range want {
		if _, found := slices.BinarySearch(got, l); !found {
			t.Errorf("golden line missing from the scrape: %s", l)
		}
	}
	if len(got) != len(want) {
		t.Errorf("scrape has %d lines, the golden %d", len(got), len(want))
	}
}
