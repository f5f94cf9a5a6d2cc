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

// stampShard writes distinct values into every counter slot and per-rule
// counter of both lanes of shard s, on an idle gateway with two lanes per
// shard. The two lanes of a shard sum to stampSum(s, slot) for a slot, and
// to stampRuleSums(s, rule) for a rule's counters.
func stampShard(t *testing.T, gw *Gateway, s int) {
	t.Helper()
	if gw.cfg.StreamWorkers != 2 {
		t.Fatalf("stampShard wants 2 lanes per shard, the gateway has %d", gw.cfg.StreamWorkers)
	}
	a, b := gw.lanes[2*s], gw.lanes[2*s+1]
	for i := range a.n {
		part := uint64(10_007 + 101*i + 53*s)
		a.n[i].Store(stampSum(s, gwCounter(i)) - part)
		b.n[i].Store(part)
	}
	for r := range a.rules {
		flows, matches := stampRuleSums(s, r)
		a.rules[r].flows.Store(flows - uint64(601+r))
		b.rules[r].flows.Store(uint64(601 + r))
		a.rules[r].matches.Store(matches - uint64(701+r))
		b.rules[r].matches.Store(uint64(701 + r))
	}
}

func stampSum(s int, c gwCounter) uint64 { return uint64(1_000_003 + 7_919*int(c) + 104_729*s) }

func stampRuleSums(s, r int) (flows, matches uint64) {
	return uint64(50_021 + 1_013*r + 211*s), uint64(70_001 + 1_019*r + 223*s)
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
// public field — a GatewayStats field (summed over every lane) or an
// EngineStats field of the owning shard (summed over its lanes) — none
// dropped, none mapped twice (GatewayStats.FlowsEvicted is the sum of the
// three eviction-reason slots, which Metrics labels apart), and exactly one
// /metrics sample. It writes distinct values into both lanes of shard 1 of
// an idle gateway and looks for each slot's two-lane sum by reflection and in
// the exposition, so a slot added without a row, a row read from the wrong
// slot, or a shard summed over only some of its lanes fails here. The same
// values must then survive a ruleset swap and the old generation's
// retirement untouched: the counters belong to the lanes, there is no
// retired baseline to fold them into.
func TestGatewayCountersSurfacedExactlyOnce(t *testing.T) {
	m, _ := gatewayMatcher(t, 60)
	gw := testGateway(t, m, GatewayConfig{EngineShards: 2, StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	defer gw.Close()

	const shard = 1
	stampShard(t, gw, shard)
	sum := func(c gwCounter) uint64 { return stampSum(shard, c) }

	seen := map[uint64][]string{}
	collect := func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			var n uint64
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				n = f.Uint()
			case reflect.Int:
				n = uint64(f.Int())
			default:
				t.Fatalf("%s%s: unexpected field kind %s", prefix, v.Type().Field(i).Name, f.Kind())
			}
			seen[n] = append(seen[n], prefix+v.Type().Field(i).Name)
		}
	}
	collect("GatewayStats.", reflect.ValueOf(gw.Stats()))
	collect("ShardStats[1].", reflect.ValueOf(gw.ShardStats()[shard]))
	evicted := sum(cFlowsEvictedCap) + sum(cFlowsEvictedIdle) + sum(cFlowsRemoved)
	if fields := seen[evicted]; len(fields) != 1 || fields[0] != "GatewayStats.FlowsEvicted" {
		t.Errorf("eviction-reason slots sum to %d, surfaced in %v, want exactly FlowsEvicted", evicted, fields)
	}
	for c := range numCounters {
		if c == cFlowsEvictedCap || c == cFlowsEvictedIdle || c == cFlowsRemoved {
			continue
		}
		if fields := seen[sum(c)]; len(fields) != 1 || !strings.HasSuffix(fields[0], "."+gwCounters[c].field) {
			t.Errorf("counter slot %d (row %q) surfaced in public fields %v, want exactly its row's field", c, gwCounters[c].field, fields)
		}
	}

	// Every row's value is in exactly one sample: its own family, under its
	// own label, or shard 1's sample of a per-shard family.
	samples := map[uint64][]string{}
	for _, line := range strings.Split(scrape(t, gw), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err == nil {
			samples[n] = append(samples[n], name)
		}
	}
	for c, r := range gwCounters {
		want := r.name
		switch label, value, labelled := strings.Cut(r.kind, "="); {
		case r.kind == "shard":
			want += `{shard="1"}`
		case labelled:
			want += "{" + label + `="` + value + `"}`
		}
		if got := samples[sum(gwCounter(c))]; len(got) != 1 || got[0] != want {
			t.Errorf("counter slot %d renders in samples %v, want exactly %s", c, got, want)
		}
	}

	if es := gw.ShardStats()[0]; es != (EngineStats{}) {
		t.Errorf("the untouched shard reports work: %+v", es)
	}
	if h := gw.Health(); h.Panics != sum(cPanics) || h.QuarantinedFlows != sum(cQuarantinedFlows) {
		t.Errorf("Health = %+v, want the shard's panic and quarantine counts %d, %d", h, sum(cPanics), sum(cQuarantinedFlows))
	}
	for r, rs := range gw.RuleStats() {
		if flows, matches := stampRuleSums(shard, r); rs.Flows != flows || rs.Matches != matches {
			t.Errorf("RuleStats[%d] = %+v, want flows %d, matches %d", r, rs, flows, matches)
		}
	}

	before := gw.ShardStats()
	m2, _ := gatewayMatcher(t, 60)
	if err := gw.SwapRules(m2); err != nil {
		t.Fatal(err)
	}
	if st := gw.Stats(); st.GenerationsRetired != 1 || st.GenerationsLive != 1 {
		t.Fatalf("idle swap did not retire the old generation: %+v", st)
	}
	if after := gw.ShardStats(); !reflect.DeepEqual(after, before) {
		t.Errorf("ShardStats moved across swap + retirement: %+v then %+v", before, after)
	}
}

// TestGatewayMetricsStampedExposition pins the whole exposition of an idle
// 2 × 2 gateway with metricsTestRules() and every lane counter stamped:
// names, types, help texts, labels and values, compared with
// testdata/metrics/stamped.prom as a set of lines, so the order of families
// may change and nothing else. The golden was rendered before
// dpi_gateway_flow_table_clock, a copy of dpi_gateway_stream_packets_total,
// was retired; that family's three lines are the one allowed difference.
func TestGatewayMetricsStampedExposition(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics/stamped.prom")
	if err != nil {
		t.Fatal(err)
	}
	gw := testGateway(t, corpusMatcher(t, BackendAuto),
		GatewayConfig{EngineShards: 2, StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	defer gw.Close()
	stampShard(t, gw, 0)
	stampShard(t, gw, 1)
	// The generation is process-unique; the golden spells it G.
	gen := strconv.FormatUint(gw.Generation(), 10)
	out := regexp.MustCompile(`generation="`+gen+`"`).ReplaceAllString(scrape(t, gw), `generation="G"`)
	out = regexp.MustCompile(`(?m)^dpi_ruleset_generation `+gen+`$`).ReplaceAllString(out, `dpi_ruleset_generation G`)

	lines := func(s string) []string {
		l := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
		slices.Sort(l)
		return l
	}
	var want []string
	retired := 0
	for _, l := range lines(string(golden)) {
		if strings.Contains(l, "dpi_gateway_flow_table_clock") {
			retired++
			continue
		}
		want = append(want, l)
	}
	if retired != 3 {
		t.Fatalf("golden holds %d lines of the retired clock family, want its HELP, TYPE and sample", retired)
	}
	got := lines(out)
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
