package dpi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/capture/corpus"
	"repro/internal/metrics"
)

// metricsTestRules: an alert rule covering web traffic, a drop rule for
// ICMP, a pass rule for the telemetry UDP tuple — one of each action, so
// every verdict series is exercised.
func metricsTestRules() []VerdictRule {
	return []VerdictRule{
		{ID: 1, Name: "web-alert", Header: HeaderRule{Proto: ProtoTCP, DstPorts: PortRange{Lo: 80, Hi: 443}}, Verdict: VerdictAlert},
		{ID: 2, Name: "icmp-drop", Header: HeaderRule{Proto: ProtoICMP}, Verdict: VerdictDrop},
		{ID: 3, Name: "telemetry-pass", Header: HeaderRule{Proto: ProtoUDP, DstPorts: PortRange{Lo: 9999, Hi: 9999}}, Verdict: VerdictPass},
	}
}

// TestGatewayMetricsSeries replays a corpus and checks the exposition:
// valid text format, and the gateway, per-lane, flow-table and per-rule
// series present with values agreeing with the Stats() snapshot.
func TestGatewayMetricsSeries(t *testing.T) {
	c := corpus.HTTPMixed()
	raw, err := os.ReadFile(filepath.Join("testdata", "pcap", c.File))
	if err != nil {
		t.Fatal(err)
	}
	m := testMatcher(t, corpusRules(BackendAuto))
	gw := testGateway(t, m, 2, GatewayConfig{StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	if _, err := gw.ReplayPcap(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	gw.Flush()

	out := scrape(t, gw)
	exp := []byte(out)
	if n, err := metrics.Validate(exp); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, exp)
	} else if n == 0 {
		t.Fatal("empty exposition")
	}

	s := gw.Stats()
	for _, want := range []string{
		fmt.Sprintf("dpi_gateway_packets_total %d\n", s.Packets),
		fmt.Sprintf("dpi_gateway_payload_bytes_total %d\n", s.Bytes),
		fmt.Sprintf("dpi_gateway_matches_total %d\n", s.Matches),
		fmt.Sprintf("dpi_gateway_verdicts_total{verdict=\"alert\"} %d\n", s.VerdictAlerts),
		fmt.Sprintf("dpi_gateway_verdicts_total{verdict=\"drop\"} %d\n", s.VerdictDrops),
		fmt.Sprintf("dpi_gateway_verdicts_total{verdict=\"pass\"} %d\n", s.VerdictPasses),
		"dpi_gateway_lanes 4\n",
		fmt.Sprintf("dpi_backend_info{backend=%q} 1\n", gw.Backend()),
		"dpi_gateway_flows_evicted_total{reason=\"capacity\"} ",
		"dpi_gateway_flows_evicted_total{reason=\"idle\"} ",
		"dpi_gateway_flows_evicted_total{reason=\"teardown\"} ",
		"dpi_gateway_reassembled_bytes_total{lane=\"0\"} ",
		"dpi_gateway_reassembled_bytes_total{lane=\"3\"} ",
		"dpi_rule_flows_total{rule_id=\"1\",rule=\"web-alert\",verdict=\"alert\"} ",
		"dpi_rule_flows_total{rule_id=\"2\",rule=\"icmp-drop\",verdict=\"drop\"} 2\n",
		"dpi_rule_flows_total{rule_id=\"3\",rule=\"telemetry-pass\",verdict=\"pass\"} 2\n",
		"dpi_rule_matches_total{rule_id=\"1\",rule=\"web-alert\",verdict=\"alert\"} ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Per-rule accounting must agree with the aggregate verdict counters.
	var flows, matches uint64
	for _, r := range gw.RuleStats() {
		flows += r.Flows
		matches += r.Matches
	}
	if flows != s.VerdictAlerts+s.VerdictDrops+s.VerdictPasses {
		t.Errorf("sum of RuleStats.Flows %d != verdict total %d", flows,
			s.VerdictAlerts+s.VerdictDrops+s.VerdictPasses)
	}
	if matches == 0 {
		t.Error("no matches attributed to the alert rule")
	}
}

// TestGatewayMetricsFlowsOpenedPerConnection: dpi_gateway_flows_opened_total
// counts connections, not table entries. Three connections reuse one tuple
// — each FIN leaves a husk the next SYN revives — so the table creates one
// flow while the lane opens three, and what is left is one entry, a husk,
// which dpi_gateway_flow_husks reports in a strictly valid exposition.
func TestGatewayMetricsFlowsOpenedPerConnection(t *testing.T) {
	m := testMatcher(t, corpusRules(BackendAuto))
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
	tup := FiveTuple{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 40000, DstPort: 80, Proto: ProtoTCP}
	for conn := uint32(0); conn < 3; conn++ {
		isn := conn * 5000
		ingestWorkload(t, gw, 1, []GatewayPacket{
			{Tuple: tup, Seq: isn, Flags: FlagSeq | FlagSYN},
			{Tuple: tup, Seq: isn + 1, Flags: FlagSeq, Payload: []byte("GET / HTTP/1.1")},
			{Tuple: tup, Seq: isn + 15, Flags: FlagSeq | FlagFIN},
		}...)
	}
	checkpoint(t, gw, "after three connections")
	if st := gw.Stats(); st.FlowsCreated != 1 || st.FlowsFinished != 3 || st.FlowsOpened != 3 {
		t.Fatalf("three connections on one tuple, want 1 flow created and 3 finished and opened: %+v", st)
	}
	out := scrape(t, gw)
	if _, err := metrics.Validate([]byte(out)); err != nil {
		t.Errorf("scrape invalid: %v", err)
	}
	for _, want := range []string{
		"dpi_gateway_flows_opened_total{lane=\"0\"} 3\n",
		"dpi_gateway_flows_live 1\n",
		"dpi_gateway_flow_husks 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestGatewayMetricsHTTP mounts the handler and checks the scrape
// response shape: Content-Type, validity, method restriction.
func TestGatewayMetricsHTTP(t *testing.T) {
	m := testMatcher(t, corpusRules(BackendAuto))
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})

	srv := httptest.NewServer(gw.Metrics())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	if _, err := metrics.Validate(body); err != nil {
		t.Errorf("scrape invalid: %v", err)
	}
	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", post.StatusCode)
	}
}

// TestGatewayMetricsScrapeUnderLoad scrapes continuously while both
// corpora replay into a sharded gateway — the race test for the metrics
// snapshot path (run under -race in CI). Every concurrent scrape must be
// a well-formed exposition.
func TestGatewayMetricsScrapeUnderLoad(t *testing.T) {
	m := testMatcher(t, corpusRules(BackendAuto))
	gw := testGateway(t, m, 2, GatewayConfig{StreamWorkers: 2, Rules: metricsTestRules()}, func(FlowMatch) {})
	gm := gw.Metrics()

	corpora := [][]byte{corpus.HTTPMixed().Bytes(), corpus.EvasionWrap().Bytes()}
	done := make(chan struct{})
	var feedWg sync.WaitGroup
	feedWg.Add(1)
	go func() {
		defer feedWg.Done()
		for i := 0; i < 20; i++ {
			for _, raw := range corpora {
				if _, err := gw.ReplayPcap(bytes.NewReader(raw)); err != nil {
					t.Errorf("replay: %v", err)
					return
				}
			}
		}
	}()

	var scrapeWg sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapeWg.Add(1)
		go func() {
			defer scrapeWg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if _, err := gm.WriteTo(&buf); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if _, err := metrics.Validate(buf.Bytes()); err != nil {
					t.Errorf("concurrent scrape invalid: %v", err)
					return
				}
			}
		}()
	}

	feedWg.Wait()
	close(done)
	scrapeWg.Wait()
	closeCheckpoint(t, gw)

	// One final post-drain scrape must still be valid and show the traffic.
	var buf bytes.Buffer
	if _, err := gm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.Validate(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dpi_gateway_packets_total ") {
		t.Error("final scrape missing packet counter")
	}
}
