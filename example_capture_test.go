package dpi_test

// Godoc examples for the capture-to-verdict edge: replaying a committed
// libpcap corpus through the gateway, and scraping the gateway's
// Prometheus-format metrics surface. Both run under go test against the
// corpora in testdata/pcap/, so the printed numbers are the same ground
// truth the corpus tests and the CI sensor-smoke job pin.

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"

	dpi "repro"
	"repro/internal/capture/corpus"
)

// Example_pcapReplay feeds a capture file into a sharded gateway with
// one signature. The corpus plants "/etc/passwd" exactly once, inside a
// TCP flow whose segments arrive out of order — the match surfaces
// anyway because reassembly restores the stream before scanning.
func Example_pcapReplay() {
	rs := dpi.NewRuleset()
	rs.MustAdd("etc-passwd", []byte("/etc/passwd"))
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		log.Fatal(err)
	}

	var matches atomic.Uint64
	gw, err := dpi.NewGateway(m, dpi.GatewayConfig{EngineShards: 2},
		func(dpi.FlowMatch) { matches.Add(1) })
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	f, err := os.Open("testdata/pcap/evasion-wrap.pcap")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	st, err := gw.ReplayPcap(f)
	if err != nil {
		log.Fatal(err)
	}
	gw.Flush()

	fmt.Printf("frames=%d ingested=%d matches=%d\n",
		st.Frames, st.Ingested, matches.Load())
	// Output:
	// frames=28 ingested=26 matches=1
}

// ExampleGateway_Metrics replays a corpus and scrapes the gateway's
// metrics surface. The exposition is the Prometheus text format; here a
// few stable series are picked out of the full scrape.
func ExampleGateway_Metrics() {
	rs := dpi.NewRuleset()
	for _, r := range corpus.Rules() {
		rs.MustAdd(r.Name, []byte(r.Content))
	}
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		log.Fatal(err)
	}
	gw, err := dpi.NewGateway(m, dpi.GatewayConfig{EngineShards: 2},
		func(dpi.FlowMatch) {})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	f, err := os.Open("testdata/pcap/http-mixed.pcap")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if _, err := gw.ReplayPcap(f); err != nil {
		log.Fatal(err)
	}
	gw.Flush()

	var buf bytes.Buffer
	if _, err := gw.Metrics().WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "dpi_gateway_packets_total "),
			strings.HasPrefix(line, "dpi_gateway_matches_total "),
			strings.HasPrefix(line, "dpi_gateway_flows_created_total "):
			fmt.Println(line)
		}
	}
	// Output:
	// dpi_gateway_packets_total 33
	// dpi_gateway_matches_total 9
	// dpi_gateway_flows_created_total 8
}
