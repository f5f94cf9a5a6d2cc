// Sensor: the complete capture-to-verdict edge in one binary. Committed
// pcap corpora replay through a multi-lane gateway — classic libpcap parsing,
// Ethernet/IPv4/TCP translation, per-flow reassembly, header-rule
// verdicts, pattern scanning — while a real HTTP /metrics endpoint serves
// the Prometheus-format counters and the binary scrapes itself over TCP
// to prove the observability surface works end to end. For the committed
// corpora the per-file match counts are compared against the FindAll
// oracle over the corpus truth streams, so this doubles as the CI
// sensor-smoke gate.
//
// Alongside /metrics the mux serves /healthz — the gateway's liveness
// probe (200 while the pipeline makes progress, 503 with a JSON body when
// a lane stalls). On SIGINT/SIGTERM the replay loop stops between files,
// the gateway is drained, and the report covers the files completed so
// far, marked "interrupted": true.
//
//	go run ./examples/sensor                      # replay testdata/pcap/*.pcap
//	go run ./examples/sensor -json                # machine-readable report (CI)
//	go run ./examples/sensor -pcap 'caps/*.pcap'  # replay your own captures
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"

	dpi "repro"
	"repro/internal/capture/corpus"
	"repro/internal/metrics"
)

type fileReport struct {
	File          string `json:"file"`
	Frames        uint64 `json:"frames"`
	Ingested      uint64 `json:"ingested"`
	SkippedFrames uint64 `json:"skipped_frames"`
	Matches       uint64 `json:"matches"`
	OracleMatches *int   `json:"oracle_matches,omitempty"` // known corpora only
	OracleOK      *bool  `json:"oracle_ok,omitempty"`
}

type report struct {
	Backend        string       `json:"backend"`
	Lanes          int          `json:"lanes"`
	Files          []fileReport `json:"files"`
	TotalMatches   uint64       `json:"total_matches"`
	OracleOK       bool         `json:"oracle_ok"` // every known corpus reproduced its oracle
	VerdictAlerts  uint64       `json:"verdict_alerts"`
	VerdictDrops   uint64       `json:"verdict_drops"`
	VerdictPasses  uint64       `json:"verdict_passes"`
	MetricsValid   bool         `json:"metrics_valid"`
	MetricsSamples int          `json:"metrics_samples"`
	Interrupted    bool         `json:"interrupted"` // run stopped by SIGINT/SIGTERM; files are partial
}

func main() {
	glob := flag.String("pcap", "testdata/pcap/*.pcap", "glob of capture files to replay")
	lanes := flag.Int("lanes", 2*runtime.GOMAXPROCS(0), "GatewayConfig.StreamWorkers: the gateway's scan lanes")
	backend := flag.String("backend", dpi.BackendAuto, "scan backend (see Config.Backend)")
	listen := flag.String("listen", "127.0.0.1:0", "address for the /metrics endpoint")
	jsonOut := flag.Bool("json", false, "emit a JSON report instead of text")
	flag.Parse()

	// A signal stops the replay between files; the gateway still drains and
	// the report still emits, so an interrupted sensor never loses the work
	// it finished. A second signal kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	files, err := filepath.Glob(*glob)
	if err != nil || len(files) == 0 {
		log.Fatalf("sensor: no capture files match %q (run from the repository root)", *glob)
	}
	sort.Strings(files)

	// The pattern set is the shared corpus ruleset, so the oracle counts
	// below compare like with like; the verdict rules demonstrate all
	// three actions without perturbing the oracle (the dropped ICMP and
	// passed telemetry tuples are pattern-free by construction).
	rs := dpi.NewRuleset()
	for _, r := range corpus.Rules() {
		rs.MustAdd(r.Name, []byte(r.Content))
	}
	matcher, err := dpi.Compile(rs, dpi.Config{Backend: *backend})
	if err != nil {
		log.Fatal(err)
	}
	var matchCount atomic.Uint64
	gw, err := dpi.NewGateway(matcher, dpi.GatewayConfig{
		StreamWorkers: *lanes,
		Rules: []dpi.VerdictRule{
			{ID: 1, Name: "web-alert", Header: dpi.HeaderRule{Proto: dpi.ProtoTCP, DstPorts: dpi.PortRange{Lo: 80, Hi: 443}}, Verdict: dpi.VerdictAlert},
			{ID: 2, Name: "icmp-drop", Header: dpi.HeaderRule{Proto: dpi.ProtoICMP}, Verdict: dpi.VerdictDrop},
			{ID: 3, Name: "telemetry-pass", Header: dpi.HeaderRule{Proto: dpi.ProtoUDP, DstPorts: dpi.PortRange{Lo: 9999, Hi: 9999}}, Verdict: dpi.VerdictPass},
		},
	}, func(dpi.FlowMatch) { matchCount.Add(1) })
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	// Live /metrics over real TCP while the replay runs.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", gw.Metrics())
	mux.Handle("/healthz", gw.Healthz())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	metricsURL := fmt.Sprintf("http://%s/metrics", ln.Addr())

	rep := report{Backend: gw.Backend(), Lanes: len(gw.LaneStats()), OracleOK: true}
	for _, path := range files {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		before := matchCount.Load()
		rs, err := gw.ReplayPcap(f)
		f.Close()
		if err != nil {
			log.Fatalf("sensor: %s: %v", path, err)
		}
		gw.Flush() // drain so the per-file match delta is exact
		fr := fileReport{
			File:          filepath.Base(path),
			Frames:        rs.Frames,
			Ingested:      rs.Ingested,
			SkippedFrames: rs.Frames - rs.Ingested,
			Matches:       matchCount.Load() - before,
		}
		// For committed corpora, compare against the FindAll oracle over
		// the corpus's ground-truth streams.
		if c := corpus.ByFile(fr.File); c != nil {
			oracle := c.OracleMatches(func(stream []byte) int { return len(matcher.FindAll(stream)) })
			ok := fr.Matches == uint64(oracle)
			fr.OracleMatches, fr.OracleOK = &oracle, &ok
			if !ok {
				rep.OracleOK = false
			}
		}
		rep.Files = append(rep.Files, fr)
	}

	// Self-scrape over the wire: the same path a Prometheus server takes.
	resp, err := http.Get(metricsURL)
	if err != nil {
		log.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	samples, verr := metrics.Validate(exposition)
	rep.MetricsValid = verr == nil
	rep.MetricsSamples = samples

	s := gw.Stats()
	rep.TotalMatches = matchCount.Load()
	rep.VerdictAlerts, rep.VerdictDrops, rep.VerdictPasses = s.VerdictAlerts, s.VerdictDrops, s.VerdictPasses

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("sensor: backend=%s lanes=%d\n", rep.Backend, rep.Lanes)
		for _, fr := range rep.Files {
			oracle := "no oracle (unknown capture)"
			if fr.OracleOK != nil {
				oracle = fmt.Sprintf("oracle=%d ok=%v", *fr.OracleMatches, *fr.OracleOK)
			}
			fmt.Printf("  %-18s frames=%-3d ingested=%-3d skipped=%-2d matches=%-3d %s\n",
				fr.File, fr.Frames, fr.Ingested, fr.SkippedFrames, fr.Matches, oracle)
		}
		fmt.Printf("verdicts: alert=%d drop=%d pass=%d  (dropped %d bytes unscanned)\n",
			s.VerdictAlerts, s.VerdictDrops, s.VerdictPasses, s.DroppedBytes)
		fmt.Printf("reassembly: %d bytes in stream order, %d out-of-order segs, %d duplicate bytes\n",
			s.ReassembledBytes, s.OutOfOrderSegs, s.DuplicateBytes)
		for i, ls := range gw.LaneStats() {
			fmt.Printf("lane %d: %d reassembled bytes, %d batch packets\n", i, ls.ReassembledBytes, ls.BatchPackets)
		}
		fmt.Printf("metrics: scraped %s: %d samples, valid=%v\n", metricsURL, samples, rep.MetricsValid)
		if rep.Interrupted {
			fmt.Printf("interrupted: %d/%d files replayed\n", len(rep.Files), len(files))
		}
	}
	// An interrupted-but-clean run exits 0: every file it did replay
	// reproduced its oracle, which is not a failure.
	if !rep.OracleOK || !rep.MetricsValid {
		os.Exit(1)
	}
}
