package main

// The -gateway mode measures the full NIDS front-end: framed mixed traffic
// (interleaved sequenced TCP flows plus UDP datagrams) pushed through the
// Gateway's pipelined ingestion — bounded queue, per-flow lanes over the
// 5-tuple flow table, TCP reassembly, burst batching — versus worker
// count, then versus engine-shard count (-shards N sweeps the sharded
// gateway, the software analogue of the paper's replicated matcher
// blocks), plus a row with out-of-order/retransmitted delivery (the
// reassembly regime) and a final row in the eviction-churn regime (flow
// table much smaller than the offered flow count). Every full-capacity row
// is verified against the per-flow FindAll oracle before it is timed; an
// oracle mismatch fails the run (exit 1), which is what CI gates on.
//
// Alongside the text table the run can emit a machine-readable JSON report
// (-json) carrying the same rows plus the oracle outcome per row, for
// regression tracking across CI runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	dpi "repro"
	"repro/internal/report"
	"repro/internal/traffic"
)

// gatewayBenchConfig sizes the -gateway sweep; tests shrink it.
type gatewayBenchConfig struct {
	Strings         int
	Flows           int
	SegmentsPerFlow int
	SegmentBytes    int
	Datagrams       int
	DatagramBytes   int
	ChurnMaxFlows   int // flow-table cap for the churn row
	ReorderWindow   int // segment displacement for the reordered row
	RetransDensity  float64
	Seed            int64
	MinTime         time.Duration
	MaxWorkers      int    // 0 = NumCPU
	MaxShards       int    // engine-shard sweep ceiling; <=1 skips the sharded rows
	Backend         string // -backend: scan backend every shard runs ("" = auto)
}

func defaultGatewayConfig(seed int64) gatewayBenchConfig {
	return gatewayBenchConfig{
		Strings:         634,
		Flows:           192,
		SegmentsPerFlow: 8,
		SegmentBytes:    1200,
		Datagrams:       256,
		DatagramBytes:   600,
		ChurnMaxFlows:   24,
		ReorderWindow:   4,
		RetransDensity:  0.5,
		Seed:            seed,
		MinTime:         300 * time.Millisecond,
	}
}

// gatewayBenchRow is one measured configuration in the JSON report.
type gatewayBenchRow struct {
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	Shards     int     `json:"engine_shards"`
	MaxFlows   int     `json:"max_flows"`
	Gbps       float64 `json:"gbps"`
	Speedup    float64 `json:"speedup"`
	Matches    uint64  `json:"matches"`
	Evicted    uint64  `json:"flows_evicted"`
	OutOfOrder uint64  `json:"out_of_order_segs"`
	Duplicate  uint64  `json:"duplicate_bytes"`
	OracleWant int     `json:"oracle_want"` // 0 when the row is not oracle-gated
	OracleOK   bool    `json:"oracle_ok"`
}

// gatewayBenchReport is the machine-readable artifact CI uploads and gates
// on: OK is false iff any oracle-gated row mismatched.
type gatewayBenchReport struct {
	Bench           int               `json:"bench"` // trajectory sequence number
	Backend         string            `json:"backend"`
	Strings         int               `json:"strings"`
	Flows           int               `json:"flows"`
	SegmentsPerFlow int               `json:"segments_per_flow"`
	SegmentBytes    int               `json:"segment_bytes"`
	Datagrams       int               `json:"datagrams"`
	Seed            int64             `json:"seed"`
	Rows            []gatewayBenchRow `json:"rows"`
	Interrupted     bool              `json:"interrupted"` // run stopped by SIGINT/SIGTERM; rows are partial
	OK              bool              `json:"ok"`
}

// gatewayFeed is one prebuilt ingest sequence with its oracle match count.
type gatewayFeed struct {
	packets []dpi.GatewayPacket
	bytes   int64
	want    int // per-flow FindAll + per-datagram FindAll oracle
}

// buildGatewayFeed interleaves a datagram between stream segments so both
// pipeline paths stay busy, and computes the oracle match count.
func buildGatewayFeed(m *dpi.Matcher, w *traffic.FlowWorkload, dgrams []traffic.Packet) gatewayFeed {
	var f gatewayFeed
	f.packets = make([]dpi.GatewayPacket, 0, len(w.Packets)+len(dgrams))
	di := 0
	for _, p := range w.Packets {
		if di < len(dgrams) && len(f.packets)%4 == 3 {
			tup := dpi.FiveTuple{
				SrcIP: 0x0a800000 + uint32(di), DstIP: 0x0a000001,
				SrcPort: uint16(20000 + di%40000), DstPort: 53, Proto: dpi.ProtoUDP,
			}
			f.packets = append(f.packets, dpi.GatewayPacket{Tuple: tup, Payload: dgrams[di].Payload})
			f.bytes += int64(len(dgrams[di].Payload))
			di++
		}
		f.packets = append(f.packets, dpi.GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
		})
		f.bytes += int64(len(p.Payload))
	}
	for _, s := range w.Streams {
		f.want += len(m.FindAll(s))
	}
	for _, d := range dgrams[:di] {
		f.want += len(m.FindAll(d.Payload))
	}
	return f
}

func runGateway(ctx context.Context, out io.Writer, jsonPath string, cfg gatewayBenchConfig) error {
	rules, err := dpi.GenerateSnortLike(cfg.Strings, cfg.Seed)
	if err != nil {
		return err
	}
	m, err := dpi.Compile(rules, dpi.Config{Backend: cfg.Backend})
	if err != nil {
		return err
	}
	set := rules.InternalSet()
	flowCfg := traffic.FlowConfig{
		Flows: cfg.Flows, SegmentsPerFlow: cfg.SegmentsPerFlow, SegmentBytes: cfg.SegmentBytes,
		Seed: cfg.Seed, CrossDensity: 1, AttackDensity: 0.5, Profile: traffic.Textual,
		Sequenced: true,
	}
	inorder, err := traffic.GenerateFlows(set, flowCfg)
	if err != nil {
		return err
	}
	flowCfg.ReorderWindow = cfg.ReorderWindow
	flowCfg.RetransmitDensity = cfg.RetransDensity
	reordered, err := traffic.GenerateFlows(set, flowCfg)
	if err != nil {
		return err
	}
	dgrams, err := traffic.Generate(set, traffic.Config{
		Packets: cfg.Datagrams, Bytes: cfg.DatagramBytes, Seed: cfg.Seed + 1,
		AttackDensity: 0.5, Profile: traffic.Uniform,
	})
	if err != nil {
		return err
	}
	inFeed := buildGatewayFeed(m, inorder, dgrams)
	reFeed := buildGatewayFeed(m, reordered, dgrams)

	maxWorkers := cfg.MaxWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}

	t := &report.Table{
		Title: fmt.Sprintf("GATEWAY INGESTION (%d strings, %d flows x %d x %d B + UDP, reorder window %d, %d/%d oracle matches)",
			cfg.Strings, cfg.Flows, cfg.SegmentsPerFlow, cfg.SegmentBytes, cfg.ReorderWindow, inFeed.want, reFeed.want),
		Headers: []string{"Mode", "Workers", "Shards", "MaxFlows", "Gbps", "Speedup", "Matches", "Evicted", "OOOSegs", "DupBytes"},
	}
	rep := gatewayBenchReport{
		Bench:   5,
		Backend: m.Backend(),
		Strings: cfg.Strings, Flows: cfg.Flows, SegmentsPerFlow: cfg.SegmentsPerFlow,
		SegmentBytes: cfg.SegmentBytes, Datagrams: cfg.Datagrams, Seed: cfg.Seed,
		OK: true,
	}
	writeJSON := func() error {
		if jsonPath == "" {
			return nil
		}
		rep.Interrupted = ctx.Err() != nil
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		return writeFileAtomic(jsonPath, append(data, '\n'))
	}

	run := func(feed gatewayFeed, workers, maxFlows, shards int) (dpi.GatewayStats, error) {
		gw, err := dpi.NewGateway(m, dpi.GatewayConfig{
			MaxFlows: maxFlows, StreamWorkers: workers, EngineShards: shards,
		}, func(dpi.FlowMatch) {})
		if err != nil {
			return dpi.GatewayStats{}, err
		}
		for _, pkt := range feed.packets {
			if err := gw.Ingest(pkt); err != nil {
				return dpi.GatewayStats{}, err
			}
		}
		if err := gw.Close(); err != nil {
			return dpi.GatewayStats{}, err
		}
		return gw.Stats(), nil
	}

	measure := func(feed gatewayFeed, workers, maxFlows, shards int) (float64, dpi.GatewayStats, error) {
		var last dpi.GatewayStats
		start := time.Now()
		var scanned int64
		for time.Since(start) < cfg.MinTime && ctx.Err() == nil {
			st, err := run(feed, workers, maxFlows, shards)
			if err != nil {
				return 0, st, err
			}
			last = st
			scanned += feed.bytes
		}
		return float64(scanned) * 8 / time.Since(start).Seconds() / 1e9, last, nil
	}

	ample := 2 * cfg.Flows
	baseline := 0.0
	// benchRow measures one oracle-gated configuration; a mismatch is
	// recorded in the JSON report and fails the run after the report is
	// written, so CI keeps the artifact explaining the failure. A canceled
	// context skips the row entirely — partial reports carry only rows that
	// were measured for their full window.
	benchRow := func(mode string, feed gatewayFeed, workers, maxFlows, shards int) error {
		if ctx.Err() != nil {
			return nil
		}
		st, err := run(feed, workers, maxFlows, shards)
		if err != nil {
			return err
		}
		ok := int(st.Matches) == feed.want
		if ok {
			gbps, tst, err := measure(feed, workers, maxFlows, shards)
			if err != nil {
				return err
			}
			if ctx.Err() != nil {
				return nil
			}
			st = tst
			if baseline == 0 {
				baseline = gbps
			}
			t.AddRow(mode, workers, shards, maxFlows, fmt.Sprintf("%.3f", gbps),
				fmt.Sprintf("%.2fx", gbps/baseline), st.Matches, st.FlowsEvicted,
				st.OutOfOrderSegs, st.DuplicateBytes)
			rep.Rows = append(rep.Rows, gatewayBenchRow{
				Mode: mode, Workers: workers, Shards: shards, MaxFlows: maxFlows,
				Gbps: gbps, Speedup: gbps / baseline,
				Matches: st.Matches, Evicted: st.FlowsEvicted,
				OutOfOrder: st.OutOfOrderSegs, Duplicate: st.DuplicateBytes,
				OracleWant: feed.want, OracleOK: true,
			})
			return nil
		}
		rep.Rows = append(rep.Rows, gatewayBenchRow{
			Mode: mode, Workers: workers, Shards: shards, MaxFlows: maxFlows,
			Matches: st.Matches, Evicted: st.FlowsEvicted,
			OutOfOrder: st.OutOfOrderSegs, Duplicate: st.DuplicateBytes,
			OracleWant: feed.want, OracleOK: false,
		})
		rep.OK = false
		if err := writeJSON(); err != nil {
			return err
		}
		return fmt.Errorf("dpibench: gateway %s with %d workers, %d shards found %d matches, oracle %d",
			mode, workers, shards, st.Matches, feed.want)
	}

	for _, workers := range workerSweep(maxWorkers) {
		if err := benchRow("full-table", inFeed, workers, ample, 1); err != nil {
			return err
		}
	}
	// Sharded regime: the same in-order feed fanned across engine
	// replicas, each with the full worker count — the paper's replicated
	// block arrays. The oracle is unchanged: sharding must be invisible in
	// the results (per-flow order is preserved inside a shard).
	if cfg.MaxShards > 1 {
		for _, shards := range workerSweep(cfg.MaxShards) {
			if shards == 1 {
				continue // already measured as the full-table rows
			}
			if err := benchRow("sharded", inFeed, maxWorkers, ample, shards); err != nil {
				return err
			}
		}
	}
	// Reassembly regime: the same connections delivered out of order with
	// retransmissions; the oracle is unchanged because reassembly restores
	// the streams exactly.
	if err := benchRow("reordered", reFeed, maxWorkers, ample, 1); err != nil {
		return err
	}
	// Churn regime: the table is far smaller than the offered flow count,
	// so eviction runs constantly and detections may be traded for memory;
	// no oracle gate applies.
	if ctx.Err() == nil {
		gbps, st, err := measure(reFeed, maxWorkers, cfg.ChurnMaxFlows, 1)
		if err != nil {
			return err
		}
		if ctx.Err() == nil {
			if st.FlowsEvicted == 0 {
				return fmt.Errorf("dpibench: churn row evicted no flows (cap %d, %d flows)", cfg.ChurnMaxFlows, cfg.Flows)
			}
			t.AddRow("churn", maxWorkers, 1, cfg.ChurnMaxFlows, fmt.Sprintf("%.3f", gbps),
				fmt.Sprintf("%.2fx", gbps/baseline), st.Matches, st.FlowsEvicted,
				st.OutOfOrderSegs, st.DuplicateBytes)
			rep.Rows = append(rep.Rows, gatewayBenchRow{
				Mode: "churn", Workers: maxWorkers, Shards: 1, MaxFlows: cfg.ChurnMaxFlows,
				Gbps: gbps, Speedup: gbps / baseline,
				Matches: st.Matches, Evicted: st.FlowsEvicted,
				OutOfOrder: st.OutOfOrderSegs, Duplicate: st.DuplicateBytes,
				OracleOK: true, // not oracle-gated
			})
		}
	}
	if err := writeJSON(); err != nil {
		return err
	}
	if ctx.Err() != nil {
		fmt.Fprintf(out, "interrupted: partial gateway report (%d rows measured)\n", len(rep.Rows))
	}
	return t.Render(out)
}
