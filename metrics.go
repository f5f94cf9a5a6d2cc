package dpi

// The metrics seam: Gateway.Metrics() is the observability half of the
// capture-to-verdict edge. Everything it exports is a counter the pipeline
// already keeps — GatewayStats, per-shard EngineStats, flow-table
// occupancy and evictions by reason, reassembly buffer pressure, and the
// per-rule verdict/match counters — rendered on demand into the
// Prometheus text exposition format by internal/metrics. A scrape costs
// one snapshot and one buffer render; nothing on the packet hot path
// knows metrics exist. OPERATIONS.md documents every series, its type and
// labels, and what alerting on it means.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// Healthz returns the gateway's liveness endpoint: 200 with a JSON
// GatewayHealth body while no lane is stalled, 503 (same body) once the
// watchdog sees work older than StallThreshold on some lane. Mount it at
// /healthz next to Metrics at /metrics.
func (g *Gateway) Healthz() http.Handler {
	return metrics.Healthz(func() (bool, []byte) {
		h := g.Health()
		body, err := json.Marshal(h)
		if err != nil { // unreachable: GatewayHealth is plain data
			return false, []byte(`{"healthy":false}`)
		}
		return h.Healthy, body
	})
}

// GatewayMetrics renders a Gateway's counters in the Prometheus text
// exposition format (version 0.0.4). It implements http.Handler — mount
// it at /metrics — and WriteTo for non-HTTP collection. Every render is a
// fresh point-in-time snapshot; the value is safe to share and scrape
// concurrently while the gateway runs.
type GatewayMetrics struct {
	g *Gateway
	h http.Handler
}

// Metrics returns the gateway's Prometheus-format metrics surface.
func (g *Gateway) Metrics() *GatewayMetrics {
	gm := &GatewayMetrics{g: g}
	gm.h = metrics.Handler(gm.render)
	return gm
}

// ServeHTTP serves one exposition per GET/HEAD request with the
// text-format Content-Type.
func (gm *GatewayMetrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gm.h.ServeHTTP(w, r)
}

// WriteTo renders one exposition to w.
func (gm *GatewayMetrics) WriteTo(w io.Writer) (int64, error) {
	var mw metrics.Writer
	gm.render(&mw)
	return mw.WriteTo(w)
}

func (gm *GatewayMetrics) render(w *metrics.Writer) {
	g := gm.g
	s := g.Stats()
	ts := g.table.Stats()

	w.Metric("dpi_backend_info", "gauge",
		"Scan backend every shard runs (see Config.Backend); value is always 1.")
	w.Sample(1, metrics.Label{Name: "backend", Value: g.Backend()})

	w.Metric("dpi_gateway_engine_shards", "gauge", "Engine replicas behind this gateway.")
	w.Sample(float64(s.EngineShards))

	w.Metric("dpi_gateway_packets_total", "counter", "Packets ingested.")
	w.Sample(float64(s.Packets))
	w.Metric("dpi_gateway_payload_bytes_total", "counter", "Payload bytes ingested.")
	w.Sample(float64(s.Bytes))
	w.Metric("dpi_gateway_stream_packets_total", "counter",
		"Packets routed through per-flow stream state (TCP).")
	w.Sample(float64(s.StreamPackets))
	w.Metric("dpi_gateway_batch_packets_total", "counter",
		"Packets scanned statelessly in bursts (UDP and other IP).")
	w.Sample(float64(s.BatchPackets))
	w.Metric("dpi_gateway_batches_total", "counter", "Bursts handed to the batch scanners.")
	w.Sample(float64(s.Batches))
	w.Metric("dpi_gateway_matches_total", "counter", "FlowMatches emitted.")
	w.Sample(float64(s.Matches))

	w.Metric("dpi_gateway_reassembled_bytes_total", "counter",
		"Bytes delivered to scanners in stream order by TCP reassembly.")
	w.Sample(float64(s.ReassembledBytes))
	w.Metric("dpi_gateway_out_of_order_segments_total", "counter",
		"Segments that had to be buffered out of order.")
	w.Sample(float64(s.OutOfOrderSegs))
	w.Metric("dpi_gateway_duplicate_bytes_total", "counter",
		"Retransmitted or overlapping bytes discarded by the overlap policy.")
	w.Sample(float64(s.DuplicateBytes))
	w.Metric("dpi_gateway_reassembly_dropped_bytes_total", "counter",
		"Out-of-order bytes dropped to the per-flow or global buffer caps.")
	w.Sample(float64(s.ReassemblyDrops))
	w.Metric("dpi_gateway_gap_skips_total", "counter", "Reassembly gaps skipped on timeout.")
	w.Sample(float64(s.GapSkips))
	w.Metric("dpi_gateway_gap_skipped_bytes_total", "counter",
		"Unseen stream bytes skipped past on gap timeouts.")
	w.Sample(float64(s.GapSkippedBytes))
	w.Metric("dpi_gateway_reassembly_buffered_bytes", "gauge",
		"Out-of-order bytes currently buffered across all flows.")
	w.Sample(float64(s.BufferedBytes))
	w.Metric("dpi_gateway_reassembly_buffer_limit_bytes", "gauge",
		"Configured global out-of-order buffer cap (0 = unlimited).")
	limit := g.cfg.MaxTotalBuffer
	if limit < 0 {
		limit = 0
	}
	w.Sample(float64(limit))

	w.Metric("dpi_gateway_overload_policy_info", "gauge",
		"Configured overload policy (see GatewayConfig.OverloadPolicy); value is always 1.")
	w.Sample(1, metrics.Label{Name: "policy", Value: g.cfg.OverloadPolicy.String()})
	w.Metric("dpi_gateway_scanned_bytes_total", "counter",
		"Payload bytes delivered to a scanner (stream + burst) — the Scanned ledger bucket.")
	w.Sample(float64(s.ScannedBytes))
	w.Metric("dpi_gateway_shed_packets_total", "counter",
		"Packets shed at admission under a shedding overload policy.")
	w.Sample(float64(s.ShedPackets))
	w.Metric("dpi_gateway_shed_bytes_total", "counter",
		"Payload bytes of shed packets — the Shed ledger bucket.")
	w.Sample(float64(s.ShedBytes))
	w.Metric("dpi_gateway_shed_new_flows_total", "counter",
		"Shed packets that would have created new flow state (ShedNewFlows).")
	w.Sample(float64(s.ShedNewFlows))
	w.Metric("dpi_gateway_abandoned_bytes_total", "counter",
		"Ingested bytes released unscanned when their connection went away (RST payloads, buffered bytes freed on RST/FIN/eviction).")
	w.Sample(float64(s.AbandonedBytes))

	w.Metric("dpi_panics_total", "counter",
		"Panics recovered by containment, per engine shard. Any non-zero value deserves a bug report; a growing one, an alert.")
	for i, n := range g.PanicsByShard() {
		w.Sample(float64(n), metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
	w.Metric("dpi_gateway_quarantined_flows_total", "counter",
		"Flows evicted because scanning them panicked.")
	w.Sample(float64(s.QuarantinedFlows))
	w.Metric("dpi_gateway_quarantined_packets_total", "counter",
		"Packets discarded by panic containment (the panicking packet and any stragglers of quarantined flows).")
	w.Sample(float64(s.QuarantinedPackets))
	w.Metric("dpi_gateway_quarantined_bytes_total", "counter",
		"Payload bytes discarded by panic containment — the quarantine ledger bucket.")
	w.Sample(float64(s.QuarantinedBytes))

	health := g.Health()
	stalled := 0
	var oldest float64
	for _, lh := range health.BusyLanes {
		if lh.Stalled {
			stalled++
		}
		if age := lh.Age.Seconds(); age > oldest {
			oldest = age
		}
	}
	w.Metric("dpi_gateway_stalled_lanes", "gauge",
		"Stream lanes whose queued work is older than StallThreshold right now.")
	w.Sample(float64(stalled))
	w.Metric("dpi_gateway_lane_max_age_seconds", "gauge",
		"Age of the oldest un-progressed work across busy lanes (0 when all lanes are idle).")
	w.Sample(oldest)

	w.Metric("dpi_gateway_verdicts_total", "counter",
		"Header-rule classifications by action (per TCP connection, per stateless packet).")
	w.Sample(float64(s.VerdictAlerts), metrics.Label{Name: "verdict", Value: "alert"})
	w.Sample(float64(s.VerdictDrops), metrics.Label{Name: "verdict", Value: "drop"})
	w.Sample(float64(s.VerdictPasses), metrics.Label{Name: "verdict", Value: "pass"})
	w.Metric("dpi_gateway_verdict_dropped_bytes_total", "counter",
		"Payload bytes of verdict-dropped traffic, discarded unscanned.")
	w.Sample(float64(s.DroppedBytes))
	w.Metric("dpi_gateway_verdict_passed_bytes_total", "counter",
		"Payload bytes of verdict-passed traffic, exempted unscanned.")
	w.Sample(float64(s.PassedBytes))

	// Hot-reload control plane (Gateway.SwapRules). The flows-by-generation
	// gauge only lists live (non-retired) generations: an old generation
	// present here is draining, and one stuck with flows > 0 names the
	// long-lived connections pinning it — the series the reload runbook
	// alerts on.
	w.Metric("dpi_ruleset_generation", "gauge",
		"Installed ruleset generation new flows and bursts scan with.")
	w.Sample(float64(s.Generation))
	w.Metric("dpi_ruleset_swaps_total", "counter",
		"Successful SwapRules hot reloads.")
	w.Sample(float64(s.RulesetSwaps))
	w.Metric("dpi_ruleset_generations_installed_total", "counter",
		"Ruleset generations ever installed (the initial one included).")
	w.Sample(float64(s.GenerationsInstalled))
	w.Metric("dpi_ruleset_generations_retired_total", "counter",
		"Old ruleset generations fully drained and retired.")
	w.Sample(float64(s.GenerationsRetired))
	w.Metric("dpi_flows_by_generation", "gauge",
		"Live flows pinned to each non-retired ruleset generation.")
	for _, gi := range g.Generations() {
		w.Sample(float64(gi.Flows),
			metrics.Label{Name: "generation", Value: strconv.FormatUint(gi.Generation, 10)})
	}

	w.Metric("dpi_gateway_flows_live", "gauge", "Flow-table entries currently live.")
	w.Sample(float64(ts.Live))
	w.Metric("dpi_gateway_flows_created_total", "counter", "Flow-table entries created.")
	w.Sample(float64(ts.Created))
	w.Metric("dpi_gateway_flows_evicted_total", "counter",
		"Flow-table entries removed, by reason: capacity (MaxFlows pressure), idle (IdleTimeout), teardown (RST).")
	w.Sample(float64(ts.EvictedCap), metrics.Label{Name: "reason", Value: "capacity"})
	w.Sample(float64(ts.EvictedIdle), metrics.Label{Name: "reason", Value: "idle"})
	w.Sample(float64(ts.Removed), metrics.Label{Name: "reason", Value: "teardown"})
	w.Metric("dpi_gateway_flows_finished_total", "counter", "Connections completed via FIN.")
	w.Sample(float64(s.FlowsFinished))
	w.Metric("dpi_gateway_flows_reset_total", "counter", "Connections torn down by RST.")
	w.Sample(float64(s.FlowsReset))
	w.Metric("dpi_gateway_flow_table_clock", "gauge",
		"Flow-table logical clock: table-wide stream packets seen (the unit IdleTimeout is measured in).")
	w.Sample(float64(ts.Clock))

	shardStats := g.ShardStats()
	shardLabel := func(i int) metrics.Label {
		return metrics.Label{Name: "shard", Value: strconv.Itoa(i)}
	}
	w.Metric("dpi_engine_batches_total", "counter",
		"Stateless scan batches per engine shard.")
	for i, es := range shardStats {
		w.Sample(float64(es.Batches), shardLabel(i))
	}
	w.Metric("dpi_engine_batch_packets_total", "counter",
		"Stateless payloads scanned per engine shard.")
	for i, es := range shardStats {
		w.Sample(float64(es.BatchPkts), shardLabel(i))
	}
	w.Metric("dpi_engine_batch_bytes_total", "counter",
		"Stateless payload bytes scanned per engine shard.")
	for i, es := range shardStats {
		w.Sample(float64(es.BatchBytes), shardLabel(i))
	}
	w.Metric("dpi_engine_flows_opened_total", "counter",
		"Connections opened on each engine shard: new flows and SYN re-opens.")
	for i, es := range shardStats {
		w.Sample(float64(es.FlowsOpened), shardLabel(i))
	}
	w.Metric("dpi_engine_stream_bytes_total", "counter",
		"Stream bytes scanned per engine shard.")
	for i, es := range shardStats {
		w.Sample(float64(es.StreamBytes), shardLabel(i))
	}

	rules := g.RuleStats()
	if len(rules) > 0 {
		ruleLabels := func(r RuleStats) []metrics.Label {
			return []metrics.Label{
				{Name: "rule_id", Value: strconv.Itoa(r.ID)},
				{Name: "rule", Value: r.Name},
				{Name: "verdict", Value: r.Verdict.String()},
			}
		}
		w.Metric("dpi_rule_flows_total", "counter",
			"Classification decisions per verdict rule (per TCP connection, per stateless packet).")
		for _, r := range rules {
			w.Sample(float64(r.Flows), ruleLabels(r)...)
		}
		w.Metric("dpi_rule_matches_total", "counter",
			"Matches admitted per verdict rule (always 0 for drop/pass rules).")
		for _, r := range rules {
			w.Sample(float64(r.Matches), ruleLabels(r)...)
		}
	}
}
