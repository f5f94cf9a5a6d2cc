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
// GatewayHealth body while no lane is stalled, 503 (same
// body) once the watchdog sees work older than StallThreshold on one. Mount
// it at /healthz next to Metrics at /metrics.
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
	c := g.totals() // one walk: the eviction reasons below have no GatewayStats field
	s := g.statsOf(c)
	// The single-sample series: one GatewayStats field each.
	counter := func(name, help string, v uint64) {
		w.Metric(name, "counter", help)
		w.Sample(float64(v))
	}
	gauge := func(name, help string, v float64) {
		w.Metric(name, "gauge", help)
		w.Sample(v)
	}

	w.Metric("dpi_backend_info", "gauge",
		"Scan backend every shard runs (see Config.Backend); value is always 1.")
	w.Sample(1, metrics.Label{Name: "backend", Value: g.Backend()})

	gauge("dpi_gateway_engine_shards", "Engine replicas behind this gateway.", float64(s.EngineShards))

	counter("dpi_gateway_packets_total", "Packets ingested.", s.Packets)
	counter("dpi_gateway_payload_bytes_total", "Payload bytes ingested.", s.Bytes)
	counter("dpi_gateway_stream_packets_total",
		"Packets routed through per-flow stream state (TCP).", s.StreamPackets)
	counter("dpi_gateway_batch_packets_total",
		"Stateless packets a lane took: per-packet verdict, scanned whole (UDP and other IP).", s.BatchPackets)
	counter("dpi_gateway_matches_total", "FlowMatches emitted.", s.Matches)

	counter("dpi_gateway_reassembled_bytes_total",
		"Bytes delivered to scanners in stream order by TCP reassembly.", s.ReassembledBytes)
	counter("dpi_gateway_out_of_order_segments_total",
		"Segments that had to be buffered out of order.", s.OutOfOrderSegs)
	counter("dpi_gateway_duplicate_bytes_total",
		"Retransmitted or overlapping bytes discarded by the overlap policy.", s.DuplicateBytes)
	counter("dpi_gateway_reassembly_dropped_bytes_total",
		"Out-of-order bytes dropped to the per-flow or global buffer caps.", s.ReassemblyDrops)
	counter("dpi_gateway_gap_skips_total", "Reassembly gaps skipped on timeout.", s.GapSkips)
	counter("dpi_gateway_gap_skipped_bytes_total",
		"Unseen stream bytes skipped past on gap timeouts.", s.GapSkippedBytes)
	gauge("dpi_gateway_reassembly_buffered_bytes",
		"Out-of-order bytes currently buffered across all flows.", float64(s.BufferedBytes))
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
	counter("dpi_gateway_scanned_bytes_total",
		"Payload bytes delivered to a scanner (stream + stateless) — the Scanned ledger bucket.", s.ScannedBytes)
	counter("dpi_gateway_shed_packets_total",
		"Packets shed at admission under a shedding overload policy.", s.ShedPackets)
	counter("dpi_gateway_shed_bytes_total",
		"Payload bytes of shed packets — the Shed ledger bucket.", s.ShedBytes)
	counter("dpi_gateway_shed_new_flows_total",
		"Shed packets that would have created new flow state (ShedNewFlows).", s.ShedNewFlows)
	counter("dpi_gateway_abandoned_bytes_total",
		"Ingested bytes released unscanned when their connection went away (RST payloads, buffered bytes freed on RST/FIN/eviction).", s.AbandonedBytes)

	w.Metric("dpi_panics_total", "counter",
		"Panics recovered by containment, per engine shard. Any non-zero value deserves a bug report; a growing one, an alert.")
	for i, n := range g.PanicsByShard() {
		w.Sample(float64(n), metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
	}
	counter("dpi_gateway_quarantined_flows_total",
		"Flows evicted because scanning them panicked.", s.QuarantinedFlows)
	counter("dpi_gateway_quarantined_packets_total",
		"Packets discarded by panic containment (the panicking packet and any stragglers of quarantined flows).", s.QuarantinedPackets)
	counter("dpi_gateway_quarantined_bytes_total",
		"Payload bytes discarded by panic containment — the quarantine ledger bucket.", s.QuarantinedBytes)

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
	gauge("dpi_gateway_stalled_lanes",
		"Lanes whose queued work is older than StallThreshold right now.", float64(stalled))
	w.Metric("dpi_gateway_lane_max_age_seconds", "gauge",
		"Age of the oldest un-progressed work across busy lanes (0 when all are idle).")
	w.Sample(oldest)

	w.Metric("dpi_gateway_verdicts_total", "counter",
		"Header-rule classifications by action (per TCP connection, per stateless packet).")
	w.Sample(float64(s.VerdictAlerts), metrics.Label{Name: "verdict", Value: "alert"})
	w.Sample(float64(s.VerdictDrops), metrics.Label{Name: "verdict", Value: "drop"})
	w.Sample(float64(s.VerdictPasses), metrics.Label{Name: "verdict", Value: "pass"})
	counter("dpi_gateway_verdict_dropped_bytes_total",
		"Payload bytes of verdict-dropped traffic, discarded unscanned.", s.DroppedBytes)
	counter("dpi_gateway_verdict_passed_bytes_total",
		"Payload bytes of verdict-passed traffic, exempted unscanned.", s.PassedBytes)

	// Hot-reload control plane (Gateway.SwapRules). The flows-by-generation
	// gauge only lists live (non-retired) generations: an old generation
	// present here is draining, and one stuck with flows > 0 names the
	// long-lived connections pinning it — the series the reload runbook
	// alerts on.
	gauge("dpi_ruleset_generation",
		"Installed ruleset generation new flows and stateless packets scan with.", float64(s.Generation))
	counter("dpi_ruleset_swaps_total", "Successful SwapRules hot reloads.", s.RulesetSwaps)
	counter("dpi_ruleset_generations_installed_total",
		"Ruleset generations ever installed (the initial one included).", s.GenerationsInstalled)
	counter("dpi_ruleset_generations_retired_total",
		"Old ruleset generations fully drained and retired.", s.GenerationsRetired)
	w.Metric("dpi_flows_by_generation", "gauge",
		"Live flows pinned to each non-retired ruleset generation.")
	for _, gi := range g.Generations() {
		w.Sample(float64(gi.Flows),
			metrics.Label{Name: "generation", Value: strconv.FormatUint(gi.Generation, 10)})
	}

	gauge("dpi_gateway_flows_live", "Flow-table entries currently live.", float64(s.FlowsLive))
	gauge("dpi_gateway_flow_husks", "Part of dpi_gateway_flows_live held as husks: ended connections kept to absorb stragglers.", float64(s.FlowHusks))
	counter("dpi_gateway_flows_created_total", "Flow-table entries created.", s.FlowsCreated)
	w.Metric("dpi_gateway_flows_evicted_total", "counter",
		"Flow-table entries removed, by reason: capacity (MaxFlows pressure), idle (IdleTimeout), teardown (RST).")
	w.Sample(float64(c[cFlowsEvictedCap]), metrics.Label{Name: "reason", Value: "capacity"})
	w.Sample(float64(c[cFlowsEvictedIdle]), metrics.Label{Name: "reason", Value: "idle"})
	w.Sample(float64(c[cFlowsRemoved]), metrics.Label{Name: "reason", Value: "teardown"})
	counter("dpi_gateway_flows_finished_total", "Connections completed via FIN.", s.FlowsFinished)
	counter("dpi_gateway_flows_reset_total", "Connections torn down by RST.", s.FlowsReset)
	gauge("dpi_gateway_flow_table_clock",
		"Stream packets the lanes have run through their flow tables (the unit IdleTimeout and GapTimeout are measured in).", float64(s.StreamPackets))

	shardStats := g.ShardStats()
	perShard := func(name, help string, field func(EngineStats) uint64) {
		w.Metric(name, "counter", help)
		for i, es := range shardStats {
			w.Sample(float64(field(es)), metrics.Label{Name: "shard", Value: strconv.Itoa(i)})
		}
	}
	perShard("dpi_engine_batch_packets_total", "Stateless payloads scanned per engine shard.",
		func(es EngineStats) uint64 { return es.BatchPkts })
	perShard("dpi_engine_batch_bytes_total", "Stateless payload bytes scanned per engine shard.",
		func(es EngineStats) uint64 { return es.BatchBytes })
	perShard("dpi_engine_flows_opened_total", "Connections opened on each engine shard: new flows and SYN re-opens.",
		func(es EngineStats) uint64 { return es.FlowsOpened })
	perShard("dpi_engine_stream_bytes_total", "Stream bytes scanned per engine shard.",
		func(es EngineStats) uint64 { return es.StreamBytes })

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
