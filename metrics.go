package dpi

// The metrics seam: Gateway.Metrics() is the observability half of the
// capture-to-verdict edge. Everything it exports is a counter the pipeline
// already keeps — every lane counter slot by its row in gwCounters, the
// generation and buffer state, and the per-rule verdict/match counters —
// rendered on demand into the Prometheus text exposition format by
// internal/metrics. A scrape costs one walk over the lanes' counter blocks
// and one buffer render; nothing on the packet hot path knows metrics
// exist. OPERATIONS.md documents every series, its type and
// labels, and what alerting on it means.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

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
	// The series that are not counter slots, then every slot by its row.
	gauge := func(name, help string, v float64) {
		w.Metric(name, "gauge", help)
		w.Sample(v)
	}
	counter := func(name, help string, v uint64) {
		w.Metric(name, "counter", help)
		w.Sample(float64(v))
	}

	w.Metric("dpi_backend_info", "gauge",
		"Scan backend every lane runs (see Config.Backend); value is always 1.")
	w.Sample(1, metrics.Label{Name: "backend", Value: g.Backend()})
	gauge("dpi_gateway_lanes", "Scan lanes behind this gateway: EngineShards × StreamWorkers.", float64(len(g.lanes)))
	counter("dpi_gateway_packets_total", "Packets ingested.", g.seq.Load())

	gauge("dpi_gateway_reassembly_buffered_bytes",
		"Out-of-order stream bytes currently held across all flows, counted whole whether held as bytes or folded.", float64(g.bufferedBytes()))
	gauge("dpi_gateway_memory_budget_bytes",
		"Configured MemoryBudget: flow-table entries and held out-of-order bytes, split across lanes (0 = unlimited).", float64(max(g.cfg.MemoryBudget, 0)))
	w.Metric("dpi_gateway_overload_policy_info", "gauge",
		"Configured overload policy (see GatewayConfig.OverloadPolicy); value is always 1.")
	w.Sample(1, metrics.Label{Name: "policy", Value: g.cfg.OverloadPolicy.String()})

	stalled := 0
	var oldest float64
	for _, lh := range g.Health().BusyLanes {
		if lh.Stalled {
			stalled++
		}
		oldest = max(oldest, lh.Age.Seconds())
	}
	gauge("dpi_gateway_stalled_lanes",
		"Lanes whose queued work is older than StallThreshold right now.", float64(stalled))
	gauge("dpi_gateway_lane_max_age_seconds",
		"Age of the oldest un-progressed work across busy lanes (0 when all are idle).", oldest)

	// Hot-reload control plane (Gateway.SwapRules). The flows-by-generation
	// gauge only lists live (non-retired) generations: an old generation
	// present here is draining, and one stuck with flows > 0 names the
	// long-lived connections pinning it — the series the reload runbook
	// alerts on.
	gauge("dpi_ruleset_generation",
		"Installed ruleset generation new flows and stateless packets scan with.", float64(g.Generation()))
	swaps := g.swaps.Load()
	counter("dpi_ruleset_swaps_total", "Successful SwapRules hot reloads.", swaps)
	counter("dpi_ruleset_generations_installed_total",
		"Ruleset generations ever installed (the initial one included).", swaps+1)
	counter("dpi_ruleset_generations_retired_total",
		"Old ruleset generations fully drained and retired.", g.gensRetired.Load())
	w.Metric("dpi_flows_by_generation", "gauge",
		"Live flows pinned to each non-retired ruleset generation.")
	for _, gi := range g.Generations() {
		w.Sample(float64(gi.Flows),
			metrics.Label{Name: "generation", Value: strconv.FormatUint(gi.Generation, 10)})
	}

	lanes, c := g.counterTotals() // the one walk over the lanes' counter blocks
	for i, r := range gwCounters {
		if i == 0 || r.name != gwCounters[i-1].name {
			typ := "counter"
			if r.kind == "gauge" {
				typ = "gauge"
			}
			w.Metric(r.name, typ, r.help)
		}
		label, value, labelled := strings.Cut(r.kind, "=")
		switch {
		case r.kind == "lane":
			for l := range lanes {
				w.Sample(float64(lanes[l][i]), metrics.Label{Name: "lane", Value: strconv.Itoa(l)})
			}
		case labelled:
			w.Sample(float64(c[i]), metrics.Label{Name: label, Value: value})
		default:
			w.Sample(float64(c[i]))
		}
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
