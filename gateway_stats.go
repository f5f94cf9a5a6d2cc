package dpi

// Accounting and health: the lanes' counter blocks, the one table that maps
// them to Stats, LaneStats and Metrics, and the lane watchdog.

import (
	"reflect"
	"sync/atomic"
	"time"
)

// GatewayStats is a point-in-time counter snapshot: of the whole gateway
// from Stats, or of one lane from LaneStats.
type GatewayStats struct {
	Packets       uint64 // packets ingested
	Bytes         uint64 // payload bytes ingested
	StreamPackets uint64 // routed through per-flow stream state
	BatchPackets  uint64 // stateless packets a lane took (per-packet verdict, scanned whole)
	Matches       uint64 // FlowMatches emitted
	ScannedBytes  uint64 // payload bytes delivered to a scanner (stream + stateless)

	// Overload shedding (OverloadPolicy ShedPackets / ShedNewFlows).
	ShedPackets  uint64 // packets shed at admission
	ShedBytes    uint64 // payload bytes of shed packets
	ShedNewFlows uint64 // shed packets that would have created flow state

	// Panic containment.
	Panics             uint64 // panics recovered across all pipeline stages
	QuarantinedFlows   uint64 // flows quarantined because their scan panicked
	QuarantinedPackets uint64 // packets discarded on/after a flow quarantine
	QuarantinedBytes   uint64 // payload bytes those packets carried (ledger-exact)

	// TCP reassembly (every TCP segment).
	ReassembledBytes uint64 // bytes delivered to scanners in stream order
	BufferedBytes    int    // out-of-order bytes currently held, all flows
	OutOfOrderSegs   uint64 // segments that had to be buffered
	DuplicateBytes   uint64 // retransmitted/overlapping bytes discarded
	ReassemblyDrops  uint64 // bytes dropped to MaxFlowBuffer or the lane's share of MemoryBudget
	GapSkips         uint64 // gaps skipped on timeout
	GapSkippedBytes  uint64 // unseen bytes skipped past

	// Header-rule verdicts.
	VerdictAlerts uint64 // flows/packets admitted by an alert rule
	VerdictDrops  uint64 // flows/packets discarded unscanned
	VerdictPasses uint64 // flows/packets exempted unscanned
	DroppedBytes  uint64 // payload bytes of verdict-dropped traffic
	PassedBytes   uint64 // payload bytes of verdict-passed traffic

	// AbandonedBytes counts ingested bytes released unscanned when their
	// connection went away: buffered out-of-order bytes discarded on RST,
	// beyond a completed FIN, or on flow eviction, plus RST payloads.
	AbandonedBytes uint64

	FlowsLive     int
	FlowHusks     int // the part of FlowsLive held as husks: connections ended by FIN or quarantine, kept to absorb stragglers
	FlowsCreated  uint64
	FlowsOpened   uint64 // connections opened for scanning: new flows and SYN revivals of finished husks, once each
	FlowsEvicted  uint64 // capacity + idle evictions + RST teardowns
	FlowsFinished uint64 // completed via FIN (generation pin and buffers released early)
	FlowsReset    uint64 // torn down by RST

	// Ruleset generations (hot reload; see Gateway.SwapRules).
	Generation           uint64 // installed generation new flows open on
	RulesetSwaps         uint64 // successful SwapRules calls
	GenerationsInstalled uint64 // generations ever installed (initial + swaps)
	GenerationsRetired   uint64 // old generations drained and retired
	GenerationsLive      int    // non-retired generations, current included
}

// GatewayLedger is the byte-conservation view of a stats snapshot: every
// ingested payload byte is in exactly one bucket, so at any Flush
// checkpoint (pipeline drained, counters quiescent)
//
//	Ingested == Scanned + Shed + Skipped + Buffered
//
// holds exactly. Skipped aggregates every byte the gateway explicitly
// declined to scan: duplicates, reassembly cap drops, verdict drops and
// passes, abandoned connection bytes, and quarantined bytes. Reassembly
// gap-skipped bytes are NOT here — they were never ingested (the segments
// carrying them were lost upstream); GatewayStats reports them separately.
type GatewayLedger struct {
	Ingested uint64 `json:"ingested"`
	Scanned  uint64 `json:"scanned"`
	Shed     uint64 `json:"shed"`
	Skipped  uint64 `json:"skipped"`
	Buffered uint64 `json:"buffered"` // out-of-order bytes still held
}

// Ledger buckets the snapshot's byte counters; see GatewayLedger.
func (s GatewayStats) Ledger() GatewayLedger {
	return GatewayLedger{
		Ingested: s.Bytes,
		Scanned:  s.ScannedBytes,
		Shed:     s.ShedBytes,
		Skipped: s.DuplicateBytes + s.ReassemblyDrops + s.DroppedBytes +
			s.PassedBytes + s.AbandonedBytes + s.QuarantinedBytes,
		Buffered: uint64(s.BufferedBytes),
	}
}

// Balanced reports whether the conservation law holds for this snapshot.
// Only a drained snapshot (taken after Flush, or after Close) is required
// to balance; a mid-flight snapshot may be transiently short.
func (l GatewayLedger) Balanced() bool {
	return l.Ingested == l.Scanned+l.Shed+l.Skipped+l.Buffered
}

// gwCounter names one slot of a lane's counter block. Every monotone
// counter the gateway keeps is declared here and given its one row in
// gwCounters, which is all Stats, LaneStats and Metrics know of it.
//
// The slots are ordered by writer, because the block sits right after
// laneState: admission's four first, on the line it already writes; then
// eight the lane writes only on rare events (a panic, a gap skip, a cap
// drop, an RST), 64 B that keep the lane's per-packet slots off that line;
// then the rest.
type gwCounter int

const (
	cBytes gwCounter = iota
	cShedPackets
	cShedBytes
	cShedNewFlows

	cPanics
	cQuarantinedFlows
	cQuarantinedPackets
	cQuarantinedBytes
	cGapSkips
	cGapSkippedBytes
	cReassemblyDrops
	cFlowsReset

	// cScannedBytes and its sibling byte-conservation buckets (see
	// GatewayStats.Ledger) are committed transactionally — only after the
	// operation that consumed the bytes returned — so a mid-scan panic leaves
	// its packet's bytes uncommitted and the containment path can charge them
	// exactly.
	cStreamPackets
	cBatchPackets
	cMatches
	cScannedBytes
	cAbandonedBytes
	cReassembledBytes
	cOutOfOrderSegs
	cDuplicateBytes
	cVerdictAlerts
	cVerdictDrops
	cVerdictPasses
	cDroppedBytes
	cPassedBytes
	cFlowsFinished

	// The lane's flow-table counters, published per vector
	// (gwLane.publishFlows). cFlowsLive and cFlowHusks are levels.
	cFlowsLive
	cFlowHusks
	cFlowsCreated
	cFlowsEvictedCap
	cFlowsEvictedIdle
	cFlowsRemoved

	// cFlowsOpened counts connections, which the table's counters do not: a
	// SYN reviving a finished husk opens one without creating an entry.
	cFlowsOpened

	numCounters
)

// gwCounterRow is one counter slot's whole public surface. field names the
// GatewayStats field the slot adds to — summed over every lane in Stats, one
// lane's own in LaneStats; several slots may add to one field. name is the
// /metrics family the slot renders as, and help its help text, given on a
// family's first row only: the rows of a labelled family are consecutive.
// kind is "counter", "gauge", "lane" — a counter sampled once per lane, from
// that lane's block — or the label a row's one sample carries, such as
// "verdict=alert".
type gwCounterRow struct {
	field, name, kind, help string
}

var gwCounters = [numCounters]gwCounterRow{
	cBytes:        {"Bytes", "dpi_gateway_payload_bytes_total", "counter", "Payload bytes ingested."},
	cShedPackets:  {"ShedPackets", "dpi_gateway_shed_packets_total", "counter", "Packets shed at admission under a shedding overload policy."},
	cShedBytes:    {"ShedBytes", "dpi_gateway_shed_bytes_total", "counter", "Payload bytes of shed packets — the Shed ledger bucket."},
	cShedNewFlows: {"ShedNewFlows", "dpi_gateway_shed_new_flows_total", "counter", "Shed packets that would have created new flow state (ShedNewFlows)."},

	cPanics:             {"Panics", "dpi_panics_total", "lane", "Panics recovered by containment, per lane. Any non-zero value deserves a bug report; a growing one, an alert."},
	cQuarantinedFlows:   {"QuarantinedFlows", "dpi_gateway_quarantined_flows_total", "counter", "Flows evicted because scanning them panicked."},
	cQuarantinedPackets: {"QuarantinedPackets", "dpi_gateway_quarantined_packets_total", "counter", "Packets discarded by panic containment (the panicking packet and any stragglers of quarantined flows)."},
	cQuarantinedBytes:   {"QuarantinedBytes", "dpi_gateway_quarantined_bytes_total", "counter", "Payload bytes discarded by panic containment — the quarantine ledger bucket."},
	cGapSkips:           {"GapSkips", "dpi_gateway_gap_skips_total", "counter", "Reassembly gaps skipped on timeout."},
	cGapSkippedBytes:    {"GapSkippedBytes", "dpi_gateway_gap_skipped_bytes_total", "counter", "Unseen stream bytes skipped past on gap timeouts."},
	cReassemblyDrops:    {"ReassemblyDrops", "dpi_gateway_reassembly_dropped_bytes_total", "counter", "Out-of-order bytes dropped to MaxFlowBuffer or to what the lane's connections leave of its MemoryBudget share."},
	cFlowsReset:         {"FlowsReset", "dpi_gateway_flows_reset_total", "counter", "Connections torn down by RST."},

	cStreamPackets:    {"StreamPackets", "dpi_gateway_stream_packets_total", "counter", "Packets routed through per-flow stream state (TCP)."},
	cBatchPackets:     {"BatchPackets", "dpi_gateway_batch_packets_total", "lane", "Stateless packets a lane took: per-packet verdict, scanned whole (UDP and other IP)."},
	cMatches:          {"Matches", "dpi_gateway_matches_total", "counter", "FlowMatches emitted."},
	cScannedBytes:     {"ScannedBytes", "dpi_gateway_scanned_bytes_total", "counter", "Payload bytes delivered to a scanner (stream + stateless) — the Scanned ledger bucket."},
	cAbandonedBytes:   {"AbandonedBytes", "dpi_gateway_abandoned_bytes_total", "counter", "Ingested bytes released unscanned when their connection went away (RST payloads, buffered bytes freed on RST/FIN/eviction)."},
	cReassembledBytes: {"ReassembledBytes", "dpi_gateway_reassembled_bytes_total", "lane", "Bytes delivered to scanners in stream order by TCP reassembly."},
	cOutOfOrderSegs:   {"OutOfOrderSegs", "dpi_gateway_out_of_order_segments_total", "counter", "Segments that had to be buffered out of order."},
	cDuplicateBytes:   {"DuplicateBytes", "dpi_gateway_duplicate_bytes_total", "counter", "Retransmitted or overlapping bytes discarded by the overlap policy."},
	cVerdictAlerts:    {"VerdictAlerts", "dpi_gateway_verdicts_total", "verdict=alert", "Header-rule classifications by action (per TCP connection, per stateless packet)."},
	cVerdictDrops:     {"VerdictDrops", "dpi_gateway_verdicts_total", "verdict=drop", ""},
	cVerdictPasses:    {"VerdictPasses", "dpi_gateway_verdicts_total", "verdict=pass", ""},
	cDroppedBytes:     {"DroppedBytes", "dpi_gateway_verdict_dropped_bytes_total", "counter", "Payload bytes of verdict-dropped traffic, discarded unscanned."},
	cPassedBytes:      {"PassedBytes", "dpi_gateway_verdict_passed_bytes_total", "counter", "Payload bytes of verdict-passed traffic, exempted unscanned."},
	cFlowsFinished:    {"FlowsFinished", "dpi_gateway_flows_finished_total", "counter", "Connections completed via FIN."},

	cFlowsLive:        {"FlowsLive", "dpi_gateway_flows_live", "gauge", "Flow-table entries currently live."},
	cFlowHusks:        {"FlowHusks", "dpi_gateway_flow_husks", "gauge", "Part of dpi_gateway_flows_live held as husks: ended connections kept to absorb stragglers."},
	cFlowsCreated:     {"FlowsCreated", "dpi_gateway_flows_created_total", "counter", "Flow-table entries created."},
	cFlowsEvictedCap:  {"FlowsEvicted", "dpi_gateway_flows_evicted_total", "reason=capacity", "Flow-table entries removed, by reason: capacity (a lane over its MemoryBudget share), idle (IdleTimeout), teardown (RST)."},
	cFlowsEvictedIdle: {"FlowsEvicted", "dpi_gateway_flows_evicted_total", "reason=idle", ""},
	cFlowsRemoved:     {"FlowsEvicted", "dpi_gateway_flows_evicted_total", "reason=teardown", ""},

	cFlowsOpened: {"FlowsOpened", "dpi_gateway_flows_opened_total", "lane", "Connections each lane opened for scanning: new flows and SYN revivals of finished husks, once each."},
}

// addCounters adds every slot of c to the field of s its row names.
func addCounters(s *GatewayStats, c *[numCounters]uint64) {
	v := reflect.ValueOf(s).Elem()
	for i, r := range gwCounters {
		switch f := v.FieldByName(r.field); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + c[i])
		case reflect.Int:
			f.SetInt(f.Int() + int64(c[i]))
		}
	}
}

// gwRuleCounters is one verdict rule's counters on one lane.
type gwRuleCounters struct {
	flows   atomic.Uint64 // classifications decided by this rule
	matches atomic.Uint64 // matches attributed to this rule
}

// counterTotals loads the lanes' counter blocks in one walk over every lane:
// each lane's, in lane order, and their sum over the whole gateway.
func (g *Gateway) counterTotals() (lanes [][numCounters]uint64, all [numCounters]uint64) {
	lanes = make([][numCounters]uint64, len(g.lanes))
	for i, ln := range g.lanes {
		for c := range ln.n {
			v := ln.n[c].Load()
			lanes[i][c] = v
			all[c] += v
		}
	}
	return lanes, all
}

// Stats returns a counter snapshot. It may be called while the gateway is
// running; counters are monotone but mutually unsynchronized.
func (g *Gateway) Stats() GatewayStats {
	_, c := g.counterTotals()
	// Retired is read first, so a swap landing between the two loads can only
	// make the live count read high, never negative. Every generation past
	// the first came in by a swap.
	retired, swaps := g.gensRetired.Load(), g.swaps.Load()
	installed := swaps + 1
	s := GatewayStats{
		Packets:              g.seq.Load(),
		BufferedBytes:        g.bufferedBytes(),
		Generation:           g.cur.Load().id,
		RulesetSwaps:         swaps,
		GenerationsInstalled: installed,
		GenerationsRetired:   retired,
		GenerationsLive:      int(installed - retired),
	}
	addCounters(&s, &c)
	return s
}

// bufferedBytes sums the stream bytes the lanes' flows hold out of order,
// folded or not: the ledger's unit, not what holding them costs.
func (g *Gateway) bufferedBytes() (n int) {
	for _, ln := range g.lanes {
		n += ln.asm.Budget.Used()
	}
	return n
}

// LaneStats returns one counter snapshot per lane, in lane order: element i
// is the lane LaneHealth.Lane and the {lane="i"} samples of Metrics call i.
// Each holds the counters of that lane's own block and the out-of-order bytes
// its flows hold; the gateway-wide fields — Packets, RulesetSwaps and the
// Generation fields — read zero. Every other field of Stats is the sum of its
// lanes'. The counters belong to the lanes, not to a ruleset generation, so
// they are monotone across swaps and retirement.
func (g *Gateway) LaneStats() []GatewayStats {
	lanes, _ := g.counterTotals()
	out := make([]GatewayStats, len(lanes))
	for i := range out {
		out[i].BufferedBytes = g.lanes[i].asm.Budget.Used()
		addCounters(&out[i], &lanes[i])
	}
	return out
}

// RuleStats is one verdict rule's running counters. Flows counts the
// classification decisions the rule made (once per TCP connection, once
// per stateless packet); Matches counts the emitted matches it admitted —
// always zero for drop/pass rules, whose traffic is never scanned.
type RuleStats struct {
	ID      int
	Name    string
	Verdict Verdict // the configured action, with VerdictNone normalized to alert
	Flows   uint64
	Matches uint64
}

// RuleStats returns per-rule counters in cfg.Rules order, summed across
// lanes. Like Stats, it may be called while the gateway is running.
func (g *Gateway) RuleStats() []RuleStats {
	out := make([]RuleStats, len(g.cfg.Rules))
	for i := range g.cfg.Rules {
		r := &g.cfg.Rules[i]
		v := r.Verdict
		if v == VerdictNone {
			v = VerdictAlert
		}
		out[i] = RuleStats{ID: r.ID, Name: r.Name, Verdict: v}
		for _, ln := range g.lanes {
			out[i].Flows += ln.rules[i].flows.Load()
			out[i].Matches += ln.rules[i].matches.Load()
		}
	}
	return out
}

// laneState is one lane queue's in-flight count and watchdog view: how many
// packets are queued or in flight on it, and when its lane last made
// progress. depth serves both readers: the drain barrier waits for it to
// read zero (Gateway.quiesce) and Health reports it. There is no watchdog
// goroutine — admission stamps lastProgress when a queue goes from empty to
// busy, the lane stamps it after every vector it took (the packet it woke for
// plus whatever else was queued), and Health computes staleness on demand, so
// stall detection is deterministic and costs the hot path one atomic at
// admission and two per vector.
type laneState struct {
	depth        atomic.Int64
	lastProgress atomic.Int64 // unix nanos
}

// done lowers the depth by the n packets the lane just finished and stamps
// its progress. streamPacket contains its own panics, so the lane always
// gets here.
func (ls *laneState) done(n int) {
	ls.depth.Add(-int64(n))
	ls.lastProgress.Store(time.Now().UnixNano())
}

// drain waits until nothing is queued or in flight on the queue.
func (ls *laneState) drain() {
	for ls.depth.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// LaneHealth is one lane's watchdog reading at the time of a Health call.
// Depth counts the packets queued on it, the whole vector it is scanning
// (lowered once the vector is done, not per packet) and any Ingest call
// blocked on its full queue; Age is how long ago it last completed a vector
// (or, for one that never started, was first handed a packet). Lane is the
// lane's index, its position in LaneStats.
type LaneHealth struct {
	Lane    int           `json:"lane"`
	Depth   int64         `json:"depth"`
	Age     time.Duration `json:"age_ns"`
	Stalled bool          `json:"stalled"`
}

// GatewayHealth is a liveness snapshot: Healthy is false exactly when some
// lane holds work older than StallThreshold — a wedged
// scanner, a blocked emit callback, a deadlocked downstream consumer.
// Contained panics and quarantined flows do NOT unhealth the gateway
// (containment working is the healthy outcome); they are included so a
// /healthz probe can alert on their rate without scraping the full metrics
// surface.
type GatewayHealth struct {
	Healthy          bool         `json:"healthy"`
	Panics           uint64       `json:"panics"`
	QuarantinedFlows uint64       `json:"quarantined_flows"`
	BusyLanes        []LaneHealth `json:"busy_lanes,omitempty"`
}

// Health computes the watchdog snapshot on demand — there is no background
// watchdog goroutine, so detection is deterministic and costs nothing when
// nobody asks. Every lane currently holding work is reported, in lane order;
// the stalled ones flip Healthy to false.
func (g *Gateway) Health() GatewayHealth {
	now := time.Now().UnixNano()
	h := GatewayHealth{Healthy: true}
	for i, ln := range g.lanes {
		h.Panics += ln.n[cPanics].Load()
		h.QuarantinedFlows += ln.n[cQuarantinedFlows].Load()
		d := ln.depth.Load()
		if d <= 0 {
			continue
		}
		age := time.Duration(now - ln.lastProgress.Load())
		lh := LaneHealth{Lane: i, Depth: d, Age: age, Stalled: age > g.cfg.StallThreshold}
		if lh.Stalled {
			h.Healthy = false
		}
		h.BusyLanes = append(h.BusyLanes, lh)
	}
	return h
}
