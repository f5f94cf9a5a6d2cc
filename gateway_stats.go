package dpi

// Accounting and health: the shards' counter blocks, the snapshots they sum into, the lane watchdog.

import (
	"sync/atomic"
	"time"
)

// GatewayStats is a point-in-time counter snapshot.
type GatewayStats struct {
	EngineShards  int    // engine replicas behind this gateway
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

	// TCP reassembly (FlagSeq segments only).
	ReassembledBytes uint64 // bytes delivered to scanners in stream order
	BufferedBytes    int    // out-of-order bytes currently held, all flows
	OutOfOrderSegs   uint64 // segments that had to be buffered
	DuplicateBytes   uint64 // retransmitted/overlapping bytes discarded
	ReassemblyDrops  uint64 // bytes dropped to the flow/global buffer caps
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

// gwCounter names one slot of a shard's counter block. Every monotone
// counter the gateway keeps is declared here, once, and mapped to the
// public field it feeds once: GatewayStats fields in Gateway.Stats (summed
// across shards), EngineStats fields in Gateway.ShardStats (per shard).
type gwCounter int

const (
	cBytes         gwCounter = iota // payload bytes ingested
	cStreamPackets                  // packets a lane ran through per-flow state
	cBatchPackets                   // stateless packets a lane took
	cMatches                        // FlowMatches emitted

	// Byte-conservation buckets (see GatewayStats.Ledger). cScannedBytes and
	// its sibling buckets are committed transactionally — only after the
	// operation that consumed the bytes returned — so a mid-scan panic
	// leaves its packet's bytes uncommitted and the containment path can
	// charge them exactly.
	cScannedBytes
	cAbandonedBytes
	cShedPackets
	cShedBytes
	cShedNewFlows

	// Panic containment. Which flows are quarantined is flow-table state
	// (a husk's mark, flowQuarantined).
	cPanics // every panic recovered on this shard's lanes
	cQuarantinedFlows
	cQuarantinedPackets
	cQuarantinedBytes

	cReassembledBytes
	cOutOfOrderSegs
	cDuplicateBytes
	cReassemblyDrops
	cGapSkips
	cGapSkippedBytes

	cVerdictAlerts
	cVerdictDrops
	cVerdictPasses
	cDroppedBytes
	cPassedBytes

	cFlowsFinished
	cFlowsReset

	// The lanes' flow-table counters, published per vector
	// (gwLane.publishFlows). cFlowsLive and cFlowHusks are levels: lanes
	// add signed deltas, so only the sum across shards means anything.
	cFlowsLive
	cFlowHusks
	cFlowsCreated
	cFlowsEvictedCap
	cFlowsEvictedIdle
	cFlowsRemoved

	// The shard's scan work, by usage shape — its EngineStats.
	cEngBatchPkts   // stateless payloads scanned (those a verdict admitted)
	cEngBatchBytes  // their payload bytes
	cEngFlowsOpened // connections opened: new flows and SYN revivals
	cEngStreamBytes // bytes written through flow registers

	numCounters
)

// gwRuleCounters is one verdict rule's counters on one shard.
type gwRuleCounters struct {
	flows   atomic.Uint64 // classifications decided by this rule
	matches atomic.Uint64 // matches attributed to this rule
}

// totals sums every shard's counter block.
func (g *Gateway) totals() (c [numCounters]uint64) {
	for _, sh := range g.shards {
		for i := range sh.n {
			c[i] += sh.n[i].Load()
		}
	}
	return c
}

// Stats returns a counter snapshot. It may be called while the gateway is
// running; counters are monotone but mutually unsynchronized.
func (g *Gateway) Stats() GatewayStats { return g.statsOf(g.totals()) }

// statsOf is where each slot of the shards' summed counter blocks meets its
// public field.
func (g *Gateway) statsOf(c [numCounters]uint64) GatewayStats {
	// Retired is read first, so a swap landing between the two loads can only
	// make the live count read high, never negative.
	retired, installed := g.gensRetired.Load(), g.gensInstall.Load()
	return GatewayStats{
		EngineShards:  len(g.shards),
		Packets:       g.seq.Load(),
		Bytes:         c[cBytes],
		StreamPackets: c[cStreamPackets],
		BatchPackets:  c[cBatchPackets],
		Matches:       c[cMatches],
		ScannedBytes:  c[cScannedBytes],

		ShedPackets:  c[cShedPackets],
		ShedBytes:    c[cShedBytes],
		ShedNewFlows: c[cShedNewFlows],

		Panics:             c[cPanics],
		QuarantinedFlows:   c[cQuarantinedFlows],
		QuarantinedPackets: c[cQuarantinedPackets],
		QuarantinedBytes:   c[cQuarantinedBytes],

		ReassembledBytes: c[cReassembledBytes],
		BufferedBytes:    g.asmCfg.Budget.Used(),
		OutOfOrderSegs:   c[cOutOfOrderSegs],
		DuplicateBytes:   c[cDuplicateBytes],
		ReassemblyDrops:  c[cReassemblyDrops],
		GapSkips:         c[cGapSkips],
		GapSkippedBytes:  c[cGapSkippedBytes],

		VerdictAlerts: c[cVerdictAlerts],
		VerdictDrops:  c[cVerdictDrops],
		VerdictPasses: c[cVerdictPasses],
		DroppedBytes:  c[cDroppedBytes],
		PassedBytes:   c[cPassedBytes],

		AbandonedBytes: c[cAbandonedBytes],

		FlowsLive:     int(int64(c[cFlowsLive])),
		FlowHusks:     int(int64(c[cFlowHusks])),
		FlowsCreated:  c[cFlowsCreated],
		FlowsEvicted:  c[cFlowsEvictedCap] + c[cFlowsEvictedIdle] + c[cFlowsRemoved],
		FlowsFinished: c[cFlowsFinished],
		FlowsReset:    c[cFlowsReset],

		Generation:           g.cur.Load().id,
		RulesetSwaps:         g.swaps.Load(),
		GenerationsInstalled: installed,
		GenerationsRetired:   retired,
		GenerationsLive:      int(installed - retired),
	}
}

// EngineStats is a point-in-time snapshot of one gateway shard's scan work,
// split by how the traffic reached it: stateless datagrams and per-flow
// streams. Gateway.ShardStats returns one per shard, which is what the
// dpi_engine_*_total{shard="i"} series on Gateway.Metrics render.
type EngineStats struct {
	BatchPkts   uint64 // stateless payloads scanned
	BatchBytes  uint64 // their payload bytes
	FlowsOpened uint64 // flows opened, once per connection (a SYN revival included)
	StreamBytes uint64 // bytes written through flow registers
}

// ShardStats returns one scan-work snapshot per engine shard, in shard
// order — how the ingested traffic fanned out across the scan replicas.
// The counters belong to the shard, not to a ruleset generation, so they
// are monotone across ruleset swaps and generation retirement.
func (g *Gateway) ShardStats() []EngineStats {
	out := make([]EngineStats, len(g.shards))
	for s, sh := range g.shards {
		out[s] = EngineStats{
			BatchPkts:   sh.n[cEngBatchPkts].Load(),
			BatchBytes:  sh.n[cEngBatchBytes].Load(),
			FlowsOpened: sh.n[cEngFlowsOpened].Load(),
			StreamBytes: sh.n[cEngStreamBytes].Load(),
		}
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
// shards. Like Stats, it may be called while the gateway is running.
func (g *Gateway) RuleStats() []RuleStats {
	out := make([]RuleStats, len(g.cfg.Rules))
	for i := range g.cfg.Rules {
		r := &g.cfg.Rules[i]
		v := r.Verdict
		if v == VerdictNone {
			v = VerdictAlert
		}
		out[i] = RuleStats{ID: r.ID, Name: r.Name, Verdict: v}
		for _, sh := range g.shards {
			out[i].Flows += sh.rules[i].flows.Load()
			out[i].Matches += sh.rules[i].matches.Load()
		}
	}
	return out
}

// PanicsByShard returns the recovered-panic count per engine shard, in
// shard order — the dpi_panics_total{shard} series. A non-zero cell names
// the shard whose lane contained a panic.
func (g *Gateway) PanicsByShard() []uint64 {
	out := make([]uint64, len(g.shards))
	for i, sh := range g.shards {
		out[i] = sh.n[cPanics].Load()
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
// lane's index within its shard.
type LaneHealth struct {
	Shard   int           `json:"shard"`
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
// nobody asks. Every lane currently holding work is reported, in shard and
// lane order; the stalled ones flip Healthy to false.
func (g *Gateway) Health() GatewayHealth {
	now := time.Now().UnixNano()
	h := GatewayHealth{Healthy: true}
	for si, sh := range g.shards {
		h.Panics += sh.n[cPanics].Load()
		h.QuarantinedFlows += sh.n[cQuarantinedFlows].Load()
		for li, ls := range sh.lanes {
			d := ls.depth.Load()
			if d <= 0 {
				continue
			}
			age := time.Duration(now - ls.lastProgress.Load())
			lh := LaneHealth{Shard: si, Lane: li, Depth: d, Age: age, Stalled: age > g.cfg.StallThreshold}
			if lh.Stalled {
				h.Healthy = false
			}
			h.BusyLanes = append(h.BusyLanes, lh)
		}
	}
	return h
}
