package dpi

// The gateway layer turns the library into the NIDS front-end the paper
// deploys (§I): packets arrive tagged with their 5-tuple, are demultiplexed
// into per-connection streams, and every payload byte flows through the
// shared compressed automaton at one transition per byte. The software
// pipeline mirrors the hardware's structure in two stages — admission
// partitions traffic by tuple hash on the caller's goroutine, and each
// lane's bounded queue plays the role of a block's input FIFO: TCP packets
// are pinned to a lane by flow hash so each connection's scanner registers
// see its bytes in order, exactly as a hardware engine owns a packet
// stream, and stateless packets are scanned in bursts fanned out across
// worker goroutines. Nothing sits between the partitioner and a lane.
//
// The scan back-end replicates like the hardware does: the paper's device
// reaches its throughput by instantiating many identical string matching
// blocks and fanning partitioned traffic across them (§IV.B), and
// GatewayConfig.EngineShards is the software analogue — M independent
// shards (each one state block: its stream lanes, burst scanner, admission
// gate, drain count and counters) over the one immutable compiled automaton,
// with every flow and stateless packet pinned to a shard by the same tuple
// hash that pins lanes and flow-table shards. A packet's bookkeeping lands
// on its own shard's block and nowhere else — the ingest sequence number is
// the one gateway-wide write on the packet path — and every read surface
// (Stats, ShardStats, Health, the Flush barrier) is a summing walk over the
// shards. Sharding is invisible in results and accounting; ShardStats
// exposes the per-replica fan-out.
//
// Two stages sit between a lane and the scanner, completing the NIDS model:
//
//   - TCP reassembly (internal/reassembly): segments carrying a sequence
//     number (FlagSeq) are reordered into the connection's contiguous byte
//     stream before scanning, with a configurable overlap policy, bounded
//     buffering, and a gap timeout so loss cannot wedge a flow. This closes
//     the segmentation-evasion hole: a signature split or shuffled across
//     segments is still seen contiguously by the matcher.
//   - Header-rule verdicts (internal/nids): rules classify the 5-tuple
//     before any payload byte is scanned. A pass rule exempts the flow from
//     inspection, a drop rule discards it unscanned, and an alert rule tags
//     every match with the rule that admitted it. The verdict is decided
//     once per flow (per packet for stateless traffic) and reported through
//     OnVerdict before any match from that flow is emitted.
//
// Two seams face outward from this layer. Upstream, the capture edge
// (capture.go, internal/capture) feeds the gateway from classic libpcap
// files: Gateway.ReplayPcap translates Ethernet/IPv4 frames into Ingest
// calls, preserving TCP sequence numbers and SYN/FIN/RST so the
// reassembly and lifecycle paths above see real wire semantics, and a
// replay deliberately does not flush or close the gateway, so rotated
// capture files replay back-to-back with flows continuing across file
// boundaries. Downstream, the observability edge (metrics.go,
// internal/metrics) renders this file's accounting — GatewayStats, the
// flow-table snapshot, per-shard EngineStats and the per-rule counters —
// as a Prometheus text exposition via Gateway.Metrics. Both seams are
// read-only over state the pipeline already maintains: the hot path has no
// capture- or metrics-specific branches, and the per-rule counters are
// position-indexed atomics bumped where the verdict and match decisions
// already happen.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ac"
	"repro/internal/engine"
	"repro/internal/flowtable"
	"repro/internal/nids"
	"repro/internal/reassembly"
)

// FiveTuple is the packet classification header keying flows, shared with
// the internal NIDS rule model.
type FiveTuple = nids.FiveTuple

// HeaderRule is the 5-tuple classification half of a NIDS rule: protocol,
// source/destination CIDR prefixes and port ranges. The zero value matches
// every packet.
type HeaderRule = nids.HeaderRule

// Prefix is an IPv4 CIDR prefix for HeaderRule nets; the zero value
// matches any address.
type Prefix = nids.Prefix

// PortRange is an inclusive port interval for HeaderRule ports; the zero
// value matches any port.
type PortRange = nids.PortRange

// IPv4 packs four octets into the uint32 address form used by FiveTuple
// and Prefix.
func IPv4(a, b, c, d byte) uint32 { return nids.IPv4(a, b, c, d) }

// IP protocol numbers for FiveTuple.Proto.
const (
	ProtoAny  = nids.ProtoAny
	ProtoICMP = nids.ProtoICMP
	ProtoTCP  = nids.ProtoTCP
	ProtoUDP  = nids.ProtoUDP
)

// TCPFlags carries the TCP control bits the gateway acts on, plus FlagSeq,
// which marks the Seq field as meaningful. A packet without FlagSeq takes
// the pre-reassembly path: its bytes append at the flow's current stream
// position, trusting the feed to deliver segments in order.
type TCPFlags uint8

const (
	FlagFIN TCPFlags = 1 << 0 // connection finished after this segment
	FlagSYN TCPFlags = 1 << 1 // connection start; Seq is the ISN
	FlagRST TCPFlags = 1 << 2 // abort: tear the flow down immediately
	// FlagSeq marks Seq as valid, routing the packet through TCP
	// reassembly. Feeds that guarantee in-order delivery may omit it.
	FlagSeq TCPFlags = 1 << 7
)

// OverlapPolicy selects which bytes win when TCP segments overlap in the
// reassembly buffer. Bytes already delivered to the scanner are immutable
// under either policy.
type OverlapPolicy = reassembly.Policy

const (
	// FirstWins keeps the bytes that arrived first (Snort's default).
	FirstWins = reassembly.FirstWins
	// LastWins lets retransmissions overwrite buffered, unscanned bytes.
	LastWins = reassembly.LastWins
)

// GatewayPacket is one ingested packet: a payload tagged with its flow's
// 5-tuple and, for TCP segments from a real capture, the sequence number
// and control flags driving reassembly and connection lifecycle. The
// Gateway takes ownership of Payload; callers that reuse buffers must copy
// first.
type GatewayPacket struct {
	Tuple FiveTuple
	// Seq is the TCP sequence number of Payload[0] (of the SYN itself on a
	// SYN segment). It is honoured only when Flags has FlagSeq set.
	Seq     uint32
	Flags   TCPFlags
	Payload []byte
}

// Verdict is the action a header rule attaches to a flow or packet.
type Verdict uint8

const (
	// VerdictNone: no header rule matched; the payload is scanned and
	// matches carry no rule attribution.
	VerdictNone Verdict = iota
	// VerdictAlert: scan the payload; matches carry the rule's ID.
	VerdictAlert
	// VerdictDrop: discard the flow/packet without scanning.
	VerdictDrop
	// VerdictPass: exempt the flow/packet from inspection.
	VerdictPass
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictAlert:
		return "alert"
	case VerdictDrop:
		return "drop"
	case VerdictPass:
		return "pass"
	}
	return "none"
}

// VerdictRule is one gateway header rule: a 5-tuple classifier plus the
// action to take on flows it matches. Rules are evaluated in slice order
// and the first match wins, so put the most specific rules first. A rule
// whose Verdict is VerdictNone acts as VerdictAlert.
type VerdictRule struct {
	ID      int
	Name    string
	Header  HeaderRule
	Verdict Verdict
}

// FlowVerdict reports one classification decision: for stream (TCP) flows
// it fires once per connection on the first packet, before any match from
// that flow; for stateless packets it fires per packet. Only decisions
// made by a configured rule are reported.
type FlowVerdict struct {
	Tuple    FiveTuple
	Verdict  Verdict
	RuleID   int
	RuleName string
}

// FlowMatch is a match attributed to a flow. For stream-routed (TCP)
// packets, Start/End are offsets into the flow's reassembled byte stream
// and PacketID is the ingest sequence number of the packet whose bytes
// completed the match — for a match completed by buffered out-of-order
// bytes, that is the packet whose arrival released those bytes. For
// batch-routed packets, Start/End are offsets into that packet's payload
// and PacketID is its ingest sequence number.
type FlowMatch struct {
	Tuple FiveTuple
	Match
	// Verdict and RuleID carry the header-rule gate that admitted this
	// flow or packet to scanning: VerdictAlert and the rule's ID when a
	// rule matched, VerdictNone and -1 otherwise.
	Verdict Verdict
	RuleID  int
}

// OverloadPolicy selects what Ingest does when the pipeline is saturated
// and the packet's lane queue cannot accept it within the ingest deadline.
// Whatever the policy, the exactness contract holds over the bytes actually
// delivered to scanning, and every byte not delivered is explicitly
// accounted (see GatewayStats.Ledger): never silently wrong, never wedged.
type OverloadPolicy uint8

const (
	// Block is today's backpressure contract and the default: Ingest waits
	// for queue space, nothing is ever shed, and results are byte-identical
	// to an unloaded run.
	Block OverloadPolicy = iota
	// ShedPackets drops the packet that cannot be queued within
	// IngestDeadline. A shed TCP segment invalidates the flow's scanner
	// across the unseen bytes (SkipGap semantics), so no match can span a
	// shed packet and matches over delivered bytes stay oracle-exact.
	ShedPackets
	// ShedNewFlows sheds only packets that would create new flow state
	// (unknown TCP tuples and stateless packets); packets of established
	// TCP flows still block, protecting connections already under
	// inspection — the classic IDS answer to a SYN-flood style overload.
	ShedNewFlows
)

// String implements fmt.Stringer.
func (p OverloadPolicy) String() string {
	switch p {
	case ShedPackets:
		return "shed_packets"
	case ShedNewFlows:
		return "shed_new_flows"
	}
	return "block"
}

// GatewayConfig sizes the ingest pipeline. The zero value selects sensible
// defaults throughout.
type GatewayConfig struct {
	// EngineShards replicates the scan back-end: the gateway spins up this
	// many independent shards over the one shared compiled automaton and
	// pins every flow (and every stateless packet) to a shard by tuple
	// hash — the software analogue of the paper's replicated string
	// matching blocks fed by partitioned traffic. Each shard owns its own
	// per-flow stream lanes, burst scanner and counters, so shards share
	// nothing hot; on a NUMA machine run one shard per node. All
	// ordering and accounting guarantees are per-gateway, unchanged:
	// per-flow packet order holds because a flow's shard and lane are both
	// functions of its tuple hash, nothing is dropped, and Flush drains
	// every shard. Default 1 (exactly the pre-sharding gateway).
	EngineShards int
	// BatchPackets is the burst size for stateless (non-TCP) packets: the
	// burst scanner takes up to this many queued packets per scan. It never
	// waits for a burst to fill — it scans whatever is queued — so batching
	// adds no latency. Default 64.
	BatchPackets int
	// QueueDepth bounds the queued packets per engine shard, split across
	// its lanes; a full lane queue blocks Ingest of the flows pinned to it,
	// which is the gateway's backpressure. Default 4*BatchPackets.
	QueueDepth int
	// StreamWorkers is the number of per-flow scan lanes per engine shard.
	// Each flow is pinned to one lane of its shard by tuple hash, so
	// per-flow packet order (and therefore cross-packet matching) is
	// preserved while distinct flows scan in parallel. It also sizes the
	// shard's burst fan-out: one stateless burst is scanned by up to this
	// many goroutines at once. Default GOMAXPROCS — one lane per available
	// core.
	StreamWorkers int
	// MaxFlows softly caps live flow state: when exceeded, the
	// least-recently-active flows are evicted, records and all. The live
	// count stays within MaxFlows plus the table's shard count; what a
	// flow costs is in OPERATIONS.md ("Sizing memory"). Default 65536;
	// negative disables.
	MaxFlows int
	// IdleTimeout evicts a flow after this many table-wide stream packets
	// pass without it seeing one (a logical clock, deterministic and
	// load-proportional — a line-rate gateway experiences time in packets).
	// 0 disables idle eviction.
	IdleTimeout int
	// FlowShards is the flow table's lock-shard count. Default 64.
	FlowShards int
	// MaxFrameBytes caps the payload length IngestReader accepts per
	// frame, bounding memory against corrupt or hostile feeds. Default 1MiB.
	MaxFrameBytes int

	// OverlapPolicy resolves overlapping TCP segments in the reassembly
	// buffer. Default FirstWins.
	OverlapPolicy OverlapPolicy
	// MaxFlowBuffer caps one flow's buffered out-of-order bytes; under
	// pressure the bytes furthest from the delivery point are dropped
	// first. Default 256 KiB.
	MaxFlowBuffer int
	// MaxTotalBuffer caps buffered out-of-order bytes across all flows.
	// Default 16 MiB; negative disables the cap (held bytes are still
	// tracked for Stats.BufferedBytes).
	MaxTotalBuffer int
	// GapTimeout is how many stream packets (gateway-wide, the same
	// logical clock as IdleTimeout) a flow may stall on a missing segment
	// before the gap is skipped: scanner state is invalidated across the
	// unseen bytes and scanning resumes at the first buffered byte, so a
	// single lost segment cannot wedge a flow. Default 4096; negative
	// disables skipping.
	GapTimeout int

	// OverloadPolicy selects the admission behavior when a packet's lane
	// queue is full: Block (default, pure backpressure), ShedPackets, or
	// ShedNewFlows. See the OverloadPolicy constants.
	OverloadPolicy OverloadPolicy
	// IngestDeadline bounds how long a shedding policy waits for queue
	// space before shedding the packet. 0 selects 1ms; negative sheds
	// immediately on a full queue. Ignored under Block, which waits
	// indefinitely.
	IngestDeadline time.Duration
	// StallThreshold is the lane-watchdog trigger: a stream lane with
	// queued or in-flight work whose last progress is older than this is
	// reported stalled by Health (and /healthz turns 503). Default 5s.
	StallThreshold time.Duration

	// Rules classify each flow's 5-tuple before payload scanning; see
	// VerdictRule. No rules means every packet is scanned unattributed.
	Rules []VerdictRule
	// OnVerdict, when non-nil, receives every rule classification (see
	// FlowVerdict). Like the match callback it is invoked concurrently
	// from pipeline stages and must be safe for concurrent use.
	OnVerdict func(FlowVerdict)
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.EngineShards <= 0 {
		c.EngineShards = 1
	}
	if c.BatchPackets <= 0 {
		c.BatchPackets = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchPackets
	}
	if c.StreamWorkers <= 0 {
		c.StreamWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = 1 << 16
	}
	if c.MaxFlows < 0 {
		c.MaxFlows = 0
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = 1 << 20
	}
	if c.MaxFlowBuffer <= 0 {
		c.MaxFlowBuffer = 256 << 10
	}
	if c.MaxTotalBuffer == 0 {
		c.MaxTotalBuffer = 16 << 20
	}
	if c.GapTimeout == 0 {
		c.GapTimeout = 4096
	}
	if c.GapTimeout < 0 {
		c.GapTimeout = 0 // disabled
	}
	if c.IngestDeadline == 0 {
		c.IngestDeadline = time.Millisecond
	}
	if c.IngestDeadline < 0 {
		c.IngestDeadline = 0 // shed immediately on a full queue
	}
	if c.StallThreshold <= 0 {
		c.StallThreshold = 5 * time.Second
	}
	return c
}

// GatewayStats is a point-in-time counter snapshot.
type GatewayStats struct {
	EngineShards  int    // engine replicas behind this gateway
	Packets       uint64 // packets ingested
	Bytes         uint64 // payload bytes ingested
	StreamPackets uint64 // routed through per-flow stream state
	BatchPackets  uint64 // scanned statelessly in bursts
	Batches       uint64 // bursts the burst scanners formed
	Matches       uint64 // FlowMatches emitted
	ScannedBytes  uint64 // payload bytes delivered to a scanner (stream + burst)

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

// Gateway is a two-stage ingestion front-end over one or more engine
// shards: admission, on the caller's goroutine, sends each packet straight
// to the bounded queue its tuple hash pins it to — per shard a set of
// per-flow stream lanes fed through the shared 5-tuple flow table (with TCP
// reassembly and header-rule verdicts ahead of the scanner) plus a burst
// scanner for stateless packets.
//
//	Ingest ─▶ admission ─▶ shard[h%M].lane[(h/M)%K] ─▶ verdict ─▶ reassembly ─▶ per-flow scan
//	           (hash)  └──▶ shard[h%M].burst ─────────▶ verdict ─▶ batch scan
//
// With EngineShards=1 (the default) this collapses to the single-shard
// pipeline. Ingest and IngestReader may be called from multiple
// goroutines; emit and OnVerdict are invoked concurrently (from the stream
// lanes and the burst scanners) and must be safe for concurrent use. Close
// drains the pipeline and evicts every flow.
type Gateway struct {
	cfg  GatewayConfig
	emit func(FlowMatch)

	shards []*gwEngineShard
	table  *flowtable.Table[*gwFlow]
	budget *reassembly.Budget
	asmCfg reassembly.Config // shared by every flow's reassembly stream, by pointer

	// closed is guarded by the shards' admission gates: Ingest reads it
	// holding its packet's shard gate shared; Close writes it holding every
	// gate exclusively (see lockAll).
	closed bool

	// Ruleset generations — the hot-reload control plane. cur is the
	// generation new flows pin to and bursts scan with; it only changes
	// inside SwapRules, at a drained point (every gate held exclusively,
	// every shard's inflight zero), so everything processing a packet sees
	// a frozen cur. gens lists every non-retired generation in install
	// order, guarded by genMu.
	cur         atomic.Pointer[gwGeneration]
	genMu       sync.Mutex
	gens        []*gwGeneration
	swaps       atomic.Uint64
	gensInstall atomic.Uint64
	gensRetired atomic.Uint64

	workerWg sync.WaitGroup

	// seq numbers ingested packets (FlowMatch.PacketID) — the one
	// gateway-wide write on the packet path. Every other per-packet counter
	// lives on the owning shard's block (gwEngineShard.n).
	seq atomic.Uint64

	// Pending scanner gaps from shed in-order (non-FlagSeq) TCP segments:
	// the flow's next admitted packet applies SkipGap(n) before scanning,
	// so no match spans the shed bytes and later offsets stay absolute.
	// (Shed FlagSeq segments need none of this — they are ordinary
	// reassembly holes, handled by GapTimeout.) pendingN gates the lookup:
	// admission pays one atomic load until something has been shed.
	pendingMu   sync.Mutex
	pendingGaps map[FiveTuple]int
	pendingN    atomic.Int64
}

type seqPacket struct {
	tuple   FiveTuple
	payload []byte
	seq     int    // global ingest sequence number (PacketID attribution)
	hash    uint64 // Tuple.Hash64, the single source of shard/lane/table pinning
	seq32   uint32
	flags   TCPFlags
	// gap is the flow's accumulated shed-gap, claimed at admission time.
	// Claiming it here rather than at the lane keeps gap application in
	// admission order: a packet admitted before a shed must not absorb that
	// shed's gap just because the lane processed it later.
	gap int
}

// gwCounter names one slot of a shard's counter block. Every monotone
// counter the gateway keeps is declared here, once, and mapped to the
// public field it feeds once: GatewayStats fields in Gateway.Stats (summed
// across shards), EngineStats fields in Gateway.ShardStats (per shard).
type gwCounter int

const (
	cBytes         gwCounter = iota // payload bytes ingested
	cStreamPackets                  // packets a lane ran through per-flow state
	cBatchPackets                   // packets a burst scanner took
	cBatches                        // bursts formed
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

	// Panic containment. Which flows are quarantined is flow-entry state
	// (gwFlow.quarantined).
	cPanics // every panic recovered on this shard: lanes, burst scanner, batch workers
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

	// The shard's scan work, by usage shape — its EngineStats.
	cEngBatches     // batch scans handed to the worker fan-out
	cEngBatchPkts   // payloads scanned across those batches
	cEngBatchBytes  // payload bytes scanned in batch mode
	cEngFlowsOpened // connections opened: new flows and SYN re-opens
	cEngStreamBytes // bytes written through flow registers
	cEngPanics      // panics recovered inside batch workers

	numCounters
)

// gwCounts is one loaded copy of a counter block, or a sum of several.
type gwCounts [numCounters]uint64

// gwRuleCounters is one verdict rule's counters on one shard.
type gwRuleCounters struct {
	flows   atomic.Uint64 // classifications decided by this rule
	matches atomic.Uint64 // matches attributed to this rule
}

// gwEngineShard is one scan replica — the software string matching block —
// and the one owner of everything its goroutines touch: the hash-pinned
// per-flow stream lanes and the burst scanner's queue, the lanes' watchdog
// state, the admission gate, the drain count and the counter block. A
// packet pinned to this shard is accounted here and nowhere else, so shards
// share no written cache line on the packet path beyond Gateway.seq and the
// flow table's own clock. What a shard scans *with* is not its state: lanes
// look the matcher up through the flow's pinned generation, the burst
// scanner through the current one.
type gwEngineShard struct {
	streamQ []chan seqPacket
	burstQ  chan seqPacket
	lanes   []laneState // watchdog state, parallel to streamQ
	// rules holds the per-rule counters, indexed by the rule's position in
	// cfg.Rules (not its ID — IDs may be sparse). Fixed-size and allocated
	// at construction, so counting a verdict or an attributed match is one
	// predictable atomic add.
	rules []gwRuleCounters

	// gate orders admission against the control plane: Ingest holds it
	// shared across its send; Flush, SwapRules and Close hold every shard's
	// exclusively (Gateway.lockAll).
	gate sync.RWMutex

	_ [64]byte // keeps the read-mostly header off the lines written per packet
	// inflight counts packets admitted to this shard and not yet fully
	// processed: raised by admission before the send, lowered by the lane or
	// burst scanner in the defer chain that also contains panics. The drain
	// barrier waits for every shard's to reach zero.
	inflight atomic.Int64
	// n is the shard's counter block; see gwCounter.
	n [numCounters]atomic.Uint64
	_ [64]byte // the next shard's header starts on its own line
}

// counts loads the shard's counter block.
func (sh *gwEngineShard) counts() (c gwCounts) {
	for i := range sh.n {
		c[i] = sh.n[i].Load()
	}
	return c
}

// totals sums every shard's counter block.
func (g *Gateway) totals() (c gwCounts) {
	for _, sh := range g.shards {
		for i := range sh.n {
			c[i] += sh.n[i].Load()
		}
	}
	return c
}

// gwGeneration is one installed ruleset generation: the compiled matcher
// and the live count of flows pinned to it. A generation retires — dropped
// from Gateway.gens, its matcher left to the garbage collector — when it is
// no longer current and its last pinned flow ends; the current generation
// never retires.
type gwGeneration struct {
	id uint64 // Matcher.Generation of m
	m  *Matcher
	// flows counts live pinned flows. Pinning happens only while the
	// packet that opens the flow is in flight (its shard's inflight > 0),
	// and cur only changes at a drained point, so a pin can never land on a
	// generation that is concurrently being swapped out — the race
	// SwapRules' drain barrier exists to exclude.
	flows atomic.Int64
}

// laneState is one stream lane's watchdog view: how many packets are queued
// or in flight on the lane, and when the lane last made progress. There is
// no watchdog goroutine — admission stamps lastProgress when a lane goes
// from empty to busy, the worker stamps it after every packet, and
// Health computes staleness on demand, so stall detection is deterministic
// and costs the hot path two atomics per packet.
type laneState struct {
	depth        atomic.Int64
	lastProgress atomic.Int64 // unix nanos
}

// NewGateway starts a pipelined ingestion front-end scanning with m. emit
// receives every match and must be safe for concurrent use. The returned
// Gateway is running; feed it with Ingest, IngestReader or ReplayPcap and
// Close it to drain. Nil arguments are rejected with a wrapped ErrBadConfig
// instead of a later panic.
func NewGateway(m *Matcher, cfg GatewayConfig, emit func(FlowMatch)) (*Gateway, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: NewGateway with nil Matcher", ErrBadConfig)
	}
	if emit == nil {
		return nil, fmt.Errorf("%w: NewGateway with nil emit callback", ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	g := &Gateway{cfg: cfg, emit: emit}
	// A negative MaxTotalBuffer disables the global cap but the budget is
	// still kept, with an effectively infinite limit, so Stats can always
	// report how many out-of-order bytes are held across flows.
	if cfg.MaxTotalBuffer > 0 {
		g.budget = reassembly.NewBudget(cfg.MaxTotalBuffer)
	} else {
		g.budget = reassembly.NewBudget(math.MaxInt64)
	}
	g.asmCfg = reassembly.Config{
		Policy:       cfg.OverlapPolicy,
		MaxFlowBytes: cfg.MaxFlowBuffer,
		Budget:       g.budget,
		GapTimeout:   uint64(cfg.GapTimeout),
	}
	g.table = flowtable.New(flowtable.Config[*gwFlow]{
		New: func(k flowtable.Key) *gwFlow {
			fl := &gwFlow{}
			v, idx := g.classify(k)
			fl.verdict, fl.ruleIdx = v, int32(idx)
			if v == VerdictNone || v == VerdictAlert {
				fl.open(g, g.shards[g.shardIndex(k)])
			}
			return fl
		},
		Evict:     func(k flowtable.Key, fl *gwFlow) { fl.release(g, g.shards[g.shardIndex(k)]) },
		MaxFlows:  cfg.MaxFlows,
		IdleTicks: uint64(cfg.IdleTimeout),
		Shards:    cfg.FlowShards,
	})
	gen0 := &gwGeneration{id: m.Generation(), m: m}
	g.cur.Store(gen0)
	g.gens = []*gwGeneration{gen0}
	g.gensInstall.Store(1)
	g.shards = make([]*gwEngineShard, cfg.EngineShards)
	for s := range g.shards {
		sh := &gwEngineShard{
			streamQ: make([]chan seqPacket, cfg.StreamWorkers),
			// One burst queues while the previous one scans.
			burstQ: make(chan seqPacket, cfg.BatchPackets),
			lanes:  make([]laneState, cfg.StreamWorkers),
			rules:  make([]gwRuleCounters, len(cfg.Rules)),
		}
		g.shards[s] = sh
		for w := range sh.streamQ {
			// QueueDepth split across the shard's lanes, never zero.
			q := make(chan seqPacket, cfg.QueueDepth/cfg.StreamWorkers+1)
			sh.streamQ[w] = q
			g.workerWg.Add(1)
			go g.streamWorker(&gwLane{g: g, sh: sh, ls: &sh.lanes[w]}, q)
		}
		g.workerWg.Add(1)
		go g.burstScanner(sh)
	}
	return g, nil
}

// lockAll takes every shard's admission gate exclusively, in shard order —
// the control plane's stop-the-world: no Ingest is inside a send and none
// can start one until unlockAll.
func (g *Gateway) lockAll() {
	for _, sh := range g.shards {
		sh.gate.Lock()
	}
}

func (g *Gateway) unlockAll() {
	for _, sh := range g.shards {
		sh.gate.Unlock()
	}
}

// shardIndex returns the engine shard owning key — the same hash-derived
// pinning admission routes by, so a flow is opened on (and counted by) the
// shard whose lane scans it.
func (g *Gateway) shardIndex(k FiveTuple) int {
	if len(g.shards) == 1 {
		return 0
	}
	return int(k.Hash64() % uint64(len(g.shards)))
}

// classify runs the header rules over one 5-tuple: first matching rule
// wins; no rule means scan without attribution.
func (g *Gateway) classify(t FiveTuple) (Verdict, int) {
	for i := range g.cfg.Rules {
		if g.cfg.Rules[i].Header.Matches(t) {
			v := g.cfg.Rules[i].Verdict
			if v == VerdictNone {
				v = VerdictAlert
			}
			return v, i
		}
	}
	return VerdictNone, -1
}

// notifyVerdict counts a rule decision on the shard that made it and
// forwards it to OnVerdict.
func (g *Gateway) notifyVerdict(sh *gwEngineShard, t FiveTuple, v Verdict, idx int) {
	if idx < 0 {
		return
	}
	sh.rules[idx].flows.Add(1)
	switch v {
	case VerdictAlert:
		sh.n[cVerdictAlerts].Add(1)
	case VerdictDrop:
		sh.n[cVerdictDrops].Add(1)
	case VerdictPass:
		sh.n[cVerdictPasses].Add(1)
	}
	if g.cfg.OnVerdict != nil {
		r := &g.cfg.Rules[idx]
		g.cfg.OnVerdict(FlowVerdict{Tuple: t, Verdict: v, RuleID: r.ID, RuleName: r.Name})
	}
}

// gwFlow is one connection's whole gateway-side state in one flat record:
// the scanner registers, the reassembly stream and the verdict, all by
// value. An established flow is this record plus its flow-table entry and
// nothing else — no scanner object, no closure, no match buffer: the lane
// that owns the flow's packets scans into its own scratch (gwLane.matches)
// and emits with the record's fields. What identifies the flow — its tuple,
// its shard, its gateway — is not repeated here; the lane passes it in. All
// methods run under the flow-table entry lock, so a gwFlow is effectively
// single-goroutine.
type gwFlow struct {
	// gen is the ruleset generation this flow is pinned to, taken at open
	// and held until the flow boundary (FIN/RST/eviction/quarantine/
	// close): every byte of the connection scans against one automaton,
	// whatever reloads happen mid-flow. Non-nil exactly while the record
	// holds a live connection's registers; nil when unpinned (drop/pass
	// verdict flows, husks). A SYN re-open pins the then-current
	// generation, because it is a new connection.
	gen *gwGeneration
	// st is the connection's scanner registers, stamped at open with the
	// generation of the automaton they were reset for — the tag the
	// hot-reload audit checks against gen. Meaningful only while gen is
	// non-nil.
	st engine.FlowState
	// asm reorders FlagSeq segments; initialized at open, so a record that
	// was never opened holds the zero Stream.
	asm     reassembly.Stream
	ruleIdx int32 // index into cfg.Rules; -1 when no rule matched
	verdict Verdict
	// notified: the connection's verdict event has been reported.
	notified bool
	// done marks a connection completed by FIN. The entry lingers as a
	// husk (TIME_WAIT, in spirit) so straggling retransmissions are
	// recognized and discarded instead of respawning the flow; a SYN
	// re-opens it, in place, as a new connection. An RST, by contrast,
	// removes the entry from the table immediately — a post-RST straggler
	// therefore starts a fresh flow (midstream pickup), like any unseen
	// tuple.
	done bool
	// quarantined marks a flow whose scan panicked. The entry lingers as a
	// husk like done's, discarding stragglers (counted) without touching
	// its registers, but a SYN does not re-open it: the tuple is inspected
	// again only after the husk is evicted or an RST removes it.
	quarantined bool
}

// gwLane is one stream lane's goroutine-owned working set. Every packet of
// a flow lands on the same lane, so the lane — not the flow — owns what a
// scan needs only while it runs.
type gwLane struct {
	g  *Gateway
	sh *gwEngineShard
	ls *laneState
	// matches is the scratch every flow on this lane scans into. It keeps
	// the capacity of the lane's most match-dense segment, so the memory
	// match buffers pin is bounded by lanes × worst segment, never by flows.
	matches []ac.Match
}

// open starts a connection on the record: it pins the current ruleset
// generation, resets the scanner registers for that generation's automaton
// (stamping them with its generation), counts the connection on sh — the
// flow's shard — and empties the reassembly stream. On a husk this re-opens
// in place — nothing is allocated. open only runs while the packet creating
// (or SYN-reopening) the flow is in flight, so cur cannot move underneath
// it — see gwGeneration.flows.
func (fl *gwFlow) open(g *Gateway, sh *gwEngineShard) {
	gen := g.cur.Load()
	gen.flows.Add(1)
	fl.gen = gen
	sh.n[cEngFlowsOpened].Add(1)
	fl.st.Open(gen.m.grouped)
	fl.asm.Init(&g.asmCfg)
}

// release ends whatever the record holds at a flow boundary, and is the
// flow-table eviction callback: the generation pin drops — when it was the
// last pin of a non-current generation, that generation is retired here, on
// the goroutine that ended the flow, so retirement needs no background
// sweeper — and buffered out-of-order bytes return to the shared budget,
// charged to the abandoned bucket of sh, the flow's shard: they were
// ingested but their flow is going away, so they will never be scanned.
// Idempotent: a husk holds neither, so finish → later eviction does not
// double-count.
func (fl *gwFlow) release(g *Gateway, sh *gwEngineShard) {
	if gen := fl.gen; gen != nil {
		fl.gen = nil
		if gen.flows.Add(-1) == 0 {
			g.maybeRetire(gen)
		}
	}
	if n := fl.asm.Release(); n > 0 {
		sh.n[cAbandonedBytes].Add(uint64(n))
	}
}

// scan writes one in-order chunk through the flow's registers into the
// lane's scratch and emits what it completed, attributed to the packet p
// and to the rule that admitted the flow.
func (fl *gwFlow) scan(ln *gwLane, p *seqPacket, chunk []byte) {
	g, sh, gen := ln.g, ln.sh, fl.gen
	ln.matches = fl.st.Write(gen.m.grouped, chunk, ln.matches[:0])
	sh.n[cEngStreamBytes].Add(uint64(len(chunk)))
	if len(ln.matches) == 0 {
		return
	}
	v, rid, idx := VerdictNone, -1, int(fl.ruleIdx)
	if idx >= 0 {
		v, rid = VerdictAlert, g.cfg.Rules[idx].ID
	}
	for _, am := range ln.matches {
		if idx >= 0 {
			sh.rules[idx].matches.Add(1)
		}
		sh.n[cMatches].Add(1)
		g.emit(FlowMatch{Tuple: p.tuple, Match: gen.m.convert(am, p.seq), Verdict: v, RuleID: rid})
	}
}

// ingest processes one segment on the lane that owns the flow. It reports
// whether the flow should be removed from the table right now (RST
// teardown).
//
// Byte accounting here is transactional: each bucket add happens only after
// the operation that consumed the bytes returned, so when a scan (or a
// user callback) panics mid-packet, none of that packet's bytes are
// committed and the quarantine path charges them in one place.
func (fl *gwFlow) ingest(ln *gwLane, p seqPacket, tick uint64) bool {
	g, sh := ln.g, ln.sh
	if !fl.notified {
		fl.notified = true
		g.notifyVerdict(sh, p.tuple, fl.verdict, int(fl.ruleIdx))
	}
	// RST tears the connection down whatever its verdict or husk state —
	// a dropped/passed or FIN-closed flow must not pin a table slot after
	// the endpoints abort it. An RST's own payload is never scanned:
	// abandoned, like the buffered bytes the release returns; the caller
	// removes the table entry.
	if p.flags&FlagRST != 0 {
		if !fl.done {
			sh.n[cFlowsReset].Add(1)
		}
		fl.release(g, sh)
		fl.done = true
		sh.n[cAbandonedBytes].Add(uint64(len(p.payload)))
		return true
	}
	if fl.quarantined {
		sh.n[cQuarantinedPackets].Add(1)
		sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		return false
	}
	switch fl.verdict {
	case VerdictDrop:
		sh.n[cDroppedBytes].Add(uint64(len(p.payload)))
		return false
	case VerdictPass:
		sh.n[cPassedBytes].Add(uint64(len(p.payload)))
		return false
	}
	if fl.done {
		if p.flags&FlagSYN == 0 {
			sh.n[cDuplicateBytes].Add(uint64(len(p.payload)))
			return false
		}
		// A SYN on a closed tuple is a new connection: the husk's registers
		// and reassembly positions are reset where they sit — and it gets
		// its own verdict event (the once-per-connection contract follows
		// connections, not table entries).
		fl.done = false
		fl.open(g, sh)
		g.notifyVerdict(sh, p.tuple, fl.verdict, int(fl.ruleIdx))
	}
	if p.gap > 0 {
		// Bytes shed at admission (see Gateway.pendingGaps) sit between
		// the flow's last scanned byte and this packet: invalidate scanner
		// state across them so no match spans bytes the scanner never saw,
		// keeping later offsets absolute in the true stream. Not a
		// reassembly gap — GapSkips is untouched; the shed bytes are
		// already in the Shed bucket.
		fl.st.SkipGap(p.gap)
	}
	if p.flags&FlagSeq == 0 {
		// Pre-reassembly semantics: the feed vouches for ordering and the
		// bytes append at the flow's current stream position.
		fl.scan(ln, &p, p.payload)
		sh.n[cScannedBytes].Add(uint64(len(p.payload)))
		if p.flags&FlagFIN != 0 {
			fl.finish(ln)
		}
		return false
	}
	// Explicit flag translation: the gateway and reassembly bit values
	// happen to coincide, but relying on that would let a renumbering in
	// either package silently misroute FIN/SYN. RST never reaches the
	// reassembler — it returned above.
	var rf reassembly.Flags
	if p.flags&FlagFIN != 0 {
		rf |= reassembly.FIN
	}
	if p.flags&FlagSYN != 0 {
		rf |= reassembly.SYN
	}
	res := fl.asm.Segment(p.seq32, p.payload, rf, tick,
		func(chunk []byte, skipped int) {
			fl.st.SkipGap(skipped)
			fl.scan(ln, &p, chunk)
		})
	sh.n[cReassembledBytes].Add(uint64(res.Delivered))
	sh.n[cScannedBytes].Add(uint64(res.Delivered))
	if res.Buffered > 0 {
		sh.n[cOutOfOrderSegs].Add(1)
	}
	if res.Duplicate > 0 {
		sh.n[cDuplicateBytes].Add(uint64(res.Duplicate))
	}
	if res.Dropped > 0 {
		sh.n[cReassemblyDrops].Add(uint64(res.Dropped))
	}
	if res.Skipped > 0 {
		sh.n[cGapSkips].Add(1)
		sh.n[cGapSkippedBytes].Add(uint64(res.Skipped))
	}
	if res.Abandoned > 0 {
		sh.n[cAbandonedBytes].Add(uint64(res.Abandoned))
	}
	if res.Event == reassembly.EventFinished {
		fl.finish(ln)
	}
	return false
}

// finish retires a FIN-completed connection: the generation pin and any
// buffered bytes are released immediately instead of waiting for table
// eviction; the husk entry stays behind to absorb stragglers.
func (fl *gwFlow) finish(ln *gwLane) {
	fl.release(ln.g, ln.sh)
	fl.done = true
	ln.sh.n[cFlowsFinished].Add(1)
}

// quarantine retires a flow whose scan panicked. The panic may have left
// its registers mid-update; nothing ever reads them again — a quarantined
// husk is not re-opened, and registers are never handed from one record to
// another. Buffered bytes are abandoned like any teardown. The entry stays
// in the table as a husk absorbing stragglers. The mark is set first so it
// holds even if the release below panics in turn.
func (fl *gwFlow) quarantine(ln *gwLane) {
	fl.quarantined = true
	fl.release(ln.g, ln.sh)
	fl.done = true
}

// contain is ingest under panic containment, run inside the flow's entry
// lock: a panic anywhere under the flow (a scanner bug, a hostile payload
// tripping an invariant, a user emit/OnVerdict callback) quarantines this
// record where it sits, before the lock is dropped, so no eviction can slip
// between the panic and the quarantine. The byte ledger stays exact: ingest
// commits transactionally, so none of the panicking packet's bytes are in a
// bucket yet, and the quarantine bucket is charged the packet's payload plus
// whatever buffered bytes the aborted delivery drained before blowing up —
// payload + held before − held now; the bytes still held land in the
// abandoned bucket via the quarantine's release.
func (fl *gwFlow) contain(ln *gwLane, p seqPacket, tick uint64) (remove bool) {
	held := fl.asm.HeldBytes()
	defer func() {
		if recover() == nil {
			return
		}
		remove = false
		sh := ln.sh
		sh.n[cPanics].Add(1)
		sh.n[cQuarantinedFlows].Add(1)
		sh.n[cQuarantinedPackets].Add(1)
		if delta := len(p.payload) + held - fl.asm.HeldBytes(); delta > 0 {
			sh.n[cQuarantinedBytes].Add(uint64(delta))
		}
		// The flow is already poisoned; if releasing it panics too, give up
		// on its resources but keep the gateway and the charge above intact.
		defer func() { _ = recover() }()
		fl.quarantine(ln)
	}()
	return fl.ingest(ln, p, tick)
}

// Ingest queues one packet. Under OverloadPolicy Block (the default) it
// blocks when the pipeline is saturated — the backpressure contract: a
// caller reading from a NIC or file cannot outrun the scan stages by more
// than the queue and burst buffers. Under a shedding policy it may drop the
// packet instead (fully accounted; see TryIngest to observe which). It
// returns an error only on a closed gateway.
func (g *Gateway) Ingest(pkt GatewayPacket) error {
	_, err := g.TryIngest(pkt)
	return err
}

// TryIngest is Ingest reporting the admission decision: admitted is false
// when the configured shedding policy dropped the packet (always true under
// Block). A shed packet still counts in Packets/Bytes — it reached the
// sensor — and its payload lands in the Shed ledger bucket; a shed in-order
// TCP segment additionally arms a scanner gap so the exactness contract
// holds over the bytes that were delivered.
func (g *Gateway) TryIngest(pkt GatewayPacket) (admitted bool, err error) {
	// The tuple hash drives every pinning decision (engine shard, stream
	// lane, flow-table shard), so it is computed once here, on the caller's
	// goroutine, and carried with the packet. Stateless packets on an
	// unsharded gateway never need it, except to answer ShedNewFlows'
	// flow-table probe.
	pol := g.cfg.OverloadPolicy
	tcp := pkt.Tuple.Proto == ProtoTCP
	var h uint64
	if tcp || len(g.shards) > 1 || pol == ShedNewFlows {
		h = pkt.Tuple.Hash64()
	}
	nshards := uint64(len(g.shards))
	sh := g.shards[h%nshards]
	sh.gate.RLock()
	defer sh.gate.RUnlock()
	if g.closed {
		return false, fmt.Errorf("%w: Ingest", ErrClosed)
	}
	seq := g.seq.Add(1) - 1
	sh.n[cBytes].Add(uint64(len(pkt.Payload)))
	p := seqPacket{tuple: pkt.Tuple, payload: pkt.Payload, seq: int(seq), hash: h, seq32: pkt.Seq, flags: pkt.Flags}
	if tcp && pkt.Flags&FlagSeq == 0 {
		// Claim any gap earlier sheds left for this flow, in admission
		// order. One atomic load until something has actually been shed.
		p.gap = g.takePendingGap(pkt.Tuple)
	}
	newFlow := false
	if pol == ShedNewFlows {
		// Established TCP connections keep today's backpressure — a flow
		// already under inspection is never starved mid-stream. Only
		// packets that would create state (unknown TCP tuples, stateless
		// traffic) are sheddable, so overload cannot grow the flow table.
		newFlow = !tcp || !g.table.Has(pkt.Tuple, h)
	}
	q := sh.burstQ
	var ls *laneState
	if tcp {
		// Dividing out the shard index decorrelates the lane choice from
		// the shard choice when their counts share factors; with one shard
		// it reduces to hash%lanes, the pre-sharding pinning.
		lane := (h / nshards) % uint64(len(sh.streamQ))
		q = sh.streamQ[lane]
		// Watchdog: raise the lane's depth before the (possibly blocking)
		// send, stamping progress on the empty→busy edge so a lane that
		// never dequeues shows its true stall age.
		ls = &sh.lanes[lane]
		if ls.depth.Add(1) == 1 {
			ls.lastProgress.Store(time.Now().UnixNano())
		}
	}
	// inflight is raised across the send so a concurrent Flush cannot
	// declare the shard drained while this packet may still slip in
	// (TryIngest holds the gate shared, Flush takes it exclusively).
	sh.inflight.Add(1)
	if pol == Block || (pol == ShedNewFlows && !newFlow) {
		q <- p
		return true, nil
	}
	// Shedding admission: try without waiting, then wait out the deadline.
	select {
	case q <- p:
		return true, nil
	default:
	}
	if d := g.cfg.IngestDeadline; d > 0 {
		t := time.NewTimer(d)
		select {
		case q <- p:
			t.Stop()
			return true, nil
		case <-t.C:
		}
	}
	sh.inflight.Add(-1)
	if ls != nil {
		ls.depth.Add(-1)
	}
	g.shed(sh, p, newFlow)
	return false, nil
}

// shed accounts one dropped packet and, for an in-order TCP segment, arms
// the flow's pending scanner gap. A shed FlagSeq segment needs no gap: in
// sequence space it is indistinguishable from a segment lost upstream, and
// the reassembler's GapTimeout already skips such holes with scanner
// invalidation.
func (g *Gateway) shed(sh *gwEngineShard, p seqPacket, newFlow bool) {
	sh.n[cShedPackets].Add(1)
	sh.n[cShedBytes].Add(uint64(len(p.payload)))
	if newFlow {
		sh.n[cShedNewFlows].Add(1)
	}
	if p.tuple.Proto == ProtoTCP && p.flags&FlagSeq == 0 && p.gap+len(p.payload) > 0 {
		// The shed packet's own bytes, plus any gap it had already claimed
		// at admission (which must not be lost with it).
		g.pendingMu.Lock()
		if g.pendingGaps == nil {
			g.pendingGaps = make(map[FiveTuple]int)
		}
		if _, ok := g.pendingGaps[p.tuple]; !ok {
			g.pendingN.Add(1)
		}
		g.pendingGaps[p.tuple] += p.gap + len(p.payload)
		g.pendingMu.Unlock()
	}
}

// takePendingGap consumes the flow's pending shed gap, if any. The atomic
// gate keeps the per-packet cost to one load until something is shed.
func (g *Gateway) takePendingGap(t FiveTuple) int {
	if g.pendingN.Load() == 0 {
		return 0
	}
	g.pendingMu.Lock()
	n, ok := g.pendingGaps[t]
	if ok {
		delete(g.pendingGaps, t)
	}
	g.pendingMu.Unlock()
	if ok {
		g.pendingN.Add(-1)
	}
	return n
}

// Flush blocks until every packet ingested before the call has been
// scanned (the queue is drained, partial bursts included), making Stats
// and EvictIdleFlows deterministic checkpoints. Flush serializes against
// Ingest: concurrent Ingest calls block until the flush completes, so the
// drain barrier cannot be raced past — Flush returns only at a true
// everything-scanned point.
func (g *Gateway) Flush() {
	g.lockAll()
	defer g.unlockAll()
	g.drainLocked()
}

// drainLocked spins until every admitted packet has been scanned. The
// caller holds every admission gate (lockAll), so no new packet can be
// admitted while it waits; the lanes and burst scanners consume whatever is
// queued (a burst scanner never waits for a burst to fill), so each shard's
// inflight reaches zero without outside help — and, with admission stopped,
// stays there, which makes waiting the shards out one after another a
// barrier over all of them.
func (g *Gateway) drainLocked() {
	for _, sh := range g.shards {
		for sh.inflight.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// SwapRules atomically installs a newer compiled matcher as the gateway's
// ruleset — the hot-reload control plane. The swap happens at a drained
// pipeline point (serialized against Ingest, Flush and Close exactly like
// Flush), which gives the two cutover guarantees for free:
//
//   - Stateless bursts cut over at a batch boundary: every burst admitted
//     before the swap is scanned with the old generation before the swap
//     completes; every burst after scans with the new one. No burst mixes
//     generations.
//   - Flows pin the generation they opened on. Existing flows keep
//     scanning against their pinned automaton until a flow boundary
//     (FIN/RST, idle or capacity eviction, quarantine, Close); new flows —
//     including SYN re-opens of finished connections — open on the new
//     generation. A match can therefore always be replayed exactly:
//     FindAll with the flow's pinned generation over its delivered bytes.
//
// The old generation retires (its matcher released) when its last pinned
// flow ends; SwapRules itself retires it immediately when no flow holds a
// pin.
//
// m must be strictly newer than the installed matcher: re-installing the
// current matcher or delivering an older compile (two reloaders racing)
// fails with ErrStaleGeneration and changes nothing. A nil m is
// ErrBadConfig; a closed gateway is ErrClosed. Shed policies, verdict
// rules and all sizing configuration are untouched by a swap.
func (g *Gateway) SwapRules(m *Matcher) error {
	if m == nil {
		return fmt.Errorf("%w: SwapRules with nil Matcher", ErrBadConfig)
	}
	g.lockAll()
	defer g.unlockAll()
	if g.closed {
		return fmt.Errorf("%w: SwapRules", ErrClosed)
	}
	g.drainLocked()
	old := g.cur.Load()
	if m.Generation() <= old.id {
		return fmt.Errorf("%w: matcher generation %d is not newer than installed generation %d",
			ErrStaleGeneration, m.Generation(), old.id)
	}
	gen := &gwGeneration{id: m.Generation(), m: m}
	g.genMu.Lock()
	g.gens = append(g.gens, gen)
	g.genMu.Unlock()
	g.cur.Store(gen)
	g.swaps.Add(1)
	g.gensInstall.Add(1)
	g.maybeRetire(old)
	return nil
}

// maybeRetire retires gen if it can no longer receive work: not the
// current generation, no pinned flows, not already retired. Safe to call
// optimistically — it is invoked from the last unpin of a generation and
// from SwapRules after a cutover, and exactly one caller wins: retirement
// is removal from the live list, under genMu. The counters a retired
// generation's flows produced stay where they were written — on the shards.
func (g *Gateway) maybeRetire(gen *gwGeneration) {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	if gen == g.cur.Load() || gen.flows.Load() != 0 {
		return
	}
	for i, other := range g.gens {
		if other == gen {
			g.gens = append(g.gens[:i], g.gens[i+1:]...)
			g.gensRetired.Add(1)
			return
		}
	}
}

// GenerationInfo is one live (non-retired) ruleset generation's view on
// Generations: its identity, how many flows hold a pin to it, and whether
// it is the current generation new flows open on. An old generation
// lingering with Flows > 0 is draining; Flows stuck above zero means some
// long-lived connection is pinning it (see OPERATIONS.md's reload
// runbook).
type GenerationInfo struct {
	Generation uint64 `json:"generation"`
	Flows      int64  `json:"flows"`
	Current    bool   `json:"current"`
}

// Generations snapshots every live generation in install order (the
// current generation is always last and always present). Retired
// generations do not appear — their retirement is visible on
// GatewayStats.GenerationsRetired.
func (g *Gateway) Generations() []GenerationInfo {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	cur := g.cur.Load()
	out := make([]GenerationInfo, 0, len(g.gens))
	for _, gen := range g.gens {
		out = append(out, GenerationInfo{Generation: gen.id, Flows: gen.flows.Load(), Current: gen == cur})
	}
	return out
}

// Generation reports the installed (current) ruleset generation — the
// Matcher.Generation new flows and stateless bursts scan with.
func (g *Gateway) Generation() uint64 { return g.cur.Load().id }

// IngestReader ingests framed packets from r until EOF (see WriteFrame for
// the frame format) and returns how many packets it ingested. Backpressure
// propagates to the reader: when the pipeline is saturated, reading pauses.
func (g *Gateway) IngestReader(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	n := 0
	for {
		pkt, err := ReadFrame(br, g.cfg.MaxFrameBytes)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := g.Ingest(pkt); err != nil {
			return n, err
		}
		n++
	}
}

// streamWorker owns one per-flow lane: every packet of a given flow lands
// on the same lane (hash-pinned at admission), so writes into the
// flow's scanner state are ordered without per-packet locking beyond the
// flow table's entry lock. After every packet — including one whose scan
// panicked and was contained — the lane stamps its watchdog progress.
func (g *Gateway) streamWorker(ln *gwLane, q <-chan seqPacket) {
	defer g.workerWg.Done()
	for p := range q {
		ln.streamPacket(p)
		ln.ls.depth.Add(-1)
		ln.ls.lastProgress.Store(time.Now().UnixNano())
	}
}

// streamPacket runs one packet through its flow. Panics under the flow are
// contained inside the entry lock (gwFlow.contain) and quarantine that one
// flow; the recover here catches only what runs outside an entry — flow
// construction, an eviction the lookup triggered — where there is no record
// to quarantine and none of the packet's bytes are committed yet, so the
// packet's payload is charged to the quarantine bucket and the gateway keeps
// running. inflight is decremented in the same defer chain so Flush cannot
// wedge on a packet that blew up.
func (ln *gwLane) streamPacket(p seqPacket) {
	g, sh := ln.g, ln.sh
	defer sh.inflight.Add(-1)
	defer func() {
		if recover() != nil {
			sh.n[cPanics].Add(1)
			sh.n[cQuarantinedPackets].Add(1)
			sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		}
	}()
	sh.n[cStreamPackets].Add(1)
	// The reassembly gap clock is the flow table's: gateway-wide stream
	// packets, the same logical clock IdleTimeout runs on. The lookup below
	// ticks it, so this packet's tick is at least the value read here plus
	// one — and strictly above the tick of the lane's previous packet, which
	// is all a flow (pinned to this lane) needs of it.
	tick := g.table.Clock() + 1
	var removeNow bool
	g.table.DoHashed(p.tuple, p.hash, func(fl *gwFlow) {
		removeNow = fl.contain(ln, p, tick)
	})
	if removeNow {
		// RST teardown: the same lane owns every packet of this flow,
		// so no concurrent Do on the tuple can interleave here.
		g.table.Remove(p.tuple)
	}
}

// burstScanner scans one shard's stateless bursts. The verdict stage runs
// per packet here (stateless traffic has no flow to remember a decision
// on): drop/pass packets never reach the scan, and matches on
// alert-admitted packets carry the rule attribution.
//
// The scanner forms its own bursts: it blocks for the first queued packet,
// then takes whatever else is already queued, up to BatchPackets (it is the
// queue's only receiver, so len(q) packets are there to take) — a partial
// burst is scanned the moment the queue goes idle. The burst buffer and the
// scan's working set are reused, so steady-state scanning does not allocate.
func (g *Gateway) burstScanner(sh *gwEngineShard) {
	defer g.workerWg.Done()
	// Batch-path panic containment: a panic scanning one burst payload is
	// recovered inside the worker goroutine that hit it (where it would
	// otherwise kill the process) and lands on this shard's block.
	st := burstState{contain: func(any) {
		sh.n[cPanics].Add(1)
		sh.n[cEngPanics].Add(1)
	}}
	batch := make([]seqPacket, 0, g.cfg.BatchPackets)
	q := sh.burstQ
	for p := range q {
		batch = append(batch[:0], p)
		for n := min(len(q), cap(batch)-1); n > 0; n-- {
			batch = append(batch, <-q)
		}
		g.scanBurst(sh, batch, &st)
	}
}

// burstState is one burst scanner's reusable working set, so steady-state
// batch scanning does not allocate per burst.
type burstState struct {
	contain  func(any) // the shard's batch-worker panic hook
	buf      [][]ac.Match
	kept     []seqPacket
	payloads [][]byte
	ruleIdx  []int
}

// scanBurst scans one stateless burst. Panics inside a payload's scan are
// contained per payload by the batch scan itself (burstState.contain);
// panics in this function — a user OnVerdict or emit callback — are
// contained here, with the batch's not-yet-committed bytes charged to the
// quarantine bucket so the ledger stays exact, and inflight decremented in
// the defer chain so Flush cannot wedge.
func (g *Gateway) scanBurst(sh *gwEngineShard, batch []seqPacket, st *burstState) {
	defer sh.inflight.Add(-int64(len(batch)))
	// One generation per burst, read once: the batch's packets hold
	// inflight until the deferred decrement above, and SwapRules only
	// moves cur at inflight zero, so cur is frozen for the whole burst —
	// the batch-boundary cutover guarantee.
	gen := g.cur.Load()
	var total, committed uint64
	for _, p := range batch {
		total += uint64(len(p.payload))
	}
	defer func() {
		if recover() != nil {
			sh.n[cPanics].Add(1)
			if total > committed {
				sh.n[cQuarantinedBytes].Add(total - committed)
				sh.n[cQuarantinedPackets].Add(1)
			}
		}
	}()
	sh.n[cBatches].Add(1)
	sh.n[cBatchPackets].Add(uint64(len(batch)))
	st.kept, st.payloads, st.ruleIdx = st.kept[:0], st.payloads[:0], st.ruleIdx[:0]
	var keptBytes uint64
	for _, p := range batch {
		v, idx := g.classify(p.tuple)
		g.notifyVerdict(sh, p.tuple, v, idx)
		switch v {
		case VerdictDrop:
			sh.n[cDroppedBytes].Add(uint64(len(p.payload)))
			committed += uint64(len(p.payload))
			continue
		case VerdictPass:
			sh.n[cPassedBytes].Add(uint64(len(p.payload)))
			committed += uint64(len(p.payload))
			continue
		}
		st.kept = append(st.kept, p)
		st.payloads = append(st.payloads, p.payload)
		st.ruleIdx = append(st.ruleIdx, idx)
		keptBytes += uint64(len(p.payload))
	}
	if len(st.kept) > 0 {
		sh.n[cEngBatches].Add(1)
		sh.n[cEngBatchPkts].Add(uint64(len(st.kept)))
		sh.n[cEngBatchBytes].Add(keptBytes)
		st.buf = engine.ScanBatch(gen.m.grouped, g.cfg.StreamWorkers, st.payloads, st.buf, st.contain)
		// Every payload was delivered to a scanner (a contained batch-worker
		// panic costs only that payload's matches), so the whole kept set
		// commits as scanned.
		sh.n[cScannedBytes].Add(keptBytes)
		committed += keptBytes
		for i, ms := range st.buf {
			v, rid := VerdictNone, -1
			if st.ruleIdx[i] >= 0 {
				v = VerdictAlert
				rid = g.cfg.Rules[st.ruleIdx[i]].ID
			}
			for _, am := range ms {
				if st.ruleIdx[i] >= 0 {
					sh.rules[st.ruleIdx[i]].matches.Add(1)
				}
				sh.n[cMatches].Add(1)
				g.emit(FlowMatch{Tuple: st.kept[i].tuple, Match: gen.m.convert(am, st.kept[i].seq), Verdict: v, RuleID: rid})
			}
		}
	}
}

// Close drains the pipeline: it stops accepting packets, waits for the
// scan stages to finish what is queued, and evicts every flow. Close is
// idempotent.
func (g *Gateway) Close() error {
	g.lockAll()
	wasClosed := g.closed
	g.closed = true
	g.unlockAll()
	if wasClosed {
		return nil
	}
	// closed was set with every gate held, so no TryIngest — the only
	// sender — is inside a channel operation and none can start one.
	for _, sh := range g.shards {
		close(sh.burstQ)
		for _, q := range sh.streamQ {
			close(q)
		}
	}
	g.workerWg.Wait()
	g.table.Close()
	return nil
}

// Backend reports the scan backend the current generation's lanes and
// burst scanners run (see Config.Backend). Matchers swapped in with a
// different Backend configuration change this value at the swap.
func (g *Gateway) Backend() string { return g.cur.Load().m.Backend() }

// ShardStats returns one scan-work snapshot per engine shard, in shard
// order — how the ingested traffic fanned out across the scan replicas.
// The counters belong to the shard, not to a ruleset generation, so they
// are monotone across ruleset swaps and generation retirement.
func (g *Gateway) ShardStats() []EngineStats {
	out := make([]EngineStats, len(g.shards))
	for s, sh := range g.shards {
		c := sh.counts()
		out[s] = EngineStats{
			Batches:     c[cEngBatches],
			BatchPkts:   c[cEngBatchPkts],
			BatchBytes:  c[cEngBatchBytes],
			FlowsOpened: c[cEngFlowsOpened],
			StreamBytes: c[cEngStreamBytes],
			Panics:      c[cEngPanics],
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

// EvictIdleFlows exhaustively evicts flows beyond the configured
// IdleTimeout (the pipeline also evicts opportunistically as packets
// arrive) and returns how many were evicted.
func (g *Gateway) EvictIdleFlows() int { return g.table.EvictIdle() }

// PanicsByShard returns the recovered-panic count per engine shard, in
// shard order — the dpi_panics_total{shard} series. A non-zero cell names
// the shard whose lane or burst scanner contained a panic.
func (g *Gateway) PanicsByShard() []uint64 {
	out := make([]uint64, len(g.shards))
	for i, sh := range g.shards {
		out[i] = sh.n[cPanics].Load()
	}
	return out
}

// LaneHealth is one stream lane's watchdog reading at the time of a Health
// call: its queued-or-in-flight depth (Ingest calls blocked on the full
// lane included) and how long ago it last completed a packet (or, for a
// lane that never started, was first handed one).
type LaneHealth struct {
	Shard   int           `json:"shard"`
	Lane    int           `json:"lane"`
	Depth   int64         `json:"depth"`
	Age     time.Duration `json:"age_ns"`
	Stalled bool          `json:"stalled"`
}

// GatewayHealth is a liveness snapshot: Healthy is false exactly when some
// lane holds work older than StallThreshold — a wedged scanner, a blocked
// emit callback, a deadlocked downstream consumer. Contained panics and
// quarantined flows do NOT unhealth the gateway (containment working is
// the healthy outcome); they are included so a /healthz probe can alert on
// their rate without scraping the full metrics surface.
type GatewayHealth struct {
	Healthy          bool         `json:"healthy"`
	Panics           uint64       `json:"panics"`
	QuarantinedFlows uint64       `json:"quarantined_flows"`
	BusyLanes        []LaneHealth `json:"busy_lanes,omitempty"`
}

// Health computes the watchdog snapshot on demand — there is no background
// watchdog goroutine, so detection is deterministic and costs nothing when
// nobody asks. Every lane currently holding work is reported; the stalled
// ones flip Healthy to false.
func (g *Gateway) Health() GatewayHealth {
	now := time.Now().UnixNano()
	h := GatewayHealth{Healthy: true}
	for si, sh := range g.shards {
		h.Panics += sh.n[cPanics].Load()
		h.QuarantinedFlows += sh.n[cQuarantinedFlows].Load()
		for li := range sh.lanes {
			ls := &sh.lanes[li]
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

// Stats returns a counter snapshot. It may be called while the gateway is
// running; counters are monotone but mutually unsynchronized. This is where
// each slot of the shards' counter blocks meets its public field.
func (g *Gateway) Stats() GatewayStats {
	ts := g.table.Stats()
	c := g.totals()
	g.genMu.Lock()
	live := len(g.gens)
	g.genMu.Unlock()
	return GatewayStats{
		EngineShards:  len(g.shards),
		Packets:       g.seq.Load(),
		Bytes:         c[cBytes],
		StreamPackets: c[cStreamPackets],
		BatchPackets:  c[cBatchPackets],
		Batches:       c[cBatches],
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
		BufferedBytes:    g.budget.Used(),
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

		FlowsLive:     ts.Live,
		FlowsCreated:  ts.Created,
		FlowsEvicted:  ts.EvictedCap + ts.EvictedIdle + ts.Removed,
		FlowsFinished: c[cFlowsFinished],
		FlowsReset:    c[cFlowsReset],

		Generation:           g.cur.Load().id,
		RulesetSwaps:         g.swaps.Load(),
		GenerationsInstalled: g.gensInstall.Load(),
		GenerationsRetired:   g.gensRetired.Load(),
		GenerationsLive:      live,
	}
}

// Frame format v2 for IngestReader/WriteFrame: a 23-byte big-endian header —
// Version(1)=2 SrcIP(4) DstIP(4) SrcPort(2) DstPort(2) Proto(1) Flags(1)
// Seq(4) PayloadLen(4) — followed by PayloadLen payload bytes. v2 extends
// the original 17-byte format with the leading version byte plus the TCP
// Flags/Seq fields that drive reassembly; v1 frames (which had no version
// byte) are no longer accepted — re-encode feeds with WriteFrame.
const (
	frameVersion   = 2
	frameHeaderLen = 23
)

// WriteFrame writes pkt in the gateway's frame format.
func WriteFrame(w io.Writer, pkt GatewayPacket) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = frameVersion
	binary.BigEndian.PutUint32(hdr[1:], pkt.Tuple.SrcIP)
	binary.BigEndian.PutUint32(hdr[5:], pkt.Tuple.DstIP)
	binary.BigEndian.PutUint16(hdr[9:], pkt.Tuple.SrcPort)
	binary.BigEndian.PutUint16(hdr[11:], pkt.Tuple.DstPort)
	hdr[13] = pkt.Tuple.Proto
	hdr[14] = byte(pkt.Flags)
	binary.BigEndian.PutUint32(hdr[15:], pkt.Seq)
	binary.BigEndian.PutUint32(hdr[19:], uint32(len(pkt.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt.Payload)
	return err
}

// ReadFrame reads one framed packet. It returns io.EOF cleanly at a frame
// boundary and io.ErrUnexpectedEOF on a truncated frame. Frames with an
// unknown version byte are rejected immediately; frames whose payload
// exceeds maxPayload are rejected without allocating.
func ReadFrame(r io.Reader, maxPayload int) (GatewayPacket, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return GatewayPacket{}, err // io.EOF here is a clean end of feed
	}
	if hdr[0] != frameVersion {
		return GatewayPacket{}, fmt.Errorf("dpi: unsupported frame version %d (want %d)", hdr[0], frameVersion)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return GatewayPacket{}, err
	}
	n := binary.BigEndian.Uint32(hdr[19:])
	if int64(n) > int64(maxPayload) {
		return GatewayPacket{}, fmt.Errorf("dpi: frame payload %d exceeds limit %d", n, maxPayload)
	}
	pkt := GatewayPacket{
		Tuple: FiveTuple{
			SrcIP:   binary.BigEndian.Uint32(hdr[1:]),
			DstIP:   binary.BigEndian.Uint32(hdr[5:]),
			SrcPort: binary.BigEndian.Uint16(hdr[9:]),
			DstPort: binary.BigEndian.Uint16(hdr[11:]),
			Proto:   hdr[13],
		},
		Flags: TCPFlags(hdr[14]),
		Seq:   binary.BigEndian.Uint32(hdr[15:]),
	}
	if n > 0 {
		pkt.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, pkt.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return GatewayPacket{}, err
		}
	}
	return pkt, nil
}
