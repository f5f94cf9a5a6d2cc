package dpi

// The gateway layer turns the library into the NIDS front-end the paper
// deploys (§I): packets arrive tagged with their 5-tuple, are demultiplexed
// into per-connection streams, and every payload byte flows through the
// shared compressed automaton at one transition per byte. The software
// pipeline mirrors the hardware's structure in two stages — admission
// partitions traffic by tuple hash on the caller's goroutine, and each
// lane's bounded queue plays the role of an engine's input FIFO: every
// packet is pinned to a lane by tuple hash, so each connection's scanner
// registers see its bytes in order, exactly as a hardware engine owns a
// packet stream, and a stateless packet is scanned whole, in place, by the
// lane it lands on — one kind of engine, as in the paper's block (§IV.B).
// Nothing sits between the partitioner and a lane.
//
// The scan back-end replicates like the hardware does: the paper's device
// reaches its throughput by instantiating many identical string matching
// blocks and fanning partitioned traffic across them (§IV.B), and the lane
// is the software analogue: EngineShards × StreamWorkers lanes over the one
// immutable compiled automaton, with every flow and stateless packet pinned
// to lane h % lanes by its tuple hash h. A lane owns everything its packets
// touch — its admission gate, its queue, its own single-writer flow table
// (as each of the paper's engines owns the registers of the packet it
// holds), its share of the memory budget and its counter block. Beyond its
// lane a packet writes only the ingest sequence number and a generation's
// pin count when its connection opens or ends. Every read surface (Stats,
// LaneStats, Health, the Flush barrier) is one walk over the lanes. The lane
// count is invisible in results and accounting; LaneStats exposes the fan-out.
//
// Two stages sit between a lane and the scanner, completing the NIDS model:
//
//   - TCP reassembly (internal/reassembly): every TCP segment carries its
//     sequence number (FlagSeq) and is reordered into the connection's
//     contiguous byte stream before scanning, with a configurable overlap
//     policy, bounded buffering, and a gap timeout so loss — upstream or
//     shed at admission — cannot wedge a flow. This closes the
//     segmentation-evasion hole: a signature split or shuffled across
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
// internal/metrics) renders the gateway's accounting (gateway_stats.go) —
// GatewayStats, the flow-table snapshot, each lane's own counters and the
// per-rule counters — as a Prometheus text exposition via Gateway.Metrics.
// Both seams are read-only over state the pipeline already maintains: the
// hot path has no capture- or metrics-specific branches, and the per-rule
// counters are position-indexed atomics bumped where the verdict and match
// decisions already happen.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// which marks the Seq field as meaningful and is required on every TCP
// packet: the gateway places a segment's bytes by its sequence number
// alone.
type TCPFlags uint8

const (
	FlagFIN TCPFlags = 1 << 0 // connection finished after this segment
	FlagSYN TCPFlags = 1 << 1 // connection start; Seq is the ISN
	FlagRST TCPFlags = 1 << 2 // abort: tear the flow down immediately
	// FlagSeq marks Seq as valid. Required on every TCP packet; TryIngest
	// refuses one without it (ErrBadPacket).
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
// 5-tuple and, for TCP segments, the sequence number and control flags
// driving reassembly and connection lifecycle. The Gateway takes ownership
// of Payload; callers that reuse buffers must copy first.
type GatewayPacket struct {
	Tuple FiveTuple
	// Seq is the TCP sequence number of Payload[0] (of the SYN itself on a
	// SYN segment), vouched for by FlagSeq. Ignored for other protocols.
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

// FlowMatch is a match attributed to a flow. For TCP packets, Start/End
// are offsets into the flow's reassembled byte stream
// and PacketID is the ingest sequence number of the packet whose bytes
// completed the match — for a match completed by buffered out-of-order
// bytes, that is the packet whose arrival released those bytes. For
// stateless packets, Start/End are offsets into that packet's payload
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
	// IngestDeadline. A shed TCP segment is a reassembly hole: the flow
	// holds what follows until GapTimeout skips the hole, invalidating the
	// scanner across the unseen bytes, so no match can span a shed packet
	// and matches over delivered bytes stay oracle-exact.
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
	// EngineShards multiplies the lane count: the gateway runs EngineShards ×
	// StreamWorkers lanes over the one shared compiled automaton — the
	// software analogue of the paper's replicated string matching blocks
	// fed by partitioned traffic. Default 1.
	EngineShards int
	// QueueDepth bounds the queued packets, split evenly across the lanes:
	// each lane queues ceil(QueueDepth/lanes), so the gateway holds at most
	// QueueDepth rounded up to a multiple of the lane count, and nothing
	// else queues. A full lane queue blocks Ingest of the tuples pinned to
	// it, which is the gateway's backpressure. Default 256.
	QueueDepth int
	// StreamWorkers is the lane count before EngineShards multiplies it: the
	// gateway's goroutines, all of them, are its EngineShards × StreamWorkers
	// lanes. Every tuple (TCP flow or stateless sender) is pinned to one lane,
	// its hash modulo the lane count, so per-tuple packet order (and
	// therefore cross-packet matching) is preserved while distinct tuples
	// scan in parallel. Default GOMAXPROCS — one lane per available core.
	StreamWorkers int
	// MemoryBudget caps, in bytes, what flows are charged. Every lane owns the
	// flows pinned to it and a share of ceil(MemoryBudget/lanes), lanes being
	// EngineShards × StreamWorkers, charged 64 B a connection, 32 B a husk (a
	// connection ended by FIN or quarantine) and its held out-of-order
	// segments at what stays resident plus 32 B each: under FirstWins a
	// segment longer than the ruleset's longest pattern is folded to that
	// many bytes, its end registers and 8 B per later match (OPERATIONS.md,
	// "What the budget buys"). A segment that does not fit what the connections
	// leave drops its bytes furthest ahead; after each packet a lane over
	// its share evicts its oldest husk, or with none its least-recently-
	// active connection but the packet's own. Index slots and the slab
	// chunks a lane keeps at its peak are outside the share: a default
	// gateway full of husks holds up to about 43 MiB (OPERATIONS.md, "What
	// the budget buys"). Default 32 MiB; negative means unlimited.
	MemoryBudget int
	// IdleTimeout evicts a flow after this many stream packets pass through
	// the gateway without it seeing one (a logical clock, deterministic and
	// load-proportional — a line-rate gateway experiences time in packets).
	// Each lane keeps the clock for its own flows, advancing it by the lane
	// count per stream packet it handles: with one lane, or traffic spread
	// evenly over several, that is exactly gateway-wide packets; a lane
	// drawing less than its share ages its flows proportionally more slowly,
	// and an idle lane not at all (EvictIdleFlows judges by the same clocks).
	// 0 or negative disables idle eviction; NewGateway rejects 2³¹ and
	// above, since a table entry keeps only the low 32 bits of its clock.
	IdleTimeout int

	// OverlapPolicy resolves overlapping TCP segments in the reassembly
	// buffer. Default FirstWins.
	OverlapPolicy OverlapPolicy
	// MaxFlowBuffer caps one flow's buffered out-of-order bytes, charged as
	// MemoryBudget charges them; under pressure the bytes furthest from the
	// delivery point are dropped first. Default 256 KiB.
	MaxFlowBuffer int
	// GapTimeout is how many stream packets (through the gateway, on the
	// flow's lane's clock — the same unit and skew as IdleTimeout) a flow
	// may stall on a missing segment
	// before the gap is skipped: scanner state is invalidated across the
	// unseen bytes and scanning resumes at the first buffered byte, so a
	// single lost segment, upstream or shed at admission, cannot wedge a
	// flow. Default 4096; negative disables skipping.
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
	// StallThreshold is the lane-watchdog trigger: a lane with queued or
	// in-flight work whose last progress is older than this is reported
	// stalled by Health (and /healthz turns 503). Default 5s.
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.StreamWorkers <= 0 {
		c.StreamWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 32 << 20
	}
	if c.IdleTimeout < 0 {
		c.IdleTimeout = 0 // disabled
	}
	if c.MaxFlowBuffer <= 0 {
		c.MaxFlowBuffer = 256 << 10
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

// Gateway is a two-stage ingestion front-end over EngineShards ×
// StreamWorkers lanes: admission, on the caller's goroutine, sends each
// packet straight to the bounded lane queue its tuple hash pins it to. A
// lane runs a TCP packet through its own 5-tuple flow table (header-rule
// verdict and TCP reassembly ahead of the flow's scanner registers) and
// scans a stateless packet whole, from start-of-packet registers, under a
// per-packet verdict.
//
//	Ingest ─▶ admission ─▶ lane[h % lanes] ─┬─ TCP ──▶ verdict ─▶ reassembly ─▶ per-flow scan
//	           (hash)                       └─ other ▶ verdict ─▶ per-packet scan
//
// Ingest and TryIngest may be called from multiple goroutines; emit and
// OnVerdict are invoked concurrently (from the lanes) and must be safe for
// concurrent use. Close drains the pipeline and evicts every flow.
type Gateway struct {
	cfg  GatewayConfig
	emit func(FlowMatch)

	// lanes are EngineShards × StreamWorkers; a tuple's is laneOf's.
	lanes []*gwLane

	// closed is guarded by the lanes' admission gates: Ingest reads it
	// holding its packet's lane gate shared; Close writes it holding every
	// gate exclusively (see quiesce).
	closed bool

	// Ruleset generations — the hot-reload control plane. cur is the
	// generation new flows pin to and stateless packets scan with; it only
	// changes inside SwapRules, at a drained point (every gate held
	// exclusively, every queue's depth zero), so everything processing a
	// packet sees a frozen cur. gens lists every non-retired generation in
	// install order, guarded by genMu.
	cur         atomic.Pointer[gwGeneration]
	genMu       sync.Mutex
	gens        []*gwGeneration
	swaps       atomic.Uint64
	gensInstall atomic.Uint64
	gensRetired atomic.Uint64

	workerWg sync.WaitGroup

	// seq numbers ingested packets (FlowMatch.PacketID) — the one
	// gateway-wide write every packet makes. Every other per-packet counter
	// lives on the owning lane's block (gwLane.n).
	seq atomic.Uint64
}

// NewGateway starts a pipelined ingestion front-end scanning with m. emit
// receives every match and must be safe for concurrent use. The returned
// Gateway is running; feed it with Ingest, TryIngest or ReplayPcap and
// Close it to drain. Nil arguments and an IdleTimeout of 2³¹ or more are
// rejected with a wrapped ErrBadConfig instead of a later panic.
func NewGateway(m *Matcher, cfg GatewayConfig, emit func(FlowMatch)) (*Gateway, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: NewGateway with nil Matcher", ErrBadConfig)
	}
	if emit == nil {
		return nil, fmt.Errorf("%w: NewGateway with nil emit callback", ErrBadConfig)
	}
	if int64(cfg.IdleTimeout) >= 1<<31 {
		return nil, fmt.Errorf("%w: IdleTimeout %d is not below 2^31", ErrBadConfig, cfg.IdleTimeout)
	}
	cfg = cfg.withDefaults()
	g := &Gateway{cfg: cfg, emit: emit}
	gen0 := &gwGeneration{id: m.Generation(), m: m}
	g.cur.Store(gen0)
	g.gens = []*gwGeneration{gen0}
	g.gensInstall.Store(1)
	lanes := cfg.EngineShards * cfg.StreamWorkers
	// An unlimited budget is still kept, so Stats can report what is held.
	share := math.MaxInt
	if cfg.MemoryBudget > 0 {
		share = (cfg.MemoryBudget-1)/lanes + 1 // ceil, without overflow
	}
	g.lanes = make([]*gwLane, lanes)
	for i := range g.lanes {
		ln := &gwLane{
			g: g,
			// QueueDepth split across the lanes, rounded up.
			q:     make(chan seqPacket, (cfg.QueueDepth+lanes-1)/lanes),
			rules: make([]gwRuleCounters, len(cfg.Rules)),
			share: share,
			asm: reassembly.Config{
				Policy:       cfg.OverlapPolicy,
				MaxFlowBytes: cfg.MaxFlowBuffer,
				Budget:       reassembly.NewBudget(share),
				GapTimeout:   uint64(cfg.GapTimeout),
			},
		}
		ln.table = flowtable.New(flowtable.Config[gwFlow]{
			New: func(k flowtable.Key) gwFlow {
				var fl gwFlow
				fl.open(ln, g.classify(k))
				ln.asm.Budget.Charge(connEntry)
				return fl
			},
			// The departing record is a copy of the entry's: the entry's
			// charge returns, and releasing the record drops what it held.
			Evict: func(_ flowtable.Key, fl gwFlow) {
				ln.asm.Budget.Charge(-connEntry)
				fl.release(ln)
			},
			IdleTicks: uint64(cfg.IdleTimeout),
			Tick:      uint64(lanes),
		})
		g.lanes[i] = ln
		g.workerWg.Add(1)
		go ln.run()
	}
	return g, nil
}

// eachLane runs fn on every lane with the pipeline quiesced — the one way the
// control plane touches the lanes' flow tables: every lane is idle behind the
// drain barrier, so the caller is each table's only writer until resume.
func (g *Gateway) eachLane(fn func(*gwLane)) {
	g.quiesce()
	defer g.resume()
	for _, ln := range g.lanes {
		fn(ln)
	}
}

// Close drains the pipeline: it stops accepting packets, waits for the
// scan stages to finish what is queued, and evicts every flow. Close is
// idempotent.
func (g *Gateway) Close() error {
	g.quiesce()
	defer g.resume()
	if g.closed {
		return nil
	}
	g.closed = true
	// Every gate is held and every queue is drained, so no TryIngest — the
	// only sender — is inside a channel operation and none can start one.
	for _, ln := range g.lanes {
		close(ln.q)
	}
	g.workerWg.Wait()
	for _, ln := range g.lanes {
		ln.table.Close()
		ln.publishFlows()
	}
	return nil
}

// EvictIdleFlows exhaustively evicts flows beyond the configured
// IdleTimeout (the pipeline also evicts opportunistically as packets
// arrive) and returns how many were evicted. Like Flush it drains the
// pipeline first and holds Ingest off meanwhile.
func (g *Gateway) EvictIdleFlows() int {
	n := 0
	g.eachLane(func(ln *gwLane) {
		n += ln.table.EvictIdle()
		ln.publishFlows()
	})
	return n
}
