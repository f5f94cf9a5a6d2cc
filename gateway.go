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
// blocks and fanning partitioned traffic across them (§IV.B), and
// GatewayConfig.EngineShards is the software analogue — M independent
// shards (each one state block: its lanes, admission gate, queue depths and
// counters) over the one immutable compiled automaton,
// with every flow and stateless packet pinned to a shard, and to one of its
// lanes, by the tuple hash. A lane owns the flows pinned to it — its own
// single-writer flow table, as each of the paper's engines owns the registers
// of the packet it holds — so a packet's bookkeeping lands
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
// internal/metrics) renders the gateway's accounting (gateway_stats.go) —
// GatewayStats, the flow-table snapshot, per-shard EngineStats and the
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
	// lanes and counters, so shards share nothing hot; on a NUMA machine
	// run one shard per node. All
	// ordering and accounting guarantees are per-gateway, unchanged:
	// per-flow packet order holds because a flow's shard and lane are both
	// functions of its tuple hash, nothing is dropped, and Flush drains
	// every shard. Default 1 (exactly the pre-sharding gateway).
	EngineShards int
	// QueueDepth bounds the queued packets per engine shard, split evenly
	// across its lanes: each lane queues ceil(QueueDepth/StreamWorkers), so
	// a shard holds at most QueueDepth rounded up to a multiple of
	// StreamWorkers, and nothing else queues. A full lane queue blocks
	// Ingest of the tuples pinned to it, which is the gateway's
	// backpressure. Default 256.
	QueueDepth int
	// StreamWorkers is the number of scan lanes per engine shard — the
	// shard's goroutines, all of them. Every tuple (TCP flow or stateless
	// sender) is pinned to one lane of its shard by hash, so per-tuple
	// packet order (and therefore cross-packet matching) is preserved while
	// distinct tuples scan in parallel. Default GOMAXPROCS — one lane per
	// available core.
	StreamWorkers int
	// MaxFlows caps live flow state. Every lane owns the flows pinned to it
	// and holds at most ceil(MaxFlows/lanes) of them, lanes being
	// EngineShards × StreamWorkers: past that, the lane evicts its oldest
	// husk (a connection ended by FIN or quarantine), and only when it holds
	// none its least-recently-active live flow, record and all. The live
	// count therefore stays under MaxFlows + lanes, and a lane that draws
	// more than its share of the tuples starts evicting before the gateway
	// as a whole holds MaxFlows. What a flow costs is in OPERATIONS.md
	// ("Sizing memory"). Default 65536; negative disables.
	MaxFlows int
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
	// MaxFlowBuffer caps one flow's buffered out-of-order bytes; under
	// pressure the bytes furthest from the delivery point are dropped
	// first. Default 256 KiB.
	MaxFlowBuffer int
	// MaxTotalBuffer caps buffered out-of-order bytes across all flows.
	// Default 16 MiB; negative disables the cap (held bytes are still
	// tracked for Stats.BufferedBytes).
	MaxTotalBuffer int
	// GapTimeout is how many stream packets (through the gateway, on the
	// flow's lane's clock — the same unit and skew as IdleTimeout) a flow
	// may stall on a missing segment
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
	if c.MaxFlows == 0 {
		c.MaxFlows = 1 << 16
	}
	if c.MaxFlows < 0 {
		c.MaxFlows = 0
	}
	if c.IdleTimeout < 0 {
		c.IdleTimeout = 0 // disabled
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

// Gateway is a two-stage ingestion front-end over one or more engine
// shards: admission, on the caller's goroutine, sends each packet straight
// to the bounded lane queue its tuple hash pins it to. A lane runs a TCP
// packet through its own 5-tuple flow table (header-rule verdict and TCP
// reassembly ahead of the flow's scanner registers) and scans a stateless
// packet whole, from start-of-packet registers, under a per-packet verdict.
//
//	Ingest ─▶ admission ─▶ shard[h%M].lane[(h/M)%K] ─┬─ TCP ──▶ verdict ─▶ reassembly ─▶ per-flow scan
//	           (hash)                                └─ other ▶ verdict ─▶ per-packet scan
//
// With EngineShards=1 (the default) this collapses to the single-shard
// pipeline. Ingest and TryIngest may be called from multiple
// goroutines; emit and OnVerdict are invoked concurrently (from the lanes)
// and must be safe for concurrent use. Close drains the pipeline and evicts
// every flow.
type Gateway struct {
	cfg  GatewayConfig
	emit func(FlowMatch)

	shards []*gwEngineShard
	asmCfg reassembly.Config // every flow's reassembly cursor runs under it

	// closed is guarded by the shards' admission gates: Ingest reads it
	// holding its packet's shard gate shared; Close writes it holding every
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

// gwEngineShard is one scan replica — the software string matching block —
// and the one owner of everything its goroutines touch: the hash-pinned
// lanes (each its queue, its depth and watchdog state, and the table of the
// flows pinned to it), the admission gate and the counter block. A
// packet pinned to this shard is accounted here and nowhere else, so shards
// share no written cache line on the packet path beyond Gateway.seq. What a
// shard scans *with* is not its state: a lane
// looks the matcher up through the flow's pinned generation, or through the
// current one for a stateless packet.
type gwEngineShard struct {
	lanes []*gwLane
	// rules holds the per-rule counters, indexed by the rule's position in
	// cfg.Rules (not its ID — IDs may be sparse). Fixed-size and allocated
	// at construction, so counting a verdict or an attributed match is one
	// predictable atomic add.
	rules []gwRuleCounters

	_ [64]byte // keeps the read-mostly header off the lines written per packet
	// gate orders admission against the control plane: Ingest holds it
	// shared across its send; Flush, SwapRules and Close hold every shard's
	// exclusively (Gateway.quiesce).
	gate sync.RWMutex
	// n is the shard's counter block; see gwCounter.
	n [numCounters]atomic.Uint64
	_ [64]byte // the next shard's header starts on its own line
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
	g := &Gateway{cfg: cfg, emit: emit, pendingGaps: make(map[FiveTuple]int)}
	// A negative MaxTotalBuffer disables the global cap but the budget is
	// still kept, with an effectively infinite limit, so Stats can always
	// report how many out-of-order bytes are held across flows.
	limit := cfg.MaxTotalBuffer
	if limit <= 0 {
		limit = math.MaxInt64
	}
	g.asmCfg = reassembly.Config{
		Policy:       cfg.OverlapPolicy,
		MaxFlowBytes: cfg.MaxFlowBuffer,
		Budget:       reassembly.NewBudget(limit),
		GapTimeout:   uint64(cfg.GapTimeout),
	}
	gen0 := &gwGeneration{id: m.Generation(), m: m}
	g.cur.Store(gen0)
	g.gens = []*gwGeneration{gen0}
	g.gensInstall.Store(1)
	lanes := cfg.EngineShards * cfg.StreamWorkers
	g.shards = make([]*gwEngineShard, cfg.EngineShards)
	for s := range g.shards {
		sh := &gwEngineShard{
			lanes: make([]*gwLane, cfg.StreamWorkers),
			rules: make([]gwRuleCounters, len(cfg.Rules)),
		}
		g.shards[s] = sh
		for w := range sh.lanes {
			ln := &gwLane{
				g: g, sh: sh,
				// QueueDepth split across the shard's lanes, rounded up.
				q: make(chan seqPacket, (cfg.QueueDepth+cfg.StreamWorkers-1)/cfg.StreamWorkers),
			}
			ln.table = flowtable.New(flowtable.Config[gwFlow]{
				New: func(k flowtable.Key) gwFlow {
					var fl gwFlow
					v, idx := g.classify(k)
					fl.verdict, fl.ruleIdx = v, int32(idx)
					if v == VerdictNone || v == VerdictAlert {
						fl.open(g, sh)
					}
					return fl
				},
				// The departing record is a copy of the entry's: releasing it
				// drops the pins and buffered bytes the flow held.
				Evict:     func(_ flowtable.Key, fl gwFlow) { fl.release(g, sh) },
				MaxFlows:  (cfg.MaxFlows + lanes - 1) / lanes,
				IdleTicks: uint64(cfg.IdleTimeout),
				Tick:      uint64(lanes),
			})
			sh.lanes[w] = ln
			g.workerWg.Add(1)
			go ln.run()
		}
	}
	return g, nil
}

// eachLane runs fn on every lane with the pipeline quiesced — the one way the
// control plane touches the lanes' flow tables: every lane is idle behind the
// drain barrier, so the caller is each table's only writer until resume.
func (g *Gateway) eachLane(fn func(*gwLane)) {
	g.quiesce()
	defer g.resume()
	for _, sh := range g.shards {
		for _, ln := range sh.lanes {
			fn(ln)
		}
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
	for _, sh := range g.shards {
		for _, ln := range sh.lanes {
			close(ln.q)
		}
	}
	g.workerWg.Wait()
	for _, sh := range g.shards {
		for _, ln := range sh.lanes {
			ln.table.Close()
			ln.publishFlows()
		}
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
