// Package dpi is a memory-compressed multi-pattern string matcher for deep
// packet inspection, reproducing Kennedy, Wang, Liu and Liu, "Ultra-High
// Throughput String Matching for Deep Packet Inspection" (DATE 2010).
//
// The matcher is an Aho-Corasick automaton using the move function (no fail
// pointers), so it consumes exactly one input byte per transition — worst
// case and average case are identical, which is what lets the hardware
// design guarantee wire-speed scanning. Memory is reduced by more than 96%
// through default transition pointers: the most commonly targeted states at
// depths 1, 2 and 3 are promoted into a 256-entry lookup table shared by
// all states, leaving each state with only the few pointers the table
// cannot reproduce.
//
// Six layers are exposed:
//
//   - Ruleset: fixed-string pattern sets — parse Snort-style content
//     strings, generate synthetic Snort-like sets, reduce while preserving
//     the length distribution.
//   - Matcher: the compressed software automaton — compile a Ruleset and
//     scan payloads at one transition per byte. Scanning runs behind a
//     backend seam (Config.Backend) with three peer implementations of one
//     contract, registered in one registry (reference, baked, prefiltered).
//     Config.Backend names the backend; BackendAuto (the empty default)
//     picks the fastest exact kernel the configuration compiles.
//     Config.Validate checks a configuration without compiling (Compile runs
//     it first) and wraps ErrBadConfig on failure. Every compiled Matcher
//     carries a process-unique monotone generation (Matcher.Generation)
//     identifying the ruleset version — the identity the gateway's
//     hot-reload pinning is built on. The baked flat kernel is the exact
//     stage: Compile flattens each machine into a two-tier program whose hot
//     near-root states (the start state, every depth-1 state, and the most
//     popular deeper states) are fast rows — the whole move row as a
//     256-bit bitmap over the depth-1 default row plus the few targets that
//     differ from it — while the long tail keeps the paper's compressed form
//     as 4-byte stored pointers plus the fixed default-transition lookup
//     table, probed through a fused two-character history register. The
//     prefiltered backend — the auto default, and the one production kernel
//     — stacks a two-stage pipeline on top: a tiny cache-resident lossy
//     automaton (collapsed alphabet, truncated patterns) skims clean bytes
//     and routes only suspect windows — with enough left context to catch
//     matches straddling the window edge — through the exact baked kernel.
//     The prefilter may raise false positives (wasted exact work) but
//     provably never false negatives: every compile proves the superset
//     contract structurally (part of core.Machine.Verify) and drops the
//     stage rather than ship a table that could miss, in which case auto
//     falls back to the baked kernel alone. The reference backend is the
//     slice-walking oracle itself. All three are byte-exact equivalent (same
//     states, same history, same match order — fuzz- and property-verified
//     in register-level lockstep) and inspectable through Matcher.Kernel,
//     which reports the active backend, kernel layout and the prefilter's
//     skim/suspect-rate counters. This invariant is load-bearing: ScanAppend
//     (and every API above it) must behave exactly like the reference
//     transition on all inputs, including mid-stream resets and reassembly
//     gap skips.
//   - Stream: the one streaming handle, mirroring the hardware's
//     engines-over-one-memory parallelism — Matcher.NewStream gives each
//     concurrent flow its own scanner registers (Write, WritePacket, Reset,
//     SkipGap) while every stream, and every goroutine calling FindAll,
//     shares the compiled immutable automaton without a lock.
//   - Gateway: the NIDS front-end the paper deploys, started with
//     NewGateway(matcher, config, emit) — pipelined packet
//     ingestion (Ingest or TryIngest per packet, ReplayPcap per capture
//     file) in two stages: admission hashes the tuple
//     on the caller's goroutine and sends the packet straight to the
//     bounded queue of the lane it pins to, whose fullness is the
//     backpressure contract. The scan back-end is replicated like the
//     paper's block arrays: EngineShards × StreamWorkers lanes over the
//     one compiled automaton, every flow and stateless packet pinned to
//     lane h % lanes by its tuple hash h — each lane one state block
//     (gate, queue, flow table, counters) sharing nothing hot with its
//     neighbours, the lane count invisible in results and accounting,
//     observable through LaneStats. There is one kind of lane: it scans
//     a non-TCP packet whole, in place, under a per-packet verdict, and demultiplexes a TCP
//     packet through its own 5-tuple flow table into per-flow scanner
//     state, so one tuple's packets — segments or datagrams — are always
//     scanned in ingest order. Every TCP segment carries its sequence
//     number (FlagSeq; one without it is refused with ErrBadPacket) and
//     passes through TCP reassembly first (configurable overlap policy,
//     bounded buffering, gap timeout/skip — a segment shed under overload
//     is one more hole — SYN/FIN/RST lifecycle), so
//     matches spanning segment boundaries survive demultiplexing even when
//     segments arrive out of order, overlapping or retransmitted. Header
//     rules (VerdictRule) classify each flow's 5-tuple before any payload
//     byte is scanned — pass exempts, drop discards unscanned, alert tags
//     every match with the admitting rule — with the decision reported
//     through OnVerdict before any match from that flow. Flow state is
//     flat and bounded: a connection is one record holding its scanner
//     registers, reassembly cursor and verdict by value behind its table
//     entry; a FIN releases the flow's buffers and ruleset pin
//     immediately and leaves only a 20 B husk of its tuple to absorb
//     stragglers (a SYN revives the tuple as a new connection), an RST
//     tears the flow down, least-recently-active entries are evicted when
//     a lane outgrows its share of MemoryBudget — husks first — and after
//     IdleTimeout logical ticks (time measured in packets), and an
//     evicted-then-recreated flow always starts from clean state.
//     Rulesets hot-reload without a restart: Gateway.SwapRules installs
//     a newly compiled Matcher atomically behind the ingest drain
//     barrier — new flows and stateless packets scan with the new
//     generation immediately, flows opened earlier stay pinned to their
//     birth generation until they end (no connection ever sees two
//     rulesets), and a generation's automaton is retired when its last
//     pinned flow closes (GatewayStats and Gateway.Generations account
//     for every install and retirement). Swaps only move forward:
//     installing an older compile fails with ErrStaleGeneration. The
//     package's error seam is three wrapped sentinels usable with
//     errors.Is — ErrBadConfig (rejected configuration or ruleset),
//     ErrClosed (use after Gateway.Close), ErrStaleGeneration.
//   - Capture: the ingestion edge — internal/capture reads classic
//     libpcap files (both endiannesses, microsecond and nanosecond
//     timestamps) and translates Ethernet/IPv4 frames (VLAN tags, IPv4
//     options, snap truncation) into the gateway's packet model, carrying
//     TCP sequence numbers and SYN/FIN/RST flags through so reassembly
//     and flow lifecycle see real wire semantics. Gateway.ReplayPcap is
//     the one-call seam: a capture file in, verdicts and matches out,
//     with ReplayStats accounting for every frame skipped and why.
//     Committed corpora under testdata/pcap/ carry their own ground
//     truth (internal/capture/corpus) and gate CI end to end.
//   - Observability: Gateway.Metrics() renders every counter the
//     pipeline already keeps — gateway totals, per-lane counters,
//     flow-table occupancy and evictions, reassembly buffer pressure,
//     per-rule verdict and match counts — in the Prometheus text
//     exposition format (internal/metrics, dependency-free). It is an
//     http.Handler; mount it at /metrics. A scrape reads the lanes'
//     counter blocks and never touches the packet hot path.
//     OPERATIONS.md documents every series.
//
// This package is the software sensor only. The functional model of the
// paper's FPGA design — packed 324-bit memory images, 6-engine string
// matching blocks, multi-block scan-out with throughput, resource and power
// reporting for the Cyclone III and Stratix III targets — is package
// repro/fpga, built from a Matcher with fpga.New. The paper's split of a
// large ruleset into groups, one per block, so each machine fits a block's
// state memory, is that model's too (fpga.New's groups argument): a Matcher
// is one automaton at any ruleset size.
//
// Match ordering is canonical everywhere: FindAll and Scan order by
// (End, PatternID) — the automaton's own emission order, nothing sorts —
// and Stream emits that same sequence incrementally (a match surfaces in
// the chunk holding its final byte); fpga's Accelerator.ScanPackets orders
// by (PacketID, End, PatternID).
//
// Quickstart:
//
//	rs := dpi.NewRuleset()
//	rs.MustAdd("web-phf", []byte("/cgi-bin/phf"))
//	rs.MustAdd("nop-sled", []byte{0x90, 0x90, 0x90, 0x90})
//	m, err := dpi.Compile(rs, dpi.Config{})
//	if err != nil { ... }
//	for _, match := range m.FindAll(payload) {
//	    fmt.Printf("rule %s at [%d,%d)\n", rs.Name(match.PatternID), match.Start, match.End)
//	}
//
// ARCHITECTURE.md walks the packet lifecycle and names the test that
// enforces each invariant; OPERATIONS.md documents the metrics surface;
// README.md covers the backends and the tooling. cmd/dpibench
// regenerates the paper's evaluation section (dpibench -all); the bench
// directory measures the sensor's throughput inside the whole pipeline (go
// run ./bench); examples/sensor is the complete capture-to-verdict edge in
// one binary and replays the committed capture corpora.
package dpi
