package dpi

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/engine"
)

// Engine scans many packets and flows concurrently over one compiled
// Matcher, the software mirror of the paper's hardware parallelism: 6
// engines per string matching block and multiple blocks per device all
// read the same block memory (§IV.B). Here every worker and every flow
// shares the Matcher's immutable automaton and carries only its own
// scanner registers (current state plus 2-byte history) as plain data —
// a few dozen bytes a flow record holds by value — so concurrency costs
// per-lane registers, never per-lane automata, objects or buffers.
//
// An Engine is safe for concurrent use: ScanPackets may be called from
// many goroutines at once and flows may be opened and written
// concurrently. Each individual Flow is single-goroutine, like the socket
// it shadows.
//
// Stats is the engine's observability seam: every counter in
// EngineStats is an atomic the workers already bump, so a snapshot is
// wait-free and safe while scans run. A Gateway does not run on Engines —
// its shards scan over the Matcher directly and keep the same counters in
// their own state blocks — but it reports each shard's scan work in this
// shape through ShardStats, which is what the
// dpi_engine_*_total{shard="i"} series on Gateway.Metrics render.
type Engine struct {
	m   *Matcher
	eng *engine.Engine
}

// NewEngine returns an engine with the given batch worker-pool size.
// workers <= 0 selects one worker per available core (GOMAXPROCS).
func (m *Matcher) NewEngine(workers int) *Engine {
	return &Engine{m: m, eng: engine.New(m.grouped, workers)}
}

// Workers returns the batch worker-pool size.
func (e *Engine) Workers() int { return e.eng.Workers() }

// Matcher returns the compiled matcher the engine scans with.
func (e *Engine) Matcher() *Matcher { return e.m }

// Backend reports the scan backend every worker lane and flow in this
// engine runs (see Config.Backend).
func (e *Engine) Backend() string { return e.eng.Backend() }

// Generation reports the compile generation of the matcher this engine
// scans with (Matcher.Generation) — every flow the engine opens is stamped
// with it.
func (e *Engine) Generation() uint64 { return e.m.Generation() }

// EngineStats is a point-in-time snapshot of one scan replica's work — an
// Engine's, or one gateway shard's — split by its two usage shapes (batch
// scans and streaming flows). A sharded Gateway exposes one per shard
// through ShardStats, making the traffic fan-out across shards observable.
type EngineStats struct {
	Batches     uint64 // ScanPackets batches handed to the worker pool (a gateway shard: one per datagram)
	BatchPkts   uint64 // payloads scanned across those batches
	BatchBytes  uint64 // payload bytes scanned in batch mode
	FlowsOpened uint64 // flows opened, once per connection (a gateway's SYN re-open included)
	StreamBytes uint64 // bytes written through flows
}

// Stats returns this engine's work counters. Counters are monotone but
// mutually unsynchronized.
func (e *Engine) Stats() EngineStats {
	s := e.eng.Stats()
	return EngineStats{
		Batches:     s.Batches,
		BatchPkts:   s.BatchPkts,
		BatchBytes:  s.BatchBytes,
		FlowsOpened: s.FlowsOpened,
		StreamBytes: s.StreamBytes,
	}
}

// ScanPackets scans each payload as an independent packet, sharding the
// batch across the worker pool, and returns all matches in canonical order:
// ascending PacketID, then (End, PatternID). The matches for packet i are
// exactly FindAll(payloads[i]) with PacketID set to i — the same guarantee
// (and the same order) as Accelerator.ScanPackets.
func (e *Engine) ScanPackets(payloads [][]byte) []Match {
	per := e.eng.ScanPackets(payloads)
	total := 0
	for _, ms := range per {
		total += len(ms)
	}
	out := make([]Match, 0, total)
	for pid, ms := range per {
		for _, am := range ms {
			out = append(out, e.m.convert(am, pid))
		}
	}
	return out
}

// Flow is a streaming scan bound to one concurrent stream: it has the
// Stream API (io.Writer, Reset, Consumed) and counts its work in the
// engine's Stats. A Flow is one allocation — the scanner registers live in
// the handle itself — so opening and closing flows at connection rate costs
// the allocator one object per connection. Close must be called when the
// flow ends; a Flow is not safe for concurrent use.
type Flow struct {
	e    *Engine
	st   engine.FlowState
	buf  []ac.Match // per-chunk match buffer, reused across Writes
	emit func(Match)
	open bool
}

// Flow opens a new per-flow scan that calls emit for every match. Matches
// found within one Write are emitted sorted by (End, PatternID) with
// offsets relative to the start of the flow; as with Stream, the emission
// sequence across Writes equals FindAll of the concatenated stream.
func (e *Engine) Flow(emit func(Match)) *Flow {
	f := &Flow{e: e, emit: emit, open: true}
	e.eng.Open(&f.st)
	return f
}

// Write consumes the next chunk of the flow's payload. It implements
// io.Writer and never fails while the flow is open; writing to a closed
// flow returns an error. Emitted matches carry PacketID -1; use
// WritePacket to attribute matches to an ingest sequence number.
func (f *Flow) Write(p []byte) (int, error) {
	return f.WritePacket(p, -1)
}

// WritePacket is Write with match attribution: matches whose final byte
// lies in p are emitted with PacketID set to packetID. A demultiplexer
// feeding reassembled segments through per-flow state uses this to report
// which ingested packet completed a (possibly cross-packet) match, while
// Start/End stay flow-relative.
func (f *Flow) WritePacket(p []byte, packetID int) (int, error) {
	if !f.open {
		return 0, fmt.Errorf("dpi: write to closed Flow")
	}
	f.buf = f.e.eng.Write(&f.st, p, ac.RecycleMatches(f.buf))
	for _, am := range f.buf {
		f.emit(f.e.m.convert(am, packetID))
	}
	return len(p), nil
}

// Reset rewinds the flow to start-of-packet: automaton states and the
// 2-byte histories are cleared, and offsets restart at zero.
func (f *Flow) Reset() {
	if f.open {
		f.st.Reset()
	}
}

// SkipGap advances the flow position by n bytes that were never seen (a
// TCP reassembly gap skipped on loss): scanner registers are invalidated —
// a match cannot span unseen bytes — but offsets of later matches remain
// absolute in the flow's true byte stream. The Gateway does the same to a
// flow whose gap timeout expires.
func (f *Flow) SkipGap(n int) {
	if f.open {
		f.st.SkipGap(n)
	}
}

// Consumed returns the bytes scanned since the flow was opened or Reset.
func (f *Flow) Consumed() int {
	if !f.open {
		return 0
	}
	return f.st.Consumed()
}

// Generation reports the compile generation of the scanner state backing
// this flow (zero once closed). It always equals the
// generation of the matcher whose engine opened the flow — the hot-reload
// oracle audits exactly that tag on the gateway's flow records.
func (f *Flow) Generation() uint64 {
	if !f.open {
		return 0
	}
	return f.st.Generation()
}

// Close ends the flow. Closing twice is a no-op.
func (f *Flow) Close() error {
	f.open = false
	return nil
}
