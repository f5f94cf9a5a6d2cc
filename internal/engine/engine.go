// Package engine holds the streaming scan state every software scan path
// runs on, mirroring the paper's hardware parallelism: an FPGA string
// matching block holds 6 engines reading the same block memory, and a
// device holds several blocks (§IV.B). Here the immutable core.Machine
// plays the role of the block memory, and one register file (core.Regs,
// plain data) plays the role of one hardware engine. Software runs one
// machine whatever the ruleset's size: splitting a ruleset into groups is
// how the hardware fits a block's memory, and lives in package fpga.
//
// FlowState is the product: each concurrent TCP/UDP flow owns one FlowState
// value — its registers, nothing else, 16 pointer-free bytes — while
// sharing the compiled automaton, so millions of flows cost per-flow
// registers only, never per-flow automata, buffers or objects. dpi.Stream
// embeds one in its handle, the gateway one in each flow record, and both
// scan into a match buffer they own.
//
// Engine, its batch worker pool (ScanPacketsInto) and the Flow handle exist
// only as the benchmark's layer harness: bench/pipeline.go times them as
// the "engine" layer, and nothing else in the tree runs on them. They go
// when ROADMAP items 3 and 4 retire that file, and FlowState then folds
// into internal/core.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ac"
	"repro/internal/core"
)

// Engine is a fixed-size worker pool over a shared immutable automaton.
// The Engine itself is safe for concurrent use: ScanPacketsInto may be
// called from many goroutines at once, and Flows may be opened and written
// concurrently (each individual Flow is single-goroutine, like a socket).
//
// Engines replicate freely: because the automaton is immutable, any number
// of Engines may be built over the same core.Machine and run side by side —
// the software analogue of the paper's replicated string matching blocks. A
// front-end that keeps its own accounting (the gateway) needs no Engine at
// all: it scans with FlowState over the automaton directly.
type Engine struct {
	m       *core.Machine
	workers int

	batches     atomic.Uint64
	batchPkts   atomic.Uint64
	batchBytes  atomic.Uint64
	flowsOpened atomic.Uint64
	streamBytes atomic.Uint64
}

// Stats is a point-in-time snapshot of one engine's work, split by the two
// usage shapes. A multi-engine front-end reads one Stats per shard to see
// how traffic fanned out across its replicas.
type Stats struct {
	Batches     uint64 // ScanPacketsInto calls
	BatchPkts   uint64 // payloads scanned across those batches
	BatchBytes  uint64 // payload bytes scanned in batch mode
	FlowsOpened uint64 // flow states opened (Open, Flow), once per connection
	StreamBytes uint64 // bytes written through flows (gap skips excluded)
}

// New builds an engine over g's one machine with the given worker-pool size
// for batch scans. workers <= 0 selects GOMAXPROCS — one lane per available
// core. The parameter is a core.Grouped because bench/pipeline.go builds one
// (with a single group); a multi-group value is the hardware model's and
// panics here.
func New(g *core.Grouped, workers int) *Engine {
	if len(g.Machines) != 1 {
		panic("engine: software scans one machine; a grouped ruleset belongs to package fpga")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{m: g.Machines[0], workers: workers}
}

// Stats returns this engine's work counters. Counters are monotone but
// mutually unsynchronized, like every stats surface in the pipeline.
func (e *Engine) Stats() Stats {
	return Stats{
		Batches:     e.batches.Load(),
		BatchPkts:   e.batchPkts.Load(),
		BatchBytes:  e.batchBytes.Load(),
		FlowsOpened: e.flowsOpened.Load(),
		StreamBytes: e.streamBytes.Load(),
	}
}

// scanPacket scans one payload from start-of-packet registers into buf (a
// reusable worker-local buffer) and returns an exact-size copy of the
// packet's matches in canonical (End, PatternID) order — the machine's own
// — plus the grown buffer for the next packet.
func scanPacket(m *core.Machine, payload []byte, buf []ac.Match) ([]ac.Match, []ac.Match) {
	var r core.Regs
	r.Reset()
	buf = m.ScanAppend(&r, payload, buf[:0])
	if len(buf) == 0 {
		return nil, buf
	}
	out := make([]ac.Match, len(buf))
	copy(out, buf)
	return out, buf
}

// ScanPacketsInto scans each payload as an independent packet across the
// worker pool and returns one match slice per payload, each in canonical
// (End, PatternID) order — element i is exactly what Machine.FindAll
// would return for payloads[i]. Packets are handed to workers via a shared
// counter, so a batch of wildly mixed payload sizes still load-balances.
// results' backing array is reused when it is large enough, so steady-state
// batch scans are free of per-batch slice allocation. The per-packet match
// slices are still freshly allocated — they are the scan's output and may
// be retained by the caller.
// Nothing here recovers a panic: a batch runs for a caller that has no
// packet to quarantine, and the gateway, which does, scans each packet on the
// lane's own goroutine with FlowState.Write.
func (e *Engine) ScanPacketsInto(payloads [][]byte, results [][]ac.Match) [][]ac.Match {
	if cap(results) >= len(payloads) {
		results = results[:len(payloads)]
		clear(results)
	} else {
		results = make([][]ac.Match, len(payloads))
	}
	if len(payloads) == 0 {
		return results
	}
	e.batches.Add(1)
	e.batchPkts.Add(uint64(len(payloads)))
	var nbytes uint64
	for _, p := range payloads {
		nbytes += uint64(len(p))
	}
	e.batchBytes.Add(nbytes)
	if workers := min(e.workers, len(payloads)); workers > 1 {
		// The goroutine fan-out lives in its own function so its closure does
		// not capture this function's parameters: a captured `results` would
		// be moved to the heap on every call, including the single-worker
		// ones whose zero-alloc steady state is pinned.
		scanParallel(e.m, payloads, results, workers)
		return results
	}
	var buf []ac.Match
	for i, p := range payloads {
		results[i], buf = scanPacket(e.m, p, buf)
	}
	return results
}

// scanParallel shards payloads over workers goroutines via a shared
// counter; workers write disjoint results indices, so no synchronization
// beyond the WaitGroup is needed.
func scanParallel(m *core.Machine, payloads [][]byte, results [][]ac.Match, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []ac.Match
			for {
				i := int(next.Add(1)) - 1
				if i >= len(payloads) {
					return
				}
				results[i], buf = scanPacket(m, payloads[i], buf)
			}
		}()
	}
	wg.Wait()
}

// FlowState is one flow's streaming scan state, by value: the register file
// and nothing else. It holds no buffer, no pointer — not to the engine, not
// to the automaton — and no tag naming the automaton, so a flow record
// embeds it, copying it forks the stream, and a million idle flows hold a
// million of these and nothing more. A FlowState is single-goroutine (like
// the socket it shadows) and must be written over the automaton it was
// opened for: the holder keeps that pin (the gateway's flow record holds its
// generation).
type FlowState struct {
	regs core.Regs
}

// Reset rewinds the flow to start-of-packet: state and the 2-byte
// default-rule history are cleared and offsets restart at zero. It is also
// how a connection opens (the zero value is not a start state); Engine.Open
// is this plus the engine's accounting.
func (s *FlowState) Reset() { s.regs.Reset() }

// SkipGap records n stream bytes the flow will never see (a reassembly gap
// skipped on timeout): state and history are invalidated — no match may
// span unseen bytes — while the stream position advances, so subsequent
// matches keep absolute offsets into the flow's true stream. n <= 0 is a
// no-op, mirroring Regs.SkipAhead: no bytes were skipped, so no register
// may move.
func (s *FlowState) SkipGap(n int) { s.regs.SkipAhead(n) }

// Consumed returns the flow's stream position: bytes scanned plus gap bytes
// skipped since the flow was opened or Reset.
func (s *FlowState) Consumed() int { return s.regs.Pos() }

// Write scans the next chunk over m — the automaton s was opened for —
// appending to out the matches whose final byte lies in this chunk, in the
// machine's canonical (End, PatternID) order with End relative to the start
// of the flow. Scanning allocates only when out must grow. Engine.Write is
// this plus the engine's accounting.
func (s *FlowState) Write(m *core.Machine, p []byte, out []ac.Match) []ac.Match {
	return m.ScanAppend(&s.regs, p, out)
}

// Open starts a connection on s: registers at start-of-packet, counted once
// in Stats.FlowsOpened.
func (e *Engine) Open(s *FlowState) {
	e.flowsOpened.Add(1)
	s.Reset()
}

// Write consumes the next chunk of the flow s, which this engine opened,
// and appends its matches to the caller's buffer; see FlowState.Write.
func (e *Engine) Write(s *FlowState, p []byte, out []ac.Match) []ac.Match {
	out = s.Write(e.m, p, out)
	e.streamBytes.Add(uint64(len(p)))
	return out
}

// Flow is a one-allocation handle around a FlowState for callers that have
// no flow record of their own to embed one in: the state, the engine that
// opened it, and a match buffer reused across Writes.
type Flow struct {
	e   *Engine
	st  FlowState
	buf []ac.Match
}

// Flow opens a fresh stream positioned at start-of-packet.
func (e *Engine) Flow() *Flow {
	f := &Flow{e: e}
	e.Open(&f.st)
	return f
}

// Write consumes the next chunk and returns the matches whose final byte
// lies in this chunk, sorted by (End, PatternID) with End relative to the
// start of the flow. The returned slice is reused by the next Write; the
// caller must consume (or copy) it before writing again.
func (f *Flow) Write(p []byte) []ac.Match {
	f.buf = f.e.Write(&f.st, p, ac.RecycleMatches(f.buf))
	return f.buf
}

// SkipGap records n unseen stream bytes; see FlowState.SkipGap.
func (f *Flow) SkipGap(n int) { f.st.SkipGap(n) }

// Consumed returns the flow's stream position; see FlowState.Consumed.
func (f *Flow) Consumed() int { return f.st.Consumed() }

// Close ends the flow; the handle must not be used afterwards. There is
// nothing to hand back — the registers are the handle's own.
func (f *Flow) Close() {}
