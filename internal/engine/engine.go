// Package engine is the benchmark's layer harness for the scan stage: a
// batch worker pool (ScanPacketsInto) and a one-allocation Flow handle,
// which bench/pipeline.go times as its "engine" layer. Nothing else in the
// tree runs on it. The product's scan state is core.Regs itself — 16
// pointer-free bytes, one register file per stream, as each of the paper's
// hardware engines holds one (§IV.B) — which dpi.Stream and the gateway's
// flow record hold bare and scan with core.Machine.ScanAppend. The package
// goes when ROADMAP items 2 and 3 retire bench/pipeline.go.
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
// Any number of Engines may be built over the same core.Machine and run
// side by side — the software analogue of the paper's replicated string
// matching blocks.
type Engine struct {
	m       *core.Machine
	workers int
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
// be retained by the caller. Nothing here recovers a panic.
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

// Flow is a one-allocation streaming handle: the engine that opened it, the
// flow's registers and a match buffer reused across Writes.
type Flow struct {
	e   *Engine
	r   core.Regs
	buf []ac.Match
}

// Flow opens a fresh stream positioned at start-of-packet.
func (e *Engine) Flow() *Flow {
	f := &Flow{e: e}
	f.r.Reset()
	return f
}

// Write consumes the next chunk and returns the matches whose final byte
// lies in this chunk, sorted by (End, PatternID) with End relative to the
// start of the flow. The returned slice is reused by the next Write; the
// caller must consume (or copy) it before writing again.
func (f *Flow) Write(p []byte) []ac.Match {
	f.buf = f.e.m.ScanAppend(&f.r, p, ac.RecycleMatches(f.buf))
	return f.buf
}

// SkipGap records n stream bytes the flow will never see (a reassembly gap
// skipped on timeout); see core.Regs.SkipAhead.
func (f *Flow) SkipGap(n int) { f.r.SkipAhead(n) }

// Consumed returns the flow's stream position: bytes scanned plus gap bytes
// skipped since the flow was opened.
func (f *Flow) Consumed() int { return f.r.Pos() }

// Close ends the flow; the handle must not be used afterwards. There is
// nothing to hand back — the registers are the handle's own.
func (f *Flow) Close() {}
