// Package chaos is the deterministic fault-injection harness behind the
// gateway's robustness proofs. A production sensor's real failure modes —
// corrupt captures, duplicate/reorder storms past the reassembly caps, a
// panicking scan, a wedged downstream consumer — are all either rare or
// hostile-triggered, so waiting to observe them is not a test strategy.
// This package manufactures each of them from a seed: the same seed always
// produces the same storm, the same mangled frames, the same single
// injected panic, which is what lets the chaos soak assert exact oracle
// and byte-conservation outcomes instead of "it didn't crash".
//
// Three injection seams, matching where real faults enter:
//
//   - Capture edge: Mangle corrupts a pcap byte stream (truncations, bit
//     rot) to drive the reader/translator's never-panic, every-frame-
//     accounted contract.
//   - Wire: Storm amplifies a sequenced traffic.FlowWorkload with
//     duplicate emissions and bounded-displacement reordering far beyond
//     what the reassembly buffers are sized for, while preserving the
//     invariants that keep the oracle computable (every original segment
//     still delivered exactly once; a flow's SYN still first).
//   - Scan path: PanicOnce / StallOnce wrap the gateway's emit callback —
//     code that runs on the gateway's lanes themselves —
//     to detonate a panic or a stall at an exactly chosen match, the same
//     place a scanner bug or a blocked consumer would.
package chaos

import (
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/traffic"
)

// Injector is a seeded fault source. Every derivation is a pure function
// of the construction seed and the call sequence, so a scenario that
// replays the same calls reproduces byte-identical faults.
type Injector struct {
	src *rng.Source
}

// New returns an injector over the given seed.
func New(seed int64) *Injector { return &Injector{src: rng.New(seed)} }

// StormConfig shapes a duplicate/reorder storm.
type StormConfig struct {
	// DupFactor is the expected duplicate emissions per non-SYN packet.
	// Values well above 1 model a pathological retransmitter. A SYN is
	// never duplicated: a duplicate SYN legitimately reopens a completed
	// connection, which would change the oracle rather than stress it.
	DupFactor float64
	// ReorderSpan is the maximum displacement, in queue positions, any
	// packet (or injected duplicate) may travel from its original slot.
	// Spans far beyond the gateway's reassembly buffer caps force cap
	// drops and gap skips — the "beyond caps" regime where the soak gates
	// conservation instead of the full-stream oracle.
	ReorderSpan int
}

// Storm amplifies a sequenced packet ordering into a duplicate/reorder
// storm. Two invariants survive, keeping downstream accounting checkable:
// every input packet appears in the output exactly once (duplicates are
// exact copies marked Retransmit), and no packet of a flow moves ahead of
// that flow's SYN, so every connection still opens before its segments.
func (in *Injector) Storm(pkts []traffic.FlowPacket, cfg StormConfig) []traffic.FlowPacket {
	type emission struct {
		p  traffic.FlowPacket
		at int // primary sort key; input index breaks ties stably
	}
	out := make([]emission, 0, len(pkts)+len(pkts)/2)
	for i, p := range pkts {
		out = append(out, emission{p: p, at: i})
		if cfg.DupFactor > 0 && p.Flags&traffic.FlagSYN == 0 {
			for f := cfg.DupFactor; f > 0; f-- {
				if !in.src.Bool(min64(f, 1)) {
					continue
				}
				d := p
				d.Retransmit = true
				at := i + 1
				if cfg.ReorderSpan > 0 {
					at += in.src.Intn(cfg.ReorderSpan + 1)
				}
				out = append(out, emission{p: d, at: at})
			}
		}
	}
	if cfg.ReorderSpan > 0 {
		// Displace originals within the span, never past their flow's SYN:
		// SYNs stay pinned at their input slot, and a segment's displacement
		// is clamped to land strictly after its flow's SYN slot. Duplicates
		// already emit at or after their original, which is after the SYN.
		synAt := map[int]int{}
		for i, p := range pkts {
			if p.Flags&traffic.FlagSYN != 0 {
				synAt[p.FlowID] = i
			}
		}
		for idx := range out {
			e := &out[idx]
			if e.p.Retransmit || e.p.Flags&traffic.FlagSYN != 0 {
				continue
			}
			lo := e.at - cfg.ReorderSpan
			if s, ok := synAt[e.p.FlowID]; ok && lo <= s {
				lo = s + 1
			}
			if lo < 0 {
				lo = 0
			}
			hi := e.at + cfg.ReorderSpan
			e.at = lo + in.src.Intn(hi-lo+1)
		}
	}
	// Stable sort by emission slot (insertion sort keyed on at; the input
	// is nearly sorted, so this is effectively linear and keeps equal
	// slots in input order without importing sort for a tiny helper).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].at < out[j-1].at; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	res := make([]traffic.FlowPacket, len(out))
	for i, e := range out {
		res[i] = e.p
	}
	return res
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Mangle produces n deterministic corruptions of a pcap byte stream:
// truncations at arbitrary offsets (mid-header, mid-record, mid-payload),
// flipped bytes, and zeroed runs — the inputs a damaged disk or a hostile
// feed hands the capture reader. Each variant is independent; the original
// is never modified.
func (in *Injector) Mangle(pcap []byte, n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m := append([]byte(nil), pcap...)
		switch in.src.Intn(3) {
		case 0: // truncate
			if len(m) > 0 {
				m = m[:in.src.Intn(len(m))]
			}
		case 1: // flip bytes
			for k := 1 + in.src.Intn(8); k > 0 && len(m) > 0; k-- {
				m[in.src.Intn(len(m))] ^= byte(1 + in.src.Intn(255))
			}
		default: // zero a run
			if len(m) > 0 {
				start := in.src.Intn(len(m))
				end := start + 1 + in.src.Intn(64)
				if end > len(m) {
					end = len(m)
				}
				for j := start; j < end; j++ {
					m[j] = 0
				}
			}
		}
		out = append(out, m)
	}
	return out
}

// PanicOnce wraps a callback (the gateway's emit, whose argument M is a
// match) so that the first call satisfying trigger panics — exactly once,
// however many lanes race past it — and every other call forwards
// untouched. The panic fires on the lane that produced the match, for a
// flow's matches and a stateless packet's alike: the same stack a scanner
// bug would blow up on, which is what the gateway's containment must
// survive.
func PanicOnce[M any](emit func(M), trigger func(M) bool) func(M) {
	var fired atomic.Bool
	return func(m M) {
		if trigger(m) && fired.CompareAndSwap(false, true) {
			panic("chaos: injected scan-path panic")
		}
		emit(m)
	}
}

// StallOnce wraps a callback, as PanicOnce does, so that the first call
// satisfying trigger blocks until release is closed — a wedged downstream
// consumer holding a pipeline lane hostage, the situation the stall
// watchdog exists to expose. Matches after the stall (and all matches once
// released) forward untouched.
func StallOnce[M any](emit func(M), trigger func(M) bool, release <-chan struct{}) func(M) {
	var fired atomic.Bool
	return func(m M) {
		if trigger(m) && fired.CompareAndSwap(false, true) {
			<-release
		}
		emit(m)
	}
}
