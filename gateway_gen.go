package dpi

// Ruleset generations: the hot-reload control plane.

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// gwGeneration is one installed ruleset generation: the compiled matcher
// and the live count of flows pinned to it. A generation retires — dropped
// from Gateway.gens, its matcher left to the garbage collector — when it is
// no longer current and its last pinned flow ends; the current generation
// never retires.
type gwGeneration struct {
	id uint64 // Matcher.Generation of m
	m  *Matcher
	// flows counts live pinned flows. Pinning happens only while the
	// packet that opens the flow is in flight (its lane's depth > 0), and
	// cur only changes at a drained point, so a pin can never land on a
	// generation that is concurrently being swapped out — the race
	// SwapRules' drain barrier exists to exclude.
	flows atomic.Int64
}

// SwapRules atomically installs a newer compiled matcher as the gateway's
// ruleset — the hot-reload control plane. The swap happens at a drained
// pipeline point (serialized against Ingest, Flush and Close exactly like
// Flush), which gives the two cutover guarantees for free:
//
//   - A stateless packet scans with the generation current when its lane
//     dequeued it: every datagram admitted before the swap is scanned with
//     the old generation before the swap completes; every one after scans
//     with the new one.
//   - Flows pin the generation they opened on. Existing flows keep
//     scanning against their pinned automaton until a flow boundary
//     (FIN/RST, idle or capacity eviction, quarantine, Close); new flows —
//     including SYN revivals of finished connections — open on the new
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
	g.quiesce()
	defer g.resume()
	if g.closed {
		return fmt.Errorf("%w: SwapRules", ErrClosed)
	}
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
	g.maybeRetire(old)
	return nil
}

// maybeRetire retires gen if it can no longer receive work: not the
// current generation, no pinned flows, not already retired. Safe to call
// optimistically — it is invoked from the last unpin of a generation and
// from SwapRules after a cutover, and exactly one caller wins: retirement
// is removal from the live list, under genMu. The counters a retired
// generation's flows produced stay where they were written — on the lanes.
func (g *Gateway) maybeRetire(gen *gwGeneration) {
	g.genMu.Lock()
	defer g.genMu.Unlock()
	if gen == g.cur.Load() || gen.flows.Load() != 0 {
		return
	}
	for i, other := range g.gens {
		if other == gen {
			g.gens = slices.Delete(g.gens, i, i+1) // clears the vacated slot, which would pin gen's matcher
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
// Matcher.Generation new flows and stateless packets scan with.
func (g *Gateway) Generation() uint64 { return g.cur.Load().id }

// Backend reports the scan backend the current generation's lanes run
// (see Config.Backend). Matchers swapped in with a different Backend
// configuration change this value at the swap.
func (g *Gateway) Backend() string { return g.cur.Load().m.Backend() }
