package main

// The -chaos mode: the CLI face of the deterministic fault-injection
// harness (internal/chaos), runnable anywhere the repo builds and gated
// by CI's chaos-soak job. Five seeded scenarios run per shard count:
//
//   - block-storm: a duplicate/reorder storm under the default Block
//     policy must be invisible — per-flow matches byte-identical to the
//     in-order FindAll oracle.
//   - overflow: a storm far past the reassembly caps; the full-stream
//     oracle no longer applies, but the conservation ledger must balance
//     (Ingested == Scanned + Shed + Skipped + Buffered).
//   - shed-packets: a chaos stall wedges the pipeline under ShedPackets;
//     matches over the bytes actually delivered must equal the FindAll
//     oracle over each contiguous run of admitted segments.
//   - panic-quarantine: an injected scan-path panic must quarantine
//     exactly the victim flow, leave every other flow's matches intact,
//     and keep the gateway live.
//   - swap-storm: two hot ruleset reloads land mid-storm; every flow must
//     match its birth generation's oracle, old generations must retire
//     once their flows drain, and the ledger must balance.
//
// The JSON report carries one entry per (scenario, shards) with its
// ledger, so CI can gate the conservation law with jq; the top-level "ok"
// is the AND of every scenario verdict.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	dpi "repro"
	"repro/internal/chaos"
	"repro/internal/report"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// chaosBenchConfig sizes the -chaos soak; tests shrink it.
type chaosBenchConfig struct {
	Strings   int
	Seed      int64
	MaxShards int    // shard sweep ceiling (1, 2, 4, ... up to this)
	Backend   string // scan backend ("" = auto)
}

func defaultChaosConfig(seed int64) chaosBenchConfig {
	return chaosBenchConfig{Strings: 250, Seed: seed, MaxShards: 1}
}

// chaosScenarioResult is one (scenario, shards) verdict in the report.
// OK is the scenario's own pass/fail; Detail explains a failure.
type chaosScenarioResult struct {
	Scenario    string            `json:"scenario"`
	Shards      int               `json:"shards"`
	OK          bool              `json:"ok"`
	Balanced    bool              `json:"balanced"`
	OracleOK    bool              `json:"oracle_ok"`
	Matches     int               `json:"matches"`
	ShedPackets uint64            `json:"shed_packets,omitempty"`
	Panics      uint64            `json:"panics,omitempty"`
	Quarantined uint64            `json:"quarantined_flows,omitempty"`
	Swaps       uint64            `json:"swaps,omitempty"`
	GensMade    uint64            `json:"generations_installed,omitempty"`
	GensRetired uint64            `json:"generations_retired,omitempty"`
	Ledger      dpi.GatewayLedger `json:"ledger"`
	Detail      string            `json:"detail,omitempty"`
}

type chaosReport struct {
	Backend     string                `json:"backend"`
	Strings     int                   `json:"strings"`
	Seed        int64                 `json:"seed"`
	Scenarios   []chaosScenarioResult `json:"scenarios"`
	Interrupted bool                  `json:"interrupted"` // run stopped by SIGINT/SIGTERM; scenarios are partial
	OK          bool                  `json:"ok"`
}

// chaosCollector gathers matches by tuple; emit runs on pipeline
// goroutines, so it locks.
type chaosCollector struct {
	mu      sync.Mutex
	byTuple map[dpi.FiveTuple][]dpi.Match
}

func newChaosCollector() *chaosCollector {
	return &chaosCollector{byTuple: map[dpi.FiveTuple][]dpi.Match{}}
}

func (c *chaosCollector) emit(fm dpi.FlowMatch) {
	c.mu.Lock()
	c.byTuple[fm.Tuple] = append(c.byTuple[fm.Tuple], fm.Match)
	c.mu.Unlock()
}

func (c *chaosCollector) matches(t dpi.FiveTuple) []dpi.Match {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byTuple[t]
}

// sameChaosMatches compares match sequences ignoring PacketID (the oracle
// scans whole streams; the gateway attributes segments).
func sameChaosMatches(got, want []dpi.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].PatternID != want[i].PatternID || got[i].Start != want[i].Start || got[i].End != want[i].End {
			return false
		}
	}
	return true
}

// chaosHarness carries the compiled matcher and ruleset every scenario
// shares; scenarios derive their own workloads and injector seeds from
// the base seed so the whole soak replays from one -seed value.
type chaosHarness struct {
	m    *dpi.Matcher
	set  *ruleset.Set
	seed int64
}

// finish drains and closes the gateway and fills the ledger fields; a
// scenario calls it once its assertions are recorded in r.
func (h *chaosHarness) finish(r *chaosScenarioResult, gw *dpi.Gateway) error {
	gw.Flush()
	st := gw.Stats()
	if err := gw.Close(); err != nil {
		return err
	}
	r.Ledger = st.Ledger()
	r.Balanced = r.Ledger.Balanced()
	return nil
}

// fail marks the scenario failed with an explanation; the first failure's
// detail wins so the report points at the earliest broken assertion.
func (r *chaosScenarioResult) fail(format string, args ...any) {
	r.OK = false
	if r.Detail == "" {
		r.Detail = fmt.Sprintf(format, args...)
	}
}

func (h *chaosHarness) blockStorm(shards int) (chaosScenarioResult, error) {
	r := chaosScenarioResult{Scenario: "block-storm", Shards: shards, OK: true, OracleOK: true}
	w, err := traffic.GenerateFlows(h.set, traffic.FlowConfig{
		Flows: 16, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: h.seed + 211,
		CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
		Sequenced: true,
	})
	if err != nil {
		return r, err
	}
	storm := chaos.New(h.seed+31).Storm(w.Packets, chaos.StormConfig{DupFactor: 1, ReorderSpan: 24})
	if len(storm) <= len(w.Packets) {
		r.fail("storm added no duplicates; scenario is vacuous")
	}
	c := newChaosCollector()
	gw, err := dpi.NewGateway(h.m, dpi.GatewayConfig{
		EngineShards: shards, StreamWorkers: 3,
	}, c.emit)
	if err != nil {
		return r, err
	}
	for _, p := range storm {
		if err := gw.Ingest(dpi.GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
		}); err != nil {
			gw.Close()
			return r, err
		}
	}
	if err := h.finish(&r, gw); err != nil {
		return r, err
	}
	for f, tuple := range w.Tuples {
		want := h.m.FindAll(w.Streams[f])
		got := c.matches(tuple)
		if !sameChaosMatches(got, want) {
			r.OracleOK = false
			r.fail("flow %d: storm changed results (got %d matches, oracle %d)", f, len(got), len(want))
		}
		r.Matches += len(got)
	}
	if r.Matches == 0 {
		r.fail("no matches at all; scenario is vacuous")
	}
	if !r.Balanced {
		r.fail("conservation law violated: %+v", r.Ledger)
	}
	return r, nil
}

func (h *chaosHarness) overflow(shards int) (chaosScenarioResult, error) {
	// Not oracle-gated: beyond the caps the gateway legitimately drops and
	// skips; what must hold is the ledger.
	r := chaosScenarioResult{Scenario: "overflow", Shards: shards, OK: true, OracleOK: true}
	w, err := traffic.GenerateFlows(h.set, traffic.FlowConfig{
		Flows: 12, SegmentsPerFlow: 16, SegmentBytes: 300, Seed: h.seed + 97,
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
		Sequenced: true,
	})
	if err != nil {
		return r, err
	}
	storm := chaos.New(h.seed+5).Storm(w.Packets, chaos.StormConfig{DupFactor: 2, ReorderSpan: 400})
	c := newChaosCollector()
	gw, err := dpi.NewGateway(h.m, dpi.GatewayConfig{
		EngineShards: shards, StreamWorkers: 2,
		MaxFlowBuffer: 1024, MaxTotalBuffer: 4096, GapTimeout: 4,
	}, c.emit)
	if err != nil {
		return r, err
	}
	for _, p := range storm {
		if err := gw.Ingest(dpi.GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
		}); err != nil {
			gw.Close()
			return r, err
		}
	}
	gw.Flush()
	st := gw.Stats()
	if l := st.Ledger(); !l.Balanced() {
		r.fail("conservation law violated at the Flush checkpoint: %+v", l)
	}
	if st.ReassemblyDrops == 0 && st.GapSkips == 0 {
		r.fail("storm never hit the caps; scenario is vacuous")
	}
	if err := h.finish(&r, gw); err != nil {
		return r, err
	}
	if !r.Balanced {
		r.fail("conservation law violated after Close: %+v", r.Ledger)
	}
	for _, tuple := range w.Tuples {
		r.Matches += len(c.matches(tuple))
	}
	return r, nil
}

func (h *chaosHarness) shedPackets(shards int) (chaosScenarioResult, error) {
	r := chaosScenarioResult{Scenario: "shed-packets", Shards: shards, OK: true, OracleOK: true}
	w, err := traffic.GenerateFlows(h.set, traffic.FlowConfig{
		Flows: 12, SegmentsPerFlow: 40, SegmentBytes: 120, Seed: h.seed + 313,
		CrossDensity: 1, AttackDensity: 1.5, Profile: traffic.Textual,
	})
	if err != nil {
		return r, err
	}
	release := make(chan struct{})
	c := newChaosCollector()
	emit := chaos.StallOnce(c.emit, func(dpi.FlowMatch) bool { return true }, release)
	gw, err := dpi.NewGateway(h.m, dpi.GatewayConfig{
		EngineShards: shards, StreamWorkers: 1, QueueDepth: 4,
		OverloadPolicy: dpi.ShedPackets, IngestDeadline: -1,
	}, emit)
	if err != nil {
		return r, err
	}

	// Replay the in-order feed, recording admission per packet. A flow's
	// expected matches are FindAll over each contiguous run of admitted
	// bytes, shifted to the run's absolute stream offset — SkipGap
	// guarantees no gateway match spans a shed packet.
	type acc struct {
		pos      int
		runStart int
		run      []byte
	}
	accs := map[dpi.FiveTuple]*acc{}
	want := map[dpi.FiveTuple][]dpi.Match{}
	closeRun := func(tuple dpi.FiveTuple, a *acc) {
		if len(a.run) == 0 {
			return
		}
		for _, mt := range h.m.FindAll(a.run) {
			mt.Start += a.runStart
			mt.End += a.runStart
			want[tuple] = append(want[tuple], mt)
		}
		a.run = nil
	}
	var shed uint64
	for _, p := range w.Packets {
		admitted, err := gw.TryIngest(dpi.GatewayPacket{Tuple: p.Tuple, Payload: p.Payload})
		if err != nil {
			close(release)
			gw.Close()
			return r, err
		}
		a := accs[p.Tuple]
		if a == nil {
			a = &acc{}
			accs[p.Tuple] = a
		}
		if admitted {
			if a.run == nil {
				a.runStart = a.pos
			}
			a.run = append(a.run, p.Payload...)
		} else {
			shed++
			closeRun(p.Tuple, a)
		}
		a.pos += len(p.Payload)
	}
	close(release)
	if err := h.finish(&r, gw); err != nil {
		return r, err
	}
	r.ShedPackets = shed
	if shed == 0 {
		r.fail("nothing was shed; scenario is vacuous")
	}
	if r.Ledger.Shed == 0 {
		r.fail("shed packets never reached the ledger: %+v", r.Ledger)
	}
	if !r.Balanced {
		r.fail("conservation law violated: %+v", r.Ledger)
	}
	for f, tuple := range w.Tuples {
		closeRun(tuple, accs[tuple])
		got := c.matches(tuple)
		if !sameChaosMatches(got, want[tuple]) {
			r.OracleOK = false
			r.fail("flow %d: delivered-subset oracle diverged (got %d matches, want %d)",
				f, len(got), len(want[tuple]))
		}
		r.Matches += len(got)
	}
	return r, nil
}

func (h *chaosHarness) panicQuarantine(shards int) (chaosScenarioResult, error) {
	r := chaosScenarioResult{Scenario: "panic-quarantine", Shards: shards, OK: true, OracleOK: true}
	w, err := traffic.GenerateFlows(h.set, traffic.FlowConfig{
		Flows: 20, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: h.seed + 503,
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
		Sequenced: true,
	})
	if err != nil {
		return r, err
	}
	victim := -1
	for f := range w.Tuples {
		if len(h.m.FindAll(w.Streams[f])) > 0 {
			victim = f
			break
		}
	}
	if victim < 0 {
		r.fail("no flow matches; scenario is vacuous")
		return r, nil
	}
	c := newChaosCollector()
	emit := chaos.PanicOnce(c.emit, func(fm dpi.FlowMatch) bool { return fm.Tuple == w.Tuples[victim] })
	gw, err := dpi.NewGateway(h.m, dpi.GatewayConfig{
		EngineShards: shards, StreamWorkers: 2,
	}, emit)
	if err != nil {
		return r, err
	}
	for _, p := range w.Packets {
		if err := gw.Ingest(dpi.GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
		}); err != nil {
			gw.Close()
			return r, err
		}
	}
	gw.Flush()
	st := gw.Stats()
	r.Panics = st.Panics
	r.Quarantined = st.QuarantinedFlows
	if st.Panics != 1 {
		r.fail("Panics = %d, want exactly the 1 injected", st.Panics)
	}
	if st.QuarantinedFlows != 1 {
		r.fail("QuarantinedFlows = %d, want exactly the victim", st.QuarantinedFlows)
	}
	// Containment working is the healthy outcome: a quarantined flow must
	// not trip the liveness probe.
	if hs := gw.Health(); !hs.Healthy {
		r.fail("gateway unhealthy after containment: %+v", hs)
	}
	if err := h.finish(&r, gw); err != nil {
		return r, err
	}
	if !r.Balanced {
		r.fail("conservation law violated: %+v", r.Ledger)
	}
	for f, tuple := range w.Tuples {
		if f == victim {
			continue
		}
		want := h.m.FindAll(w.Streams[f])
		got := c.matches(tuple)
		if !sameChaosMatches(got, want) {
			r.OracleOK = false
			r.fail("flow %d: collateral damage from quarantine of flow %d", f, victim)
		}
		r.Matches += len(got)
	}
	if r.Matches == 0 {
		r.fail("no surviving matches; scenario is vacuous")
	}
	return r, nil
}

// swapStorm lands two hot reloads (Gateway.SwapRules) in the middle of a
// duplicate/reorder storm. Three ruleset generations each get their own
// wave of flows; a wave's flows all open (their SYNs land) before the
// next swap, then every wave's tail keeps streaming under later
// generations. Gates: each flow's matches must equal FindAll of its full
// stream against its birth generation's matcher (pinning, with the storm
// still invisible), every generation but the current one must retire once
// its FINs drain (refcount retirement, no sweeper), and the conservation
// ledger must balance.
func (h *chaosHarness) swapStorm(shards int) (chaosScenarioResult, error) {
	r := chaosScenarioResult{Scenario: "swap-storm", Shards: shards, OK: true, OracleOK: true}
	const waves = 3
	type wave struct {
		m       *dpi.Matcher
		tuples  []dpi.FiveTuple
		streams [][]byte
		storm   []traffic.FlowPacket
		opening int // storm prefix containing every flow's first packet
	}
	ws := make([]*wave, waves)
	for wv := range ws {
		m, set := h.m, h.set
		if wv > 0 {
			rules, err := dpi.GenerateSnortLike(150+40*wv, h.seed+int64(1000*wv))
			if err != nil {
				return r, err
			}
			m, err = dpi.Compile(rules, dpi.Config{Backend: h.m.Backend()})
			if err != nil {
				return r, err
			}
			set = rules.InternalSet()
		}
		w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
			Flows: 10, SegmentsPerFlow: 6, SegmentBytes: 130, Seed: h.seed + int64(77*wv) + 401,
			CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
			Sequenced: true,
		})
		if err != nil {
			return r, err
		}
		storm := chaos.New(h.seed+int64(7*wv)+13).Storm(w.Packets,
			chaos.StormConfig{DupFactor: 1, ReorderSpan: 12})
		// Remap tuples into a per-wave address block: waves are drawn from
		// independent workload seeds and must never collide in the table.
		remap := map[dpi.FiveTuple]dpi.FiveTuple{}
		tuples := make([]dpi.FiveTuple, len(w.Tuples))
		for f, tup := range w.Tuples {
			nt := tup
			nt.SrcIP = 0x0a000000 | uint32(wv)<<16 | uint32(f)
			remap[tup] = nt
			tuples[f] = nt
		}
		for i := range storm {
			storm[i].Tuple = remap[storm[i].Tuple]
		}
		// A flow pins its generation at first sight. The opening slice must
		// therefore cover every flow's first storm packet (the SYN — storms
		// keep position 0 fixed), so the whole wave is born pre-swap.
		seen := map[int]bool{}
		opening := 0
		for i, p := range storm {
			if !seen[p.FlowID] {
				seen[p.FlowID] = true
				opening = i + 1
			}
		}
		if min := 3 * len(storm) / 5; opening < min {
			opening = min
		}
		ws[wv] = &wave{m: m, tuples: tuples, streams: w.Streams, storm: storm, opening: opening}
	}

	c := newChaosCollector()
	gw, err := dpi.NewGateway(ws[0].m, dpi.GatewayConfig{
		EngineShards: shards, StreamWorkers: 2,
	}, c.emit)
	if err != nil {
		return r, err
	}
	ingest := func(pkts []traffic.FlowPacket) error {
		for _, p := range pkts {
			if err := gw.Ingest(dpi.GatewayPacket{
				Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
			}); err != nil {
				gw.Close()
				return err
			}
		}
		return nil
	}
	for wv, w := range ws {
		if wv > 0 {
			if err := gw.SwapRules(w.m); err != nil {
				gw.Close()
				return r, fmt.Errorf("swap to generation %d: %w", w.m.Generation(), err)
			}
			r.Swaps++
		}
		if err := ingest(w.storm[:w.opening]); err != nil {
			return r, err
		}
	}
	// Tails: every earlier wave keeps streaming (and FINishing) under the
	// final generation.
	for _, w := range ws {
		if err := ingest(w.storm[w.opening:]); err != nil {
			return r, err
		}
	}
	gw.Flush()
	st := gw.Stats()
	r.GensMade, r.GensRetired = st.GenerationsInstalled, st.GenerationsRetired
	if st.GenerationsInstalled != waves {
		r.fail("%d generations installed, want %d", st.GenerationsInstalled, waves)
	}
	// Every wave's flows FIN inside its own storm, so after the drain only
	// the current generation may survive — retirement is refcount-driven,
	// no sweeper to wait for.
	if st.GenerationsRetired != st.GenerationsInstalled-1 {
		r.fail("retirement stuck: %d of %d generations retired after the FIN drain",
			st.GenerationsRetired, st.GenerationsInstalled)
	}
	for wv, w := range ws {
		for f, tuple := range w.tuples {
			want := w.m.FindAll(w.streams[f])
			got := c.matches(tuple)
			if !sameChaosMatches(got, want) {
				r.OracleOK = false
				r.fail("wave %d flow %d: matches diverge from the birth-generation oracle (got %d, want %d)",
					wv, f, len(got), len(want))
			}
			r.Matches += len(got)
		}
	}
	if r.Matches == 0 {
		r.fail("no matches at all; scenario is vacuous")
	}
	if err := h.finish(&r, gw); err != nil {
		return r, err
	}
	if !r.Balanced {
		r.fail("conservation law violated: %+v", r.Ledger)
	}
	return r, nil
}

func runChaos(ctx context.Context, out io.Writer, jsonPath string, cfg chaosBenchConfig) error {
	rules, err := dpi.GenerateSnortLike(cfg.Strings, cfg.Seed)
	if err != nil {
		return err
	}
	m, err := dpi.Compile(rules, dpi.Config{Groups: 2, Backend: cfg.Backend})
	if err != nil {
		return err
	}
	h := &chaosHarness{m: m, set: rules.InternalSet(), seed: cfg.Seed}
	rep := chaosReport{Backend: m.Backend(), Strings: cfg.Strings, Seed: cfg.Seed, OK: true}

	scenarios := []struct {
		name string
		run  func(int) (chaosScenarioResult, error)
	}{
		{"block-storm", h.blockStorm},
		{"overflow", h.overflow},
		{"shed-packets", h.shedPackets},
		{"panic-quarantine", h.panicQuarantine},
		{"swap-storm", h.swapStorm},
	}
	shardSweep := []int{1}
	for s := 2; s <= cfg.MaxShards; s *= 2 {
		shardSweep = append(shardSweep, s)
	}
	for _, shards := range shardSweep {
		for _, sc := range scenarios {
			if ctx.Err() != nil {
				rep.Interrupted = true
				break
			}
			r, err := sc.run(shards)
			if err != nil {
				return fmt.Errorf("dpibench: chaos %s (shards %d): %w", sc.name, shards, err)
			}
			if !r.OK {
				rep.OK = false
			}
			rep.Scenarios = append(rep.Scenarios, r)
		}
		if rep.Interrupted {
			break
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileAtomic(jsonPath, append(data, '\n')); err != nil {
			return err
		}
	}
	t := &report.Table{
		Title: fmt.Sprintf("CHAOS SOAK (backend %s, %d strings, seed %d; deterministic fault injection)",
			rep.Backend, cfg.Strings, cfg.Seed),
		Headers: []string{"Scenario", "Shards", "OK", "Balanced", "Oracle", "Matches", "Shed", "Panics", "Swaps", "Detail"},
	}
	for _, r := range rep.Scenarios {
		t.AddRow(r.Scenario, r.Shards, r.OK, r.Balanced, r.OracleOK, r.Matches,
			r.ShedPackets, r.Panics, r.Swaps, r.Detail)
	}
	if err := t.Render(out); err != nil {
		return err
	}
	if rep.Interrupted {
		fmt.Fprintf(out, "interrupted: partial chaos report (%d scenarios run)\n", len(rep.Scenarios))
		return nil
	}
	if !rep.OK {
		return fmt.Errorf("dpibench: chaos soak failed; see the scenario table (or the -json report) for the broken assertion")
	}
	return nil
}
