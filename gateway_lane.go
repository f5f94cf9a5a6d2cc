package dpi

// The second stage: flow records, lanes, panic containment.

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/reassembly"
)

// classify runs the header rules over one 5-tuple and returns the index of
// the first that matches, or -1: no rule means scan without attribution.
func (g *Gateway) classify(t FiveTuple) int {
	for i := range g.cfg.Rules {
		if g.cfg.Rules[i].Header.Matches(t) {
			return i
		}
	}
	return -1
}

// verdict is what rule idx decides: no rule (-1) scans, one naming none alerts.
func (g *Gateway) verdict(idx int) Verdict {
	if idx < 0 {
		return VerdictNone
	}
	return max(g.cfg.Rules[idx].Verdict, VerdictAlert) // VerdictNone < VerdictAlert < the rest
}

// notifyVerdict counts a rule decision on the lane that made it and
// forwards it to OnVerdict.
func (ln *gwLane) notifyVerdict(t FiveTuple, v Verdict, idx int) {
	if idx < 0 {
		return
	}
	ln.rules[idx].flows.Add(1)
	switch v {
	case VerdictAlert:
		ln.n[cVerdictAlerts].Add(1)
	case VerdictDrop:
		ln.n[cVerdictDrops].Add(1)
	case VerdictPass:
		ln.n[cVerdictPasses].Add(1)
	}
	if cfg := &ln.g.cfg; cfg.OnVerdict != nil {
		r := &cfg.Rules[idx]
		cfg.OnVerdict(FlowVerdict{Tuple: t, Verdict: v, RuleID: r.ID, RuleName: r.Name})
	}
}

// gwFlow is one live connection's whole gateway-side state in one flat 32 B
// record without a pointer: the scanner registers, the reassembly cursor and
// its class's number on the lane. An established flow is its 64 B flow-table
// entry, one cache line, and nothing else — no scanner object, no closure, no
// match buffer, and no held log unless its segments (or its FIN) arrive ahead
// of a gap. Each field states a fact the record holds nowhere else; a
// connection that has ended has no record at all, only a husk (flowEnd). What
// identifies the flow — its tuple, its lane, its gateway — is not repeated
// here; the lane passes it in. The record sits in its lane's flow table and
// every method runs on whichever goroutine owns that table at the time — the
// lane, or the control plane while the lanes are quiesced — so a gwFlow is
// single-goroutine.
type gwFlow struct {
	// regs is the connection's scanner registers, reset at open for its
	// class's generation and written only over its automaton: the class is
	// the one record of which. Meaningful only while it pins a generation.
	regs core.Regs
	// asm reorders the connection's segments and nothing more: how it
	// ends is the lane's to decide and the table's to remember (a husk, or
	// no entry). Its config, which keeps its held log, is the lane's, which
	// every call passes in; a new record's zero cursor is empty.
	asm reassembly.Cursor
	// class numbers the flow's gwClass on its lane from open to the flow
	// boundary (FIN/RST/eviction/quarantine/close), 0 once released; its
	// top bit, notifiedBit, says the verdict event has been reported.
	class uint32
}

const notifiedBit = 1 << 31

// gwClass is a (generation, rule) pair a lane's live flows are on, and how
// many. gen pins their ruleset generation from open to their boundary, so a
// connection scans against one automaton whatever reloads happen mid-flow
// (nil for a drop or pass verdict); rule indexes cfg.Rules, -1 for none. A
// class whose flows reach 0 is cleared, pinning no matcher, and reused.
type gwClass struct {
	gen   *gwGeneration
	rule  int32
	flows int32
}

// flowEnd is how a packet left its connection. Ended by FIN or by a
// quarantine, the connection settles into a husk marked with its flowEnd: a
// finished husk (TIME_WAIT, in spirit) discards stragglers as duplicates
// instead of respawning the flow, until a SYN revives the tuple as a new
// connection; a quarantined one discards them as quarantined traffic, a SYN
// included, until eviction or an RST removes it. An RST removes the entry
// at once, so a post-RST straggler starts a fresh flow (midstream pickup).
type flowEnd uint8

const (
	flowOpen flowEnd = iota
	flowFinished
	flowQuarantined
	flowReset
)

// connEntry and huskEntry are what one connection and one husk occupy in a
// lane's table, as the lane charges them to its share.
var connEntry, huskEntry = flowtable.EntryBytes[gwFlow]()

// gwLane is one scan lane — the software string matching engine — and the
// one owner of everything its packets touch: admission gate, queue,
// laneState, counters and its goroutine's working set, the tuple's flow
// (table entry, record, registers) included. A packet is accounted on its
// lane's block alone, so lanes share no written cache line on the packet
// path beyond Gateway.seq. The pad keeps the read-mostly header off the
// lines written per packet; the order of n's slots keeps admission's writes
// and the lane's apart (see gwCounter).
type gwLane struct {
	g *Gateway
	q chan seqPacket
	// table holds the flows pinned to this lane. The lane's goroutine is its
	// only writer while packets flow; the control plane takes over behind the
	// drain barrier (Gateway.eachLane, Close), and admission asks it nothing
	// but Has.
	table *flowtable.Table[gwFlow]
	// rules holds the per-rule counters, indexed by the rule's position in
	// cfg.Rules (not its ID — IDs may be sparse).
	rules []gwRuleCounters
	// share is the lane's part of MemoryBudget. asm is every flow's
	// reassembly config; its Budget is the lane's account of connections
	// and held bytes, to which charge adds the husks.
	share int
	asm   reassembly.Config

	_ [64]byte
	// gate orders admission against the control plane: Ingest holds it
	// shared across its send; Flush, SwapRules and Close hold every lane's
	// exclusively (Gateway.quiesce).
	gate sync.RWMutex
	laneState
	// n is the lane's counter block; see gwCounter.
	n [numCounters]atomic.Uint64

	// pub is what of table's counters n already has; see publishFlows.
	pub flowtable.Stats
	// matches is the scratch every flow on this lane scans into. It keeps
	// the capacity of the lane's most match-dense segment, so the memory
	// match buffers pin is bounded by lanes × worst segment, never by flows.
	matches []ac.Match
	form    []byte // the scratch a held piece folds into, for reassembly to copy
	// classes holds the lane's flow classes: class number k is classes[k-1].
	classes []gwClass
}

// open starts a connection on the record in its class on ln, the flow's
// lane, for the rule at index rule (-1 for none). A scanned connection pins
// the current generation and resets the registers for its automaton — the
// one place either happens, always together. open runs in the table's New,
// for a new tuple or a SYN reviving a husk, while that packet is in flight,
// so cur cannot move underneath it (see gwGeneration.flows).
func (fl *gwFlow) open(ln *gwLane, rule int) {
	var gen *gwGeneration
	if v := ln.g.verdict(rule); v == VerdictNone || v == VerdictAlert {
		gen = ln.g.cur.Load()
		gen.flows.Add(1)
		ln.n[cFlowsOpened].Add(1)
		fl.regs.Reset()
	}
	fl.class = ln.join(gen, int32(rule))
}

// join adds a flow to the lane's class (gen, rule) and returns its number.
func (ln *gwLane) join(gen *gwGeneration, rule int32) uint32 {
	i := slices.IndexFunc(ln.classes, func(c gwClass) bool { return c.flows > 0 && c.gen == gen && c.rule == rule })
	if i < 0 {
		if i = slices.Index(ln.classes, gwClass{}); i < 0 {
			i, ln.classes = len(ln.classes), append(ln.classes, gwClass{})
		}
		ln.classes[i] = gwClass{gen: gen, rule: rule}
	}
	ln.classes[i].flows++
	return uint32(i + 1)
}

// classOf returns the class of fl, a live record of the lane.
func (ln *gwLane) classOf(fl *gwFlow) *gwClass { return &ln.classes[fl.class&^notifiedBit-1] }

// release ends whatever the record holds at a flow boundary, and is the
// flow-table eviction callback: the record leaves its class, and its pin
// drops — when it was the last pin of a non-current generation, that
// generation is retired here, on the goroutine that ended the flow, so
// retirement needs no background sweeper — and buffered out-of-order bytes
// return to the budget of ln, the flow's lane, charged to its abandoned
// bucket: they were ingested but their flow is going away, so they will
// never be scanned. Every boundary reaches it through the table — Settle
// after a FIN, Remove after an RST, eviction, Close — except a quarantine,
// which releases the poisoned record under its own recover first; it is
// idempotent, so settling that record hands it here again with nothing
// left to count.
func (fl *gwFlow) release(ln *gwLane) {
	if fl.class&^notifiedBit != 0 {
		c := ln.classOf(fl)
		gen := c.gen
		if fl.class, c.flows = 0, c.flows-1; c.flows == 0 {
			*c = gwClass{}
		}
		if gen != nil && gen.flows.Add(-1) == 0 {
			ln.g.maybeRetire(gen)
		}
	}
	if n := fl.asm.Release(&ln.asm); n > 0 {
		ln.n[cAbandonedBytes].Add(uint64(n))
	}
}

// emitMatches reports one scan's matches, attributed to the packet p that
// completed them and to the rule (index idx, -1 for none) that admitted its
// flow or packet, converting with the generation that scanned.
func (ln *gwLane) emitMatches(gen *gwGeneration, p *seqPacket, idx int, ms []ac.Match) {
	v, rid := VerdictNone, -1
	if idx >= 0 {
		v, rid = VerdictAlert, ln.g.cfg.Rules[idx].ID
	}
	for _, am := range ms {
		if idx >= 0 {
			ln.rules[idx].matches.Add(1)
		}
		ln.n[cMatches].Add(1)
		ln.g.emit(FlowMatch{Tuple: p.tuple, Match: gen.m.convert(am, p.seq), Verdict: v, RuleID: rid})
	}
}

// ingest processes one segment of a live connection on the lane that owns
// it, and reports how the packet left the connection: open, or ended by FIN
// or RST — which the lane applies to the table once Do returns, the table
// handing the record to release as it settles or removes the entry.
//
// Byte accounting here is transactional: each bucket add happens only after
// the operation that consumed the bytes returned, so when a scan (or a
// user callback) panics mid-packet, none of that packet's bytes are
// committed and the quarantine path charges them in one place.
func (fl *gwFlow) ingest(ln *gwLane, p seqPacket, tick uint64) flowEnd {
	c := *ln.classOf(fl)
	v := ln.g.verdict(int(c.rule))
	if fl.class&notifiedBit == 0 {
		fl.class |= notifiedBit
		ln.notifyVerdict(p.tuple, v, int(c.rule))
	}
	// RST tears the connection down whatever its verdict — a dropped or
	// passed flow must not pin a table slot after the endpoints abort it.
	// An RST's own payload is never scanned: abandoned, like the buffered
	// bytes the table's Remove hands to release.
	if p.flags&FlagRST != 0 {
		ln.n[cFlowsReset].Add(1)
		ln.n[cAbandonedBytes].Add(uint64(len(p.payload)))
		return flowReset
	}
	switch v {
	case VerdictDrop:
		ln.n[cDroppedBytes].Add(uint64(len(p.payload)))
		return flowOpen
	case VerdictPass:
		ln.n[cPassedBytes].Add(uint64(len(p.payload)))
		return flowOpen
	}
	// Explicit flag translation: the gateway and reassembly bit values
	// happen to coincide, but relying on that would let a renumbering in
	// either package silently misroute FIN/SYN. The reassembler has no RST:
	// tearing a connection down is the table's, above.
	var rf reassembly.Flags
	if p.flags&FlagFIN != 0 {
		rf |= reassembly.FIN
	}
	if p.flags&FlagSYN != 0 {
		rf |= reassembly.SYN
	}
	// A held piece is scanned as it is held, on the flow's own automaton,
	// and keeps only what a later scan of it could still change; delivery
	// resumes it from the true registers when its hole fills: data is n
	// stream bytes, or the fold of them reassembly held.
	m := c.gen.m.machine
	fold := reassembly.Fold{Prefix: core.FoldPrefix, Encode: func(piece []byte) []byte {
		ln.form, ln.matches = m.Fold(ln.form[:0], piece, ln.matches[:0])
		return ln.form
	}}
	res := fl.asm.Segment(&ln.asm, p.seq32, p.payload, rf, tick, &fold,
		func(data []byte, n, skipped int) {
			fl.regs.SkipAhead(skipped)
			ln.matches = m.Resume(&fl.regs, data, n, ln.matches[:0])
			if len(ln.matches) > 0 {
				ln.emitMatches(c.gen, &p, int(c.rule), ln.matches)
			}
		})
	ln.n[cReassembledBytes].Add(uint64(res.Delivered))
	ln.n[cScannedBytes].Add(uint64(res.Delivered))
	if res.Buffered > 0 {
		ln.n[cOutOfOrderSegs].Add(1)
	}
	if res.Duplicate > 0 {
		ln.n[cDuplicateBytes].Add(uint64(res.Duplicate))
	}
	if res.Dropped > 0 {
		ln.n[cReassemblyDrops].Add(uint64(res.Dropped))
	}
	if res.Skipped > 0 {
		ln.n[cGapSkips].Add(1)
		ln.n[cGapSkippedBytes].Add(uint64(res.Skipped))
	}
	if res.Abandoned > 0 {
		ln.n[cAbandonedBytes].Add(uint64(res.Abandoned))
	}
	if res.Event == reassembly.EventFinished {
		ln.n[cFlowsFinished].Add(1)
		return flowFinished
	}
	return flowOpen
}

// contain is ingest under panic containment, run inside the table's Do: a
// panic anywhere under the flow (a scanner bug, a hostile payload
// tripping an invariant, a user emit/OnVerdict callback) quarantines the
// connection, whose registers nothing reads again: the record is released
// here, before the lane touches its table again, so no eviction can slip
// between the panic and the quarantine, and the lane then settles the entry
// into a quarantined husk. The byte ledger stays exact: ingest
// commits transactionally, so none of the panicking packet's bytes are in a
// bucket yet, and the quarantine bucket is charged the packet's payload plus
// whatever buffered bytes the aborted delivery drained before blowing up —
// payload + held before − held now; the bytes still held land in the
// abandoned bucket via the release.
func (fl *gwFlow) contain(ln *gwLane, p seqPacket, tick uint64) (end flowEnd) {
	held := fl.asm.HeldBytes(&ln.asm)
	defer func() {
		if recover() == nil {
			return
		}
		// The outcome is set first so it holds even if the release below
		// panics in turn.
		end = flowQuarantined
		ln.n[cPanics].Add(1)
		ln.n[cQuarantinedFlows].Add(1)
		ln.n[cQuarantinedPackets].Add(1)
		if delta := len(p.payload) + held - fl.asm.HeldBytes(&ln.asm); delta > 0 {
			ln.n[cQuarantinedBytes].Add(uint64(delta))
		}
		// The flow is already poisoned; if releasing it panics too, give up
		// on its resources but keep the gateway and the charge above intact.
		defer func() { _ = recover() }()
		fl.release(ln)
	}()
	return fl.ingest(ln, p, tick)
}

// straggler accounts a packet that reached a husk and says what becomes of
// it: an RST removes it, its payload abandoned; a SYN revives a finished one;
// anything else is discarded, as a duplicate or, on a quarantined husk (a
// SYN included), as quarantined traffic.
func (ln *gwLane) straggler(p *seqPacket, mark uint8) flowtable.Action {
	n := uint64(len(p.payload))
	switch {
	case p.flags&FlagRST != 0:
		ln.n[cAbandonedBytes].Add(n)
		return flowtable.Remove
	case flowEnd(mark) == flowQuarantined:
		ln.n[cQuarantinedPackets].Add(1)
		ln.n[cQuarantinedBytes].Add(n)
		return flowtable.Keep
	case p.flags&FlagSYN != 0:
		return flowtable.Revive
	}
	ln.n[cDuplicateBytes].Add(n)
	return flowtable.Keep
}

// run is the lane's goroutine: every packet of a given tuple lands on the
// same lane (hash-pinned at admission), so writes into a flow's scanner
// state are ordered with no locking at all, and one sender's datagrams are
// emitted in ingest order. It is the
// queue's only receiver, so on waking for one packet it takes the len(q)
// more that are already there as one vector, and publishes its flow counters
// and lowers its depth — one watchdog stamp, one clock read — once per vector.
func (ln *gwLane) run() {
	defer ln.g.workerWg.Done()
	for p := range ln.q {
		n := 1 + len(ln.q)
		ln.streamPacket(p)
		for i := 1; i < n; i++ {
			ln.streamPacket(<-ln.q)
		}
		ln.publishFlows()
		ln.done(n)
	}
}

// publishFlows adds what the lane's table has counted since the last call to
// the lane's counter block, where Stats and Metrics can read it whatever
// the lane is doing. Called by the table's owner of the moment, before it
// lets go: the lane ahead of lowering its depth, the control plane ahead of
// resume — so a drained snapshot is exact.
func (ln *gwLane) publishFlows() {
	ts := ln.table.Stats()
	if ts == ln.pub {
		return
	}
	n := &ln.n
	n[cFlowsLive].Add(uint64(ts.Live - ln.pub.Live)) // two's complement: a fall wraps to a subtraction
	n[cFlowHusks].Add(uint64(ts.Husks - ln.pub.Husks))
	n[cFlowsCreated].Add(ts.Created - ln.pub.Created)
	n[cFlowsEvictedCap].Add(ts.EvictedCap - ln.pub.EvictedCap)
	n[cFlowsEvictedIdle].Add(ts.EvictedIdle - ln.pub.EvictedIdle)
	n[cFlowsRemoved].Add(ts.Removed - ln.pub.Removed)
	ln.pub = ts
}

// streamPacket runs one packet through its flow, or scans it in place when
// it is stateless, and is the lane's one containment: it always returns, so
// the lane's depth decrement cannot be skipped and Flush cannot wedge on a
// packet that blew up. Panics under a flow are contained inside the table's
// Do (gwFlow.contain) and quarantine that one flow; the recover here
// catches what runs outside a flow. Before Do returns — flow construction,
// an eviction the lookup triggered, a datagram's verdict callback, scan or
// emit — there is no record to quarantine and none of the packet's bytes
// are committed yet, so the packet's payload is charged to the quarantine
// bucket. After it — settling the flow, evicting to fit the share — they
// are, so only the panic is counted. Either way the lane moves on to its
// next packet.
func (ln *gwLane) streamPacket(p seqPacket) {
	committed := false
	defer func() {
		if recover() != nil {
			ln.n[cPanics].Add(1)
			if !committed {
				ln.n[cQuarantinedPackets].Add(1)
				ln.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
			}
		}
	}()
	if p.tuple.Proto != ProtoTCP {
		ln.datagram(&p)
		return
	}
	ln.n[cStreamPackets].Add(1)
	end := flowOpen
	ln.table.Do(p.tuple, func(fl *gwFlow) {
		// The reassembly gap clock is the lane table's, which Do has just
		// advanced for this packet: stream packets through the gateway, the
		// same logical clock IdleTimeout runs on.
		end = fl.contain(ln, p, ln.table.Clock())
	}, func(mark uint8) flowtable.Action { return ln.straggler(&p, mark) })
	committed = true
	switch end {
	case flowFinished, flowQuarantined:
		ln.table.Settle(p.tuple, uint8(end))
	case flowReset:
		ln.table.Remove(p.tuple)
	}
	// Over its share the lane evicts husks first — held bytes only take what
	// connections leave — then connections but the packet's own, which may
	// leave it over by that one entry.
	for ln.charge() > ln.share && ln.table.EvictOldest(p.tuple) {
	}
}

// charge is what the lane holds against its share: its account, and its
// husks, which the account leaves out.
func (ln *gwLane) charge() int { return ln.asm.Budget.Cost() + ln.table.Stats().Husks*huskEntry }

// datagram scans one stateless packet where it landed: there is no flow to
// remember a decision on, so the verdict stage runs per packet — drop/pass
// packets never reach the scan, and matches on an alert-admitted packet carry
// the rule attribution — and the payload is scanned whole from
// start-of-packet registers against the generation current now (cur is
// frozen while this packet holds the lane's depth). Each byte bucket is
// committed only after what consumed the bytes returned — ScannedBytes after
// emit — so a panic anywhere in here leaves the packet uncommitted for
// streamPacket's recover to charge: it costs exactly this datagram.
func (ln *gwLane) datagram(p *seqPacket) {
	ln.n[cBatchPackets].Add(1)
	idx := ln.g.classify(p.tuple)
	v := ln.g.verdict(idx)
	ln.notifyVerdict(p.tuple, v, idx)
	n := uint64(len(p.payload))
	switch v {
	case VerdictDrop:
		ln.n[cDroppedBytes].Add(n)
		return
	case VerdictPass:
		ln.n[cPassedBytes].Add(n)
		return
	}
	gen := ln.g.cur.Load()
	var r core.Regs
	r.Reset()
	ln.matches = gen.m.machine.ScanAppend(&r, p.payload, ln.matches[:0])
	if len(ln.matches) > 0 {
		ln.emitMatches(gen, p, idx, ln.matches)
	}
	ln.n[cScannedBytes].Add(n)
}
