package dpi

// The second stage: flow records, lanes, panic containment.

import (
	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/reassembly"
)

// classify runs the header rules over one 5-tuple: first matching rule
// wins; no rule means scan without attribution.
func (g *Gateway) classify(t FiveTuple) (Verdict, int) {
	for i := range g.cfg.Rules {
		if g.cfg.Rules[i].Header.Matches(t) {
			v := g.cfg.Rules[i].Verdict
			if v == VerdictNone {
				v = VerdictAlert
			}
			return v, i
		}
	}
	return VerdictNone, -1
}

// notifyVerdict counts a rule decision on the shard that made it and
// forwards it to OnVerdict.
func (g *Gateway) notifyVerdict(sh *gwEngineShard, t FiveTuple, v Verdict, idx int) {
	if idx < 0 {
		return
	}
	sh.rules[idx].flows.Add(1)
	switch v {
	case VerdictAlert:
		sh.n[cVerdictAlerts].Add(1)
	case VerdictDrop:
		sh.n[cVerdictDrops].Add(1)
	case VerdictPass:
		sh.n[cVerdictPasses].Add(1)
	}
	if g.cfg.OnVerdict != nil {
		r := &g.cfg.Rules[idx]
		g.cfg.OnVerdict(FlowVerdict{Tuple: t, Verdict: v, RuleID: r.ID, RuleName: r.Name})
	}
}

// gwFlow is one live connection's whole gateway-side state in one flat
// record: the scanner registers, the reassembly stream and the verdict, all
// by value. An established flow is its flow-table entry, which holds this
// record by value, and nothing else — no scanner object, no closure, no
// match buffer, and no out-of-order state unless its segments (or its FIN)
// arrive ahead of a gap. Each field states a fact the record holds nowhere
// else; a connection that has ended has no record at all, only a husk
// (flowEnd). The lane that owns the flow's packets scans into its own
// scratch (gwLane.matches) and emits with the record's fields. What
// identifies the flow — its tuple, its shard, its gateway — is not repeated
// here; the lane passes it in. The record sits in its lane's flow table and
// every method runs on whichever goroutine owns that table at the time — the
// lane, or the control plane while the lanes are quiesced — so a gwFlow is
// single-goroutine.
type gwFlow struct {
	// gen is the ruleset generation this flow is pinned to, taken at open
	// and held until the flow boundary (FIN/RST/eviction/quarantine/
	// close): every byte of the connection scans against one automaton,
	// whatever reloads happen mid-flow. Non-nil exactly while the record
	// holds a live connection's registers; nil when unpinned (drop/pass
	// verdict flows, a record released at its boundary). A SYN reviving a
	// husk pins the then-current generation: it is a new connection.
	gen *gwGeneration
	// regs is the connection's scanner registers, reset at open for gen's
	// automaton and written only over it: gen is the one record of which
	// automaton they belong to. Meaningful only while gen is non-nil.
	regs core.Regs
	// asm reorders FlagSeq segments and nothing more: how the connection
	// ends is the lane's to decide and the table's to remember (a husk, or
	// no entry). Its config is the gateway's, which every call passes in;
	// a new record's zero cursor is empty.
	asm     reassembly.Cursor
	ruleIdx int32 // index into cfg.Rules; -1 when no rule matched
	verdict Verdict
	// notified: the connection's verdict event has been reported.
	notified bool
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

// gwLane is one scan lane: its queue, what admission and the control plane
// see of it (laneState), and its goroutine-owned working set. Every packet of
// a tuple lands on the same lane, so the lane owns the tuple's flow — table
// entry, record, registers — and what a scan needs only while it runs. The
// pads keep the three kinds of field — read-mostly, written by admission per
// packet, written by the lane per packet — off each other's cache lines.
type gwLane struct {
	g  *Gateway
	sh *gwEngineShard
	q  chan seqPacket
	// table holds the flows pinned to this lane. The lane's goroutine is its
	// only writer while packets flow; the control plane takes over behind the
	// drain barrier (Gateway.eachLane, Close), and admission asks it nothing
	// but Has.
	table *flowtable.Table[gwFlow]

	_ [64]byte
	laneState
	_ [64]byte

	// pub is what of table's counters the shard block already has; see
	// publishFlows.
	pub flowtable.Stats
	// matches is the scratch every flow on this lane scans into. It keeps
	// the capacity of the lane's most match-dense segment, so the memory
	// match buffers pin is bounded by lanes × worst segment, never by flows.
	matches []ac.Match
}

// open starts a connection on the record: it pins the current ruleset
// generation and resets the scanner registers for that generation's
// automaton — the one place either happens, always together — and counts
// the connection on sh, the flow's shard. It runs in the table's New, on a
// fresh record, for a new tuple or a SYN reviving a husk, and only while
// that packet is in flight, so cur cannot move underneath it — see
// gwGeneration.flows.
func (fl *gwFlow) open(g *Gateway, sh *gwEngineShard) {
	gen := g.cur.Load()
	gen.flows.Add(1)
	fl.gen = gen
	sh.n[cEngFlowsOpened].Add(1)
	fl.regs.Reset()
}

// release ends whatever the record holds at a flow boundary, and is the
// flow-table eviction callback: the generation pin drops — when it was the
// last pin of a non-current generation, that generation is retired here, on
// the goroutine that ended the flow, so retirement needs no background
// sweeper — and buffered out-of-order bytes return to the shared budget,
// charged to the abandoned bucket of sh, the flow's shard: they were
// ingested but their flow is going away, so they will never be scanned.
// Every boundary reaches it through the table — Settle after a FIN,
// Remove after an RST, eviction, Close — except a quarantine, which
// releases the poisoned record under its own recover first; it is
// idempotent, so settling that record hands it here again with nothing
// left to count.
func (fl *gwFlow) release(g *Gateway, sh *gwEngineShard) {
	if gen := fl.gen; gen != nil {
		fl.gen = nil
		if gen.flows.Add(-1) == 0 {
			g.maybeRetire(gen)
		}
	}
	if n := fl.asm.Release(&g.asmCfg); n > 0 {
		sh.n[cAbandonedBytes].Add(uint64(n))
	}
}

// emitMatches reports one scan's matches, attributed to the packet p that
// completed them and to the rule (index idx, -1 for none) that admitted its
// flow or packet, converting with the generation that scanned.
func (g *Gateway) emitMatches(sh *gwEngineShard, gen *gwGeneration, p *seqPacket, idx int, ms []ac.Match) {
	v, rid := VerdictNone, -1
	if idx >= 0 {
		v, rid = VerdictAlert, g.cfg.Rules[idx].ID
	}
	for _, am := range ms {
		if idx >= 0 {
			sh.rules[idx].matches.Add(1)
		}
		sh.n[cMatches].Add(1)
		g.emit(FlowMatch{Tuple: p.tuple, Match: gen.m.convert(am, p.seq), Verdict: v, RuleID: rid})
	}
}

// scan writes one in-order chunk through the flow's registers into the
// lane's scratch and emits what it completed.
func (fl *gwFlow) scan(ln *gwLane, p *seqPacket, chunk []byte) {
	ln.matches = fl.gen.m.machine.ScanAppend(&fl.regs, chunk, ln.matches[:0])
	ln.sh.n[cEngStreamBytes].Add(uint64(len(chunk)))
	if len(ln.matches) > 0 {
		ln.g.emitMatches(ln.sh, fl.gen, p, int(fl.ruleIdx), ln.matches)
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
	g, sh := ln.g, ln.sh
	if !fl.notified {
		fl.notified = true
		g.notifyVerdict(sh, p.tuple, fl.verdict, int(fl.ruleIdx))
	}
	// RST tears the connection down whatever its verdict — a dropped or
	// passed flow must not pin a table slot after the endpoints abort it.
	// An RST's own payload is never scanned: abandoned, like the buffered
	// bytes the table's Remove hands to release.
	if p.flags&FlagRST != 0 {
		sh.n[cFlowsReset].Add(1)
		sh.n[cAbandonedBytes].Add(uint64(len(p.payload)))
		return flowReset
	}
	switch fl.verdict {
	case VerdictDrop:
		sh.n[cDroppedBytes].Add(uint64(len(p.payload)))
		return flowOpen
	case VerdictPass:
		sh.n[cPassedBytes].Add(uint64(len(p.payload)))
		return flowOpen
	}
	if p.gap > 0 {
		// Bytes shed at admission (see Gateway.pendingGaps) sit between
		// the flow's last scanned byte and this packet: invalidate scanner
		// state across them so no match spans bytes the scanner never saw,
		// keeping later offsets absolute in the true stream. Not a
		// reassembly gap — GapSkips is untouched; the shed bytes are
		// already in the Shed bucket.
		fl.regs.SkipAhead(p.gap)
	}
	if p.flags&FlagSeq == 0 {
		// Pre-reassembly semantics: the feed vouches for ordering and the
		// bytes append at the flow's current stream position.
		fl.scan(ln, &p, p.payload)
		sh.n[cScannedBytes].Add(uint64(len(p.payload)))
		if p.flags&FlagFIN != 0 {
			sh.n[cFlowsFinished].Add(1)
			return flowFinished
		}
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
	res := fl.asm.Segment(&g.asmCfg, p.seq32, p.payload, rf, tick,
		func(chunk []byte, skipped int) {
			fl.regs.SkipAhead(skipped)
			fl.scan(ln, &p, chunk)
		})
	sh.n[cReassembledBytes].Add(uint64(res.Delivered))
	sh.n[cScannedBytes].Add(uint64(res.Delivered))
	if res.Buffered > 0 {
		sh.n[cOutOfOrderSegs].Add(1)
	}
	if res.Duplicate > 0 {
		sh.n[cDuplicateBytes].Add(uint64(res.Duplicate))
	}
	if res.Dropped > 0 {
		sh.n[cReassemblyDrops].Add(uint64(res.Dropped))
	}
	if res.Skipped > 0 {
		sh.n[cGapSkips].Add(1)
		sh.n[cGapSkippedBytes].Add(uint64(res.Skipped))
	}
	if res.Abandoned > 0 {
		sh.n[cAbandonedBytes].Add(uint64(res.Abandoned))
	}
	if res.Event == reassembly.EventFinished {
		sh.n[cFlowsFinished].Add(1)
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
	held := fl.asm.HeldBytes()
	defer func() {
		if recover() == nil {
			return
		}
		// The outcome is set first so it holds even if the release below
		// panics in turn.
		end = flowQuarantined
		sh := ln.sh
		sh.n[cPanics].Add(1)
		sh.n[cQuarantinedFlows].Add(1)
		sh.n[cQuarantinedPackets].Add(1)
		if delta := len(p.payload) + held - fl.asm.HeldBytes(); delta > 0 {
			sh.n[cQuarantinedBytes].Add(uint64(delta))
		}
		// The flow is already poisoned; if releasing it panics too, give up
		// on its resources but keep the gateway and the charge above intact.
		defer func() { _ = recover() }()
		fl.release(ln.g, sh)
	}()
	return fl.ingest(ln, p, tick)
}

// straggler accounts a packet that reached a husk and says what becomes of
// it: an RST removes it, its payload abandoned; a SYN revives a finished one;
// anything else is discarded, as a duplicate or, on a quarantined husk (a
// SYN included), as quarantined traffic.
func (ln *gwLane) straggler(p *seqPacket, mark uint8) flowtable.Action {
	sh, n := ln.sh, uint64(len(p.payload))
	switch {
	case p.flags&FlagRST != 0:
		sh.n[cAbandonedBytes].Add(n)
		return flowtable.Remove
	case flowEnd(mark) == flowQuarantined:
		sh.n[cQuarantinedPackets].Add(1)
		sh.n[cQuarantinedBytes].Add(n)
		return flowtable.Keep
	case p.flags&FlagSYN != 0:
		return flowtable.Revive
	}
	sh.n[cDuplicateBytes].Add(n)
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
// the shard's counter block, where Stats and Metrics can read it whatever
// the lane is doing. Called by the table's owner of the moment, before it
// lets go: the lane ahead of lowering its depth, the control plane ahead of
// resume — so a drained snapshot is exact.
func (ln *gwLane) publishFlows() {
	ts := ln.table.Stats()
	if ts == ln.pub {
		return
	}
	n := &ln.sh.n
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
// catches what runs outside a flow — flow construction, an eviction the
// lookup triggered, a datagram's verdict callback, scan or emit — where
// there is no record to quarantine and none of the packet's bytes are
// committed yet, so the packet's payload is charged to the quarantine bucket
// and the lane moves on to its next packet.
func (ln *gwLane) streamPacket(p seqPacket) {
	sh := ln.sh
	defer func() {
		if recover() != nil {
			sh.n[cPanics].Add(1)
			sh.n[cQuarantinedPackets].Add(1)
			sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		}
	}()
	if p.tuple.Proto != ProtoTCP {
		ln.datagram(&p)
		return
	}
	sh.n[cStreamPackets].Add(1)
	end := flowOpen
	ln.table.Do(p.tuple, func(fl *gwFlow) {
		// The reassembly gap clock is the lane table's, which Do has just
		// advanced for this packet: stream packets through the gateway, the
		// same logical clock IdleTimeout runs on.
		end = fl.contain(ln, p, ln.table.Clock())
	}, func(mark uint8) flowtable.Action { return ln.straggler(&p, mark) })
	switch end {
	case flowFinished, flowQuarantined:
		ln.table.Settle(p.tuple, uint8(end))
	case flowReset:
		ln.table.Remove(p.tuple)
	}
}

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
	g, sh := ln.g, ln.sh
	sh.n[cBatchPackets].Add(1)
	v, idx := g.classify(p.tuple)
	g.notifyVerdict(sh, p.tuple, v, idx)
	n := uint64(len(p.payload))
	switch v {
	case VerdictDrop:
		sh.n[cDroppedBytes].Add(n)
		return
	case VerdictPass:
		sh.n[cPassedBytes].Add(n)
		return
	}
	gen := g.cur.Load()
	var r core.Regs
	r.Reset()
	ln.matches = gen.m.machine.ScanAppend(&r, p.payload, ln.matches[:0])
	sh.n[cEngBatchPkts].Add(1)
	sh.n[cEngBatchBytes].Add(n)
	if len(ln.matches) > 0 {
		g.emitMatches(sh, gen, p, idx, ln.matches)
	}
	sh.n[cScannedBytes].Add(n)
}
