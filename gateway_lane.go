package dpi

// The second stage: flow records, stream lanes, burst scanners, panic containment.

import (
	"repro/internal/ac"
	"repro/internal/engine"
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

// gwFlow is one connection's whole gateway-side state in one flat record:
// the scanner registers, the reassembly stream and the verdict, all by
// value. An established flow is this record plus its flow-table entry and
// nothing else — no scanner object, no closure, no match buffer: the lane
// that owns the flow's packets scans into its own scratch (gwLane.matches)
// and emits with the record's fields. What identifies the flow — its tuple,
// its shard, its gateway — is not repeated here; the lane passes it in. All
// methods run under the flow-table entry lock, so a gwFlow is effectively
// single-goroutine.
type gwFlow struct {
	// gen is the ruleset generation this flow is pinned to, taken at open
	// and held until the flow boundary (FIN/RST/eviction/quarantine/
	// close): every byte of the connection scans against one automaton,
	// whatever reloads happen mid-flow. Non-nil exactly while the record
	// holds a live connection's registers; nil when unpinned (drop/pass
	// verdict flows, husks). A SYN re-open pins the then-current
	// generation, because it is a new connection.
	gen *gwGeneration
	// st is the connection's scanner registers, stamped at open with the
	// generation of the automaton they were reset for — the tag the
	// hot-reload audit checks against gen. Meaningful only while gen is
	// non-nil.
	st engine.FlowState
	// asm reorders FlagSeq segments; initialized at open, so a record that
	// was never opened holds the zero Stream.
	asm     reassembly.Stream
	ruleIdx int32 // index into cfg.Rules; -1 when no rule matched
	verdict Verdict
	// notified: the connection's verdict event has been reported.
	notified bool
	// done marks a connection completed by FIN. The entry lingers as a
	// husk (TIME_WAIT, in spirit) so straggling retransmissions are
	// recognized and discarded instead of respawning the flow; a SYN
	// re-opens it, in place, as a new connection. An RST, by contrast,
	// removes the entry from the table immediately — a post-RST straggler
	// therefore starts a fresh flow (midstream pickup), like any unseen
	// tuple.
	done bool
	// quarantined marks a flow whose scan panicked. The entry lingers as a
	// husk like done's, discarding stragglers (counted) without touching
	// its registers, but a SYN does not re-open it: the tuple is inspected
	// again only after the husk is evicted or an RST removes it.
	quarantined bool
}

// gwLane is one stream lane's goroutine-owned working set. Every packet of
// a flow lands on the same lane, so the lane — not the flow — owns what a
// scan needs only while it runs.
type gwLane struct {
	g  *Gateway
	sh *gwEngineShard
	ls *laneState
	// matches is the scratch every flow on this lane scans into. It keeps
	// the capacity of the lane's most match-dense segment, so the memory
	// match buffers pin is bounded by lanes × worst segment, never by flows.
	matches []ac.Match
}

// open starts a connection on the record: it pins the current ruleset
// generation, resets the scanner registers for that generation's automaton
// (stamping them with its generation), counts the connection on sh — the
// flow's shard — and empties the reassembly stream. On a husk this re-opens
// in place — nothing is allocated. open only runs while the packet creating
// (or SYN-reopening) the flow is in flight, so cur cannot move underneath
// it — see gwGeneration.flows.
func (fl *gwFlow) open(g *Gateway, sh *gwEngineShard) {
	gen := g.cur.Load()
	gen.flows.Add(1)
	fl.gen = gen
	sh.n[cEngFlowsOpened].Add(1)
	fl.st.Open(gen.m.grouped)
	fl.asm.Init(&g.asmCfg)
}

// release ends whatever the record holds at a flow boundary, and is the
// flow-table eviction callback: the generation pin drops — when it was the
// last pin of a non-current generation, that generation is retired here, on
// the goroutine that ended the flow, so retirement needs no background
// sweeper — and buffered out-of-order bytes return to the shared budget,
// charged to the abandoned bucket of sh, the flow's shard: they were
// ingested but their flow is going away, so they will never be scanned.
// Idempotent: a husk holds neither, so finish → later eviction does not
// double-count.
func (fl *gwFlow) release(g *Gateway, sh *gwEngineShard) {
	if gen := fl.gen; gen != nil {
		fl.gen = nil
		if gen.flows.Add(-1) == 0 {
			g.maybeRetire(gen)
		}
	}
	if n := fl.asm.Release(); n > 0 {
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
	ln.matches = fl.st.Write(fl.gen.m.grouped, chunk, ln.matches[:0])
	ln.sh.n[cEngStreamBytes].Add(uint64(len(chunk)))
	if len(ln.matches) > 0 {
		ln.g.emitMatches(ln.sh, fl.gen, p, int(fl.ruleIdx), ln.matches)
	}
}

// ingest processes one segment on the lane that owns the flow. It reports
// whether the flow should be removed from the table right now (RST
// teardown).
//
// Byte accounting here is transactional: each bucket add happens only after
// the operation that consumed the bytes returned, so when a scan (or a
// user callback) panics mid-packet, none of that packet's bytes are
// committed and the quarantine path charges them in one place.
func (fl *gwFlow) ingest(ln *gwLane, p seqPacket, tick uint64) bool {
	g, sh := ln.g, ln.sh
	if !fl.notified {
		fl.notified = true
		g.notifyVerdict(sh, p.tuple, fl.verdict, int(fl.ruleIdx))
	}
	// RST tears the connection down whatever its verdict or husk state —
	// a dropped/passed or FIN-closed flow must not pin a table slot after
	// the endpoints abort it. An RST's own payload is never scanned:
	// abandoned, like the buffered bytes the release returns; the caller
	// removes the table entry.
	if p.flags&FlagRST != 0 {
		if !fl.done {
			sh.n[cFlowsReset].Add(1)
		}
		fl.release(g, sh)
		fl.done = true
		sh.n[cAbandonedBytes].Add(uint64(len(p.payload)))
		return true
	}
	if fl.quarantined {
		sh.n[cQuarantinedPackets].Add(1)
		sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		return false
	}
	switch fl.verdict {
	case VerdictDrop:
		sh.n[cDroppedBytes].Add(uint64(len(p.payload)))
		return false
	case VerdictPass:
		sh.n[cPassedBytes].Add(uint64(len(p.payload)))
		return false
	}
	if fl.done {
		if p.flags&FlagSYN == 0 {
			sh.n[cDuplicateBytes].Add(uint64(len(p.payload)))
			return false
		}
		// A SYN on a closed tuple is a new connection: the husk's registers
		// and reassembly positions are reset where they sit — and it gets
		// its own verdict event (the once-per-connection contract follows
		// connections, not table entries).
		fl.done = false
		fl.open(g, sh)
		g.notifyVerdict(sh, p.tuple, fl.verdict, int(fl.ruleIdx))
	}
	if p.gap > 0 {
		// Bytes shed at admission (see Gateway.pendingGaps) sit between
		// the flow's last scanned byte and this packet: invalidate scanner
		// state across them so no match spans bytes the scanner never saw,
		// keeping later offsets absolute in the true stream. Not a
		// reassembly gap — GapSkips is untouched; the shed bytes are
		// already in the Shed bucket.
		fl.st.SkipGap(p.gap)
	}
	if p.flags&FlagSeq == 0 {
		// Pre-reassembly semantics: the feed vouches for ordering and the
		// bytes append at the flow's current stream position.
		fl.scan(ln, &p, p.payload)
		sh.n[cScannedBytes].Add(uint64(len(p.payload)))
		if p.flags&FlagFIN != 0 {
			fl.finish(ln)
		}
		return false
	}
	// Explicit flag translation: the gateway and reassembly bit values
	// happen to coincide, but relying on that would let a renumbering in
	// either package silently misroute FIN/SYN. RST never reaches the
	// reassembler — it returned above.
	var rf reassembly.Flags
	if p.flags&FlagFIN != 0 {
		rf |= reassembly.FIN
	}
	if p.flags&FlagSYN != 0 {
		rf |= reassembly.SYN
	}
	res := fl.asm.Segment(p.seq32, p.payload, rf, tick,
		func(chunk []byte, skipped int) {
			fl.st.SkipGap(skipped)
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
		fl.finish(ln)
	}
	return false
}

// finish retires a FIN-completed connection: the generation pin and any
// buffered bytes are released immediately instead of waiting for table
// eviction; the husk entry stays behind to absorb stragglers.
func (fl *gwFlow) finish(ln *gwLane) {
	fl.release(ln.g, ln.sh)
	fl.done = true
	ln.sh.n[cFlowsFinished].Add(1)
}

// quarantine retires a flow whose scan panicked. The panic may have left
// its registers mid-update; nothing ever reads them again — a quarantined
// husk is not re-opened, and registers are never handed from one record to
// another. Buffered bytes are abandoned like any teardown. The entry stays
// in the table as a husk absorbing stragglers. The mark is set first so it
// holds even if the release below panics in turn.
func (fl *gwFlow) quarantine(ln *gwLane) {
	fl.quarantined = true
	fl.release(ln.g, ln.sh)
	fl.done = true
}

// contain is ingest under panic containment, run inside the flow's entry
// lock: a panic anywhere under the flow (a scanner bug, a hostile payload
// tripping an invariant, a user emit/OnVerdict callback) quarantines this
// record where it sits, before the lock is dropped, so no eviction can slip
// between the panic and the quarantine. The byte ledger stays exact: ingest
// commits transactionally, so none of the panicking packet's bytes are in a
// bucket yet, and the quarantine bucket is charged the packet's payload plus
// whatever buffered bytes the aborted delivery drained before blowing up —
// payload + held before − held now; the bytes still held land in the
// abandoned bucket via the quarantine's release.
func (fl *gwFlow) contain(ln *gwLane, p seqPacket, tick uint64) (remove bool) {
	held := fl.asm.HeldBytes()
	defer func() {
		if recover() == nil {
			return
		}
		remove = false
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
		fl.quarantine(ln)
	}()
	return fl.ingest(ln, p, tick)
}

// streamWorker owns one per-flow lane: every packet of a given flow lands
// on the same lane (hash-pinned at admission), so writes into the
// flow's scanner state are ordered without per-packet locking beyond the
// flow table's entry lock.
func (g *Gateway) streamWorker(ln *gwLane, q <-chan seqPacket) {
	defer g.workerWg.Done()
	for p := range q {
		ln.streamPacket(p)
	}
}

// streamPacket runs one packet through its flow. Panics under the flow are
// contained inside the entry lock (gwFlow.contain) and quarantine that one
// flow; the recover here catches only what runs outside an entry — flow
// construction, an eviction the lookup triggered — where there is no record
// to quarantine and none of the packet's bytes are committed yet, so the
// packet's payload is charged to the quarantine bucket and the gateway keeps
// running. The lane's depth is lowered (and its watchdog stamped) in the same
// defer chain, so Flush cannot wedge on a packet that blew up.
func (ln *gwLane) streamPacket(p seqPacket) {
	g, sh := ln.g, ln.sh
	defer ln.ls.done(1)
	defer func() {
		if recover() != nil {
			sh.n[cPanics].Add(1)
			sh.n[cQuarantinedPackets].Add(1)
			sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		}
	}()
	sh.n[cStreamPackets].Add(1)
	// The reassembly gap clock is the flow table's: gateway-wide stream
	// packets, the same logical clock IdleTimeout runs on. The lookup below
	// ticks it, so this packet's tick is at least the value read here plus
	// one — and strictly above the tick of the lane's previous packet, which
	// is all a flow (pinned to this lane) needs of it.
	tick := g.table.Clock() + 1
	var removeNow bool
	g.table.DoHashed(p.tuple, p.hash, func(fl *gwFlow) {
		removeNow = fl.contain(ln, p, tick)
	})
	if removeNow {
		// RST teardown: the same lane owns every packet of this flow,
		// so no concurrent Do on the tuple can interleave here.
		g.table.Remove(p.tuple)
	}
}

// burstScanner scans one shard's stateless bursts. The verdict stage runs
// per packet here (stateless traffic has no flow to remember a decision
// on): drop/pass packets never reach the scan, and matches on
// alert-admitted packets carry the rule attribution.
//
// The scanner forms its own bursts: it blocks for the first queued packet,
// then takes whatever else is already queued, up to BatchPackets (it is the
// queue's only receiver, so len(q) packets are there to take) — a partial
// burst is scanned the moment the queue goes idle. The burst buffer and the
// scan's working set are reused, so steady-state scanning does not allocate.
func (g *Gateway) burstScanner(sh *gwEngineShard) {
	defer g.workerWg.Done()
	// Batch-path panic containment: a panic scanning one burst payload is
	// recovered inside the worker goroutine that hit it (where it would
	// otherwise kill the process) and lands on this shard's block.
	st := burstState{contain: func(any) {
		sh.n[cPanics].Add(1)
		sh.n[cEngPanics].Add(1)
	}}
	batch := make([]seqPacket, 0, g.cfg.BatchPackets)
	q := sh.burstQ
	for p := range q {
		batch = append(batch[:0], p)
		for n := min(len(q), cap(batch)-1); n > 0; n-- {
			batch = append(batch, <-q)
		}
		g.scanBurst(sh, batch, &st)
	}
}

// burstState is one burst scanner's reusable working set, so steady-state
// batch scanning does not allocate per burst.
type burstState struct {
	contain  func(any) // the shard's batch-worker panic hook
	buf      [][]ac.Match
	payloads [][]byte
	ruleIdx  []int
}

// scanBurst scans one stateless burst. Panics inside a payload's scan are
// contained per payload by the batch scan itself (burstState.contain), and
// a panicking emit callback per datagram (emitBurst); what else panics in
// this function — a user OnVerdict callback — is contained here, with the
// batch's not-yet-committed bytes charged to the quarantine bucket so the
// ledger stays exact, and the burst queue's depth lowered in the defer chain
// so Flush cannot wedge.
func (g *Gateway) scanBurst(sh *gwEngineShard, batch []seqPacket, st *burstState) {
	defer sh.burst.done(len(batch))
	// One generation per burst, read once: the batch's packets hold the
	// queue's depth until the deferred decrement above, and SwapRules only
	// moves cur at every depth zero, so cur is frozen for the whole burst —
	// the batch-boundary cutover guarantee.
	gen := g.cur.Load()
	var total, committed uint64
	for _, p := range batch {
		total += uint64(len(p.payload))
	}
	defer func() {
		if recover() != nil {
			sh.n[cPanics].Add(1)
			if total > committed {
				sh.n[cQuarantinedBytes].Add(total - committed)
				sh.n[cQuarantinedPackets].Add(1)
			}
		}
	}()
	sh.n[cBatches].Add(1)
	sh.n[cBatchPackets].Add(uint64(len(batch)))
	// The packets a verdict admits to scanning are compacted to the front
	// of batch, parallel to their payloads and rule indices.
	kept := batch[:0]
	st.payloads, st.ruleIdx = st.payloads[:0], st.ruleIdx[:0]
	var keptBytes uint64
	for _, p := range batch {
		v, idx := g.classify(p.tuple)
		g.notifyVerdict(sh, p.tuple, v, idx)
		switch v {
		case VerdictDrop:
			sh.n[cDroppedBytes].Add(uint64(len(p.payload)))
			committed += uint64(len(p.payload))
			continue
		case VerdictPass:
			sh.n[cPassedBytes].Add(uint64(len(p.payload)))
			committed += uint64(len(p.payload))
			continue
		}
		kept = append(kept, p)
		st.payloads = append(st.payloads, p.payload)
		st.ruleIdx = append(st.ruleIdx, idx)
		keptBytes += uint64(len(p.payload))
	}
	if len(kept) > 0 {
		sh.n[cEngBatches].Add(1)
		sh.n[cEngBatchPkts].Add(uint64(len(kept)))
		sh.n[cEngBatchBytes].Add(keptBytes)
		st.buf = engine.ScanBatch(gen.m.grouped, g.cfg.StreamWorkers, st.payloads, st.buf, st.contain)
		// Every payload was delivered to a scanner (a contained batch-worker
		// panic costs only that payload's matches), and from here each
		// datagram accounts for itself: it commits as scanned once its
		// matches are out, or emitBurst has charged it to the quarantine
		// bucket.
		committed += keptBytes
		scanned := keptBytes
		for i, ms := range st.buf {
			if len(ms) > 0 && !g.emitBurst(sh, gen, &kept[i], st.ruleIdx[i], ms) {
				scanned -= uint64(len(kept[i].payload))
			}
		}
		sh.n[cScannedBytes].Add(scanned)
	}
}

// emitBurst is emitMatches under panic containment for one datagram of a
// burst, and reports whether emit returned. A panicking emit costs exactly
// that datagram — its payload goes to the quarantine bucket instead of the
// scanned one — the way a TCP one costs exactly one flow; the rest of the
// burst still emits.
func (g *Gateway) emitBurst(sh *gwEngineShard, gen *gwGeneration, p *seqPacket, idx int, ms []ac.Match) (ok bool) {
	defer func() {
		if recover() != nil { // ok stays false: the return below never ran
			sh.n[cPanics].Add(1)
			sh.n[cQuarantinedPackets].Add(1)
			sh.n[cQuarantinedBytes].Add(uint64(len(p.payload)))
		}
	}()
	g.emitMatches(sh, gen, p, idx, ms)
	return true
}
