// Package reassembly rebuilds each TCP connection's contiguous byte stream
// from out-of-order, overlapping and retransmitted segments, so the string
// matcher downstream sees exactly the bytes the endpoint would — the
// precondition for the paper's per-flow scanning model, and the defence
// against the segmentation-evasion class the DPI literature warns about
// (an attacker splitting or overlapping segments so a signature never
// appears contiguously to the sensor).
//
// One Cursor holds one direction of one connection. Segments arrive tagged
// with their absolute TCP sequence number; in-order bytes are delivered to
// the caller immediately, out-of-order bytes are buffered (bounded per
// flow and, via a shared Budget, globally) until the hole fills. The cursor
// keeps its place in sequence space — the next in-order byte's sequence
// number, held segments keyed by theirs, every distance a signed 32-bit
// difference — so initial sequence numbers near 2^32 work unchanged, and a
// FIN is kept only while it waits ahead of a gap.
//
// A Cursor only reorders bytes. It reports when a FIN's bytes are all
// delivered (EventFinished) and keeps no lifecycle beyond that: what an RST
// tears down, what becomes of stragglers after a FIN and when a SYN opens a
// new connection on the tuple are its owner's to decide — the gateway's flow
// table keeps a finished connection as a husk, removes a reset one, and a
// new connection starts from a zero Cursor. A Stream is a Cursor bundled with
// its own Config, for a caller with no table of flows to share one.
//
// Three policies keep a hostile or lossy feed from wedging the scanner:
//
//   - Overlap policy: when a later segment's bytes overlap data already
//     buffered, FirstWins keeps the bytes that arrived first (Snort's
//     default) and LastWins lets the retransmission overwrite them.
//     Bytes already delivered to the scanner are immutable under either
//     policy — delivery is the commit point.
//   - Buffer caps: MaxFlowBytes bounds one flow's held bytes and Budget
//     bounds the sum across flows. Under pressure the bytes furthest from
//     the delivery point are dropped first (they are the least likely to
//     become deliverable soon); a drop becomes a gap handled like loss.
//   - Gap timeout: when delivery has been stalled on a missing segment for
//     GapTimeout ticks, the stream skips to the first buffered byte. The
//     caller is told how many bytes were skipped so it can invalidate
//     scanner state across the unseen region (a match cannot span bytes
//     the sensor never saw).
//
// A Cursor is not safe for concurrent use; the gateway makes all of a
// flow's calls from the one lane that owns the flow.
package reassembly

import (
	"slices"
	"sync/atomic"
)

// Policy selects which bytes win when segments overlap in the undelivered
// buffer.
type Policy int

const (
	// FirstWins keeps the bytes that arrived first; later overlapping
	// bytes are discarded.
	FirstWins Policy = iota
	// LastWins lets later segments overwrite previously buffered (but not
	// yet delivered) bytes.
	LastWins
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == LastWins {
		return "last-wins"
	}
	return "first-wins"
}

// Flags carries the TCP control bits that place bytes in sequence space: a
// SYN occupies one sequence number ahead of its payload, and a FIN marks
// where the stream ends.
type Flags uint8

const (
	FIN Flags = 1 << 0
	SYN Flags = 1 << 1
)

// Event reports what a Segment call completed.
type Event int

const (
	// EventNone: the stream is still open.
	EventNone Event = iota
	// EventFinished: a FIN was seen and every byte up to it has been
	// delivered (or skipped past); the stream holds nothing any more, and
	// the flow's scanner state can be released.
	EventFinished
)

// Budget is a buffered-bytes budget shared by many streams — the global
// cap on out-of-order memory across all flows. A nil *Budget is unlimited.
type Budget struct {
	max  int64
	used atomic.Int64
}

// NewBudget returns a budget allowing max buffered bytes in total.
func NewBudget(max int) *Budget { return &Budget{max: int64(max)} }

// Used returns the bytes currently reserved.
func (b *Budget) Used() int {
	if b == nil {
		return 0
	}
	return int(b.used.Load())
}

func (b *Budget) reserve(n int) bool {
	if b == nil {
		return true
	}
	for {
		u := b.used.Load()
		if u+int64(n) > b.max {
			return false
		}
		if b.used.CompareAndSwap(u, u+int64(n)) {
			return true
		}
	}
}

func (b *Budget) release(n int) {
	if b != nil {
		b.used.Add(int64(-n))
	}
}

// Config parameterizes a Stream, or every Cursor that shares it.
type Config struct {
	// Policy is the overlap policy for undelivered bytes.
	Policy Policy
	// MaxFlowBytes caps one stream's held (out-of-order) bytes; <= 0
	// selects 256 KiB.
	MaxFlowBytes int
	// Budget, when non-nil, additionally caps held bytes across all
	// streams sharing it.
	Budget *Budget
	// GapTimeout is how many ticks delivery may stall on a missing
	// segment before the stream skips to the first buffered byte;
	// 0 disables skipping (a gap then stalls until eviction).
	GapTimeout uint64
}

func (c *Config) maxFlowBytes() int {
	if c.MaxFlowBytes <= 0 {
		return 256 << 10
	}
	return c.MaxFlowBytes
}

// Result accounts one Segment call, in payload bytes. Every payload byte of
// the call lands in exactly one of Delivered, Buffered, Duplicate or
// Dropped; Abandoned re-classifies previously Buffered bytes the stream
// discarded this call (RST, or bytes held beyond a just-completed FIN), and
// Skipped counts stream positions never carried by any payload. Together
// these make the caller's byte ledger exact: held-bytes deltas are always
// explained by Buffered - Delivered(drained) - Duplicate(trimmed) -
// Dropped(evicted) - Abandoned.
type Result struct {
	Delivered int // bytes handed to deliver (from this and drained segments)
	Buffered  int // bytes newly held out of order
	Duplicate int // bytes discarded as retransmissions/overlaps per policy
	Dropped   int // bytes discarded to the flow cap or shared budget
	Skipped   int // gap bytes skipped past on timeout
	Abandoned int // held bytes discarded beyond a completed FIN
	Event     Event
}

// seg is one held out-of-order run, keyed by the sequence number of its first
// byte. Held segs lie ahead of the delivery point, sorted by seq and
// non-overlapping.
type seg struct {
	seq  uint32
	data []byte
}

// Cursor reassembles one flow direction, less its configuration: a plain
// 16 B value a flow record can embed, whose methods take the Config every
// cursor of a table shares, so no flow stores even a pointer to it. The
// cursor proper is the sequence number of the next in-order byte; everything
// only out-of-order delivery needs — the held segments, their byte count, the
// gap timer and a FIN seen ahead of a gap — sits behind one pointer that the
// first byte (or FIN) the cursor has to hold allocates and Release drops. A
// cursor whose segments arrive in order therefore owns no memory beyond
// itself. The zero value is an empty cursor: the first segment (or SYN)
// establishes its sequence base. Every call on one cursor must pass the same
// Config, unchanged; bytes a previous connection left held must be Released
// before the cursor is zeroed for the next, or the budget never sees them
// again.
//
// A FIN is remembered only when it is ahead of a gap. One whose payload
// starts at or behind the delivery point completes the stream within its own
// Segment call, since every byte before it is delivered there.
//
// A completed cursor holds nothing and its owner retires it; segments fed to
// it afterwards continue it in sequence space (a retransmission behind the
// FIN is a Duplicate), so a straggler can never re-deliver committed bytes.
type Cursor struct {
	started bool
	finSeen bool   // a FIN ahead of a gap is waiting in ooo.fin
	next    uint32 // seq of the next in-order byte
	ooo     *outOfOrder
}

// Stream is a Cursor that owns its Config, for callers without a flow record
// to embed a Cursor in. Its methods are the cursor's with the config filled
// in.
type Stream struct {
	Cursor
	cfg Config
}

// outOfOrder is a cursor's state while it holds bytes, or a FIN, out of order.
type outOfOrder struct {
	held     []seg
	heldBy   int    // sum of held data lengths
	gapSince uint64 // tick+1 when delivery first stalled on the current gap
	fin      uint32 // seq one past the last byte, when finSeen
}

// consume drops the first n held segments, whose bytes have already left the
// books: the rest move to the front and every vacated slot is zeroed, so the
// backing array pins no copy the budget has released.
func (o *outOfOrder) consume(n int) {
	m := copy(o.held, o.held[n:])
	clear(o.held[m:])
	o.held = o.held[:m]
}

// NewStream returns an empty stream with its own copy of cfg.
func NewStream(cfg Config) *Stream { return &Stream{cfg: cfg} }

// Segment is Cursor.Segment under the stream's own config.
func (s *Stream) Segment(seq uint32, payload []byte, flags Flags, tick uint64, deliver func(chunk []byte, skippedBefore int)) Result {
	return s.Cursor.Segment(&s.cfg, seq, payload, flags, tick, deliver)
}

// Release is Cursor.Release under the stream's own config.
func (s *Stream) Release() int { return s.Cursor.Release(&s.cfg) }

// HeldBytes returns the bytes currently buffered out of order.
func (c *Cursor) HeldBytes() int {
	if c.ooo == nil {
		return 0
	}
	return c.ooo.heldBy
}

// Release discards all held bytes, returning them to cfg's budget, and
// reports how many bytes it discarded so the caller can account them (a
// byte-conservation ledger must not lose eviction-released bytes). Call it
// when the flow is evicted or reset mid-gap; it is idempotent. The cursor
// keeps no out-of-order state afterwards, a FIN seen ahead of the gap
// included.
func (c *Cursor) Release(cfg *Config) int {
	o := c.ooo
	if o == nil {
		return 0
	}
	c.ooo, c.finSeen = nil, false
	if o.heldBy > 0 {
		cfg.Budget.release(o.heldBy)
	}
	return o.heldBy
}

// Segment ingests one TCP segment: seq is the sequence number of
// payload[0] (of the SYN itself when the SYN flag is set — SYN consumes
// one sequence number, so its payload logically starts at seq+1). deliver
// receives contiguous in-order chunks; skippedBefore is non-zero on the
// first chunk after a gap skip and tells the caller how many stream bytes
// were never seen (scanner state must not carry matches across them).
// tick is the caller's logical clock, used only for the gap timeout.
//
// Chunks delivered in the same call reference payload directly (consume or
// copy before the next Segment call); bytes that have to be buffered out of
// order are copied, so the stream never retains payload's backing array.
func (c *Cursor) Segment(cfg *Config, seq uint32, payload []byte, flags Flags, tick uint64, deliver func(chunk []byte, skippedBefore int)) Result {
	var r Result
	dataSeq := seq
	if flags&SYN != 0 {
		dataSeq = seq + 1 // SYN occupies one sequence number
	}
	if !c.started {
		c.started = true
		c.next = dataSeq
	}
	off := c.ahead(dataSeq)
	// A first FIN at or behind the delivery point completes the stream in
	// this call: every byte before it is delivered below. Only a FIN ahead
	// of a gap has to be remembered.
	finNow := flags&FIN != 0 && !c.finSeen && off <= 0
	if flags&FIN != 0 && !c.finSeen && off > 0 {
		c.finSeen = true
		c.holding().fin = dataSeq + uint32(len(payload))
	}
	data := payload
	// Bytes before the delivery point are already committed.
	if off < 0 {
		if -off >= int64(len(data)) {
			r.Duplicate += len(data)
			data = nil
		} else {
			r.Duplicate += int(-off)
			data = data[-off:]
			off = 0
		}
	}
	if len(data) > 0 {
		// Resolve overlaps with held bytes per policy first, producing
		// pieces disjoint from the buffer; then each piece is either at the
		// delivery point (deliver now, and drain the held run it reaches,
		// which ends where the next piece starts) or buffered.
		var buf [2]seg
		pieces := buf[:0]
		if cfg.Policy == FirstWins {
			pieces = c.uncovered(off, data, pieces, &r)
		} else {
			c.trimHeld(cfg, off, off+int64(len(data)), &r)
			pieces = append(pieces, seg{seq: c.next + uint32(off), data: data})
		}
		for _, p := range pieces {
			if pOff := c.ahead(p.seq); pOff > 0 {
				c.addPiece(cfg, pOff, p.data, &r)
				continue
			}
			deliver(p.data, 0)
			r.Delivered += len(p.data)
			c.next += uint32(len(p.data))
			c.drain(cfg, deliver, &r, 0)
		}
	}
	c.checkFinished(cfg, &r, finNow)
	c.checkGap(cfg, tick, deliver, &r)
	return r
}

// ahead is how far seq lies past the delivery point. Signed 32-bit sequence
// arithmetic handles wraparound: every held byte, and the FIN when it is
// remembered, lies less than 2^31 ahead.
func (c *Cursor) ahead(seq uint32) int64 { return int64(int32(seq - c.next)) }

// holding returns the stream's out-of-order state, allocating it on first use.
func (c *Cursor) holding() *outOfOrder {
	if c.ooo == nil {
		c.ooo = &outOfOrder{}
	}
	return c.ooo
}

// drain delivers every held segment that is now contiguous with the
// delivery point — held segments lie strictly ahead of it between calls and
// never overlap, so each one drained starts exactly there. skippedBefore is
// attached to the first delivered chunk (non-zero only when a gap skip led
// here). Each segment leaves heldBy and the budget before its bytes go to
// deliver, and the taken segments leave held on the way out even if deliver
// panics, so a caller that recovers sees a consistent stream.
func (c *Cursor) drain(cfg *Config, deliver func([]byte, int), r *Result, skippedBefore int) {
	o := c.ooo
	if o == nil || len(o.held) == 0 || c.ahead(o.held[0].seq) > 0 {
		return
	}
	n := 0
	defer func() { o.consume(n) }()
	for n < len(o.held) && c.ahead(o.held[n].seq) <= 0 {
		h := o.held[n]
		n++
		o.heldBy -= len(h.data)
		cfg.Budget.release(len(h.data))
		deliver(h.data, skippedBefore)
		skippedBefore = 0
		r.Delivered += len(h.data)
		c.next += uint32(len(h.data))
	}
}

// checkFinished completes the stream when this call's in-order FIN (finNow)
// or a FIN that arrived ahead of a gap has had every byte before it
// delivered (or skipped past).
func (c *Cursor) checkFinished(cfg *Config, r *Result, finNow bool) {
	if finNow || c.finSeen && c.ahead(c.ooo.fin) <= 0 {
		r.Abandoned += c.Release(cfg) // anything held beyond the FIN is bogus
		r.Event = EventFinished
	}
}

// checkGap maintains the gap timer and, once the timeout expires, skips
// the delivery point to the first held byte so a lost segment cannot wedge
// the flow. The timer is armed when delivery first stalls with bytes
// waiting and re-armed after every skip for the next gap.
func (c *Cursor) checkGap(cfg *Config, tick uint64, deliver func([]byte, int), r *Result) {
	o := c.ooo
	if o == nil { // nothing held, or the stream just completed
		return
	}
	if len(o.held) == 0 {
		o.gapSince = 0
		return
	}
	if o.gapSince == 0 {
		o.gapSince = tick + 1 // +1 so tick 0 still arms the timer
		return
	}
	if cfg.GapTimeout == 0 || tick+1-o.gapSince < cfg.GapTimeout {
		return
	}
	skipped := int(c.ahead(o.held[0].seq))
	c.next = o.held[0].seq
	o.gapSince = 0
	r.Skipped += skipped
	c.drain(cfg, deliver, r, skipped)
	c.checkFinished(cfg, r, false)
	if c.ooo != nil && len(c.ooo.held) > 0 { // a further gap: arm its timer now
		c.ooo.gapSince = tick + 1
	}
}

// trimHeld removes [lo, hi) — offsets past the delivery point — from the
// held buffer (LastWins: the new bytes will overwrite); the discarded bytes
// count as Duplicate. The held segments the range touches are one run,
// replaced in place by the parts that straddle its ends, so a range that
// touches none allocates nothing.
func (c *Cursor) trimHeld(cfg *Config, lo, hi int64, r *Result) {
	o := c.ooo
	if o == nil {
		return
	}
	i := 0
	for i < len(o.held) && c.ahead(o.held[i].seq)+int64(len(o.held[i].data)) <= lo {
		i++
	}
	j := i
	freed := 0
	for j < len(o.held) && c.ahead(o.held[j].seq) < hi {
		freed += len(o.held[j].data)
		j++
	}
	if i == j {
		return
	}
	// Remainders are copied, not subsliced: a tiny kept remnant would
	// otherwise pin the overwritten segment's whole backing array while its
	// budget charge is released — repeated overwrites could then grow real
	// memory far past the caps.
	var kept []seg
	if first, at := o.held[i], c.ahead(o.held[i].seq); at < lo { // left remainder survives
		kept = append(kept, seg{seq: first.seq, data: append([]byte(nil), first.data[:lo-at]...)})
	}
	if last, at := o.held[j-1], c.ahead(o.held[j-1].seq); at+int64(len(last.data)) > hi { // right remainder survives
		kept = append(kept, seg{seq: last.seq + uint32(hi-at), data: append([]byte(nil), last.data[hi-at:]...)})
	}
	for _, k := range kept {
		freed -= len(k.data)
	}
	o.held = slices.Replace(o.held, i, j, kept...) // zeroes the slots it vacates
	r.Duplicate += freed
	o.heldBy -= freed
	cfg.Budget.release(freed)
}

// uncovered appends to pieces the parts of data — which starts off bytes past
// the delivery point — that no held segment covers, counting the covered bytes
// as Duplicate (FirstWins: the held bytes arrived first). Held segments are
// sorted and disjoint, so one pass splits data only at the segments it
// overlaps: an arrival disjoint from everything held is one piece, appended
// to the caller's buffer without allocating.
func (c *Cursor) uncovered(off int64, data []byte, pieces []seg, r *Result) []seg {
	at, end := off, off+int64(len(data))
	if o := c.ooo; o != nil {
		for _, h := range o.held {
			hLo := c.ahead(h.seq)
			hHi := hLo + int64(len(h.data))
			if hHi <= at {
				continue
			}
			if hLo >= end {
				break
			}
			if hLo > at {
				pieces = append(pieces, seg{seq: c.next + uint32(at), data: data[at-off : hLo-off]})
			}
			r.Duplicate += int(min(hHi, end) - max(hLo, at))
			at = hHi
		}
	}
	if at < end {
		pieces = append(pieces, seg{seq: c.next + uint32(at), data: data[at-off:]})
	}
	return pieces
}

// addPiece inserts one non-overlapping piece, off bytes past the delivery
// point, enforcing the per-flow cap and the shared budget. Under pressure
// the held bytes furthest from the delivery point are evicted first — but
// never to admit bytes that are themselves further out than everything
// already held.
func (c *Cursor) addPiece(cfg *Config, off int64, data []byte, r *Result) {
	if c.finSeen {
		// Bytes at or past the FIN cannot be part of this connection.
		fin := c.ahead(c.ooo.fin)
		if off >= fin {
			r.Duplicate += len(data)
			return
		}
		if over := off + int64(len(data)) - fin; over > 0 {
			r.Duplicate += int(over)
			data = data[:int64(len(data))-over]
		}
	}
	need := len(data)
	if need == 0 {
		return
	}
	max := cfg.maxFlowBytes()
	for o := c.ooo; o != nil && o.heldBy+need > max && len(o.held) > 0; {
		last := &o.held[len(o.held)-1]
		if c.ahead(last.seq) <= off {
			break // the new piece is the furthest; drop it instead
		}
		trim := o.heldBy + need - max
		if trim >= len(last.data) {
			freed := len(last.data)
			o.heldBy -= freed
			cfg.Budget.release(freed)
			r.Dropped += freed
			*last = seg{} // the backing array must not pin the evicted copy
			o.held = o.held[:len(o.held)-1]
		} else {
			// Copy the kept prefix so the evicted tail's memory is really
			// returned, not just uncharged (see the remnant note above).
			last.data = append([]byte(nil), last.data[:len(last.data)-trim]...)
			o.heldBy -= trim
			cfg.Budget.release(trim)
			r.Dropped += trim
		}
	}
	if held := c.HeldBytes(); held+need > max {
		fit := max - held
		if fit <= 0 {
			r.Dropped += need
			return
		}
		r.Dropped += need - fit
		data = data[:fit]
		need = fit
	}
	if !cfg.Budget.reserve(need) {
		r.Dropped += need
		return
	}
	o := c.holding()
	o.heldBy += need
	// Own the buffered bytes: a retained subslice would pin the caller's
	// whole payload array while the caps charge only the slice length,
	// letting a hostile feed (e.g. 1-byte keepable pieces carved from
	// 1 MiB segments) amplify real memory far past MaxFlowBytes/Budget.
	// After this copy every held byte was charged at admission, so later
	// trims/splits of held data stay within the already-charged bound.
	data = append([]byte(nil), data...)
	// Sorted insert; held segments are few in practice (one per open gap).
	i := len(o.held)
	for i > 0 && c.ahead(o.held[i-1].seq) > off {
		i--
	}
	o.held = slices.Insert(o.held, i, seg{seq: c.next + uint32(off), data: data})
	r.Buffered += need
}
