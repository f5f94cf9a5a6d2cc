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
// the caller immediately, out-of-order bytes are held (bounded per flow and,
// via a shared Budget, per owner) until the hole fills. The cursor
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
// A held segment is its sequence number, its length and its resident bytes.
// Those are the payload itself, or — when the caller passes a Fold — what
// its scanner still needs of it: the caller scans the piece as it is held
// and keeps a prefix — up to the first 3-byte window no pattern contains,
// at most D bytes (D the longest pattern) — the registers the scan ends in
// and the matches past the prefix, which the cursor stores without reading
// beyond the prefix's length and hands back when the piece drains. The
// caller then rescans the prefix from the stream's true registers and takes
// the rest as stored. So a reordering path costs a few bytes a held
// segment, D at worst, not its payload.
// Caps and budgets charge what is resident; the byte ledger (Result,
// HeldBytes, Budget.Used) counts stream bytes, folded or not.
//
// Three policies keep a hostile or lossy feed from wedging the scanner:
//
//   - Overlap policy: when a later segment's bytes overlap data already
//     buffered, FirstWins keeps the bytes that arrived first (Snort's
//     default) and LastWins lets the retransmission overwrite them.
//     Bytes already delivered to the scanner are immutable under either
//     policy — delivery is the commit point.
//   - Buffer caps: MaxFlowBytes bounds one flow's held bytes and Budget
//     the sum across flows, both at cost: resident bytes plus a segment's
//     descriptor. Under pressure the bytes furthest from the delivery point
//     are dropped first (they are the least likely to become deliverable
//     soon) — a folded segment is cut back to its prefix or dropped
//     whole; a drop becomes a gap handled like loss.
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
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
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

// Budget is the memory account of many streams with one owner, whose
// goroutine alone writes it: held segments are charged at cost, beside
// whatever else the owner charges to the same memory. Used, the stream bytes
// held, may be read from any goroutine. A Config whose Budget is nil has no
// account and no cap across streams; the methods want a non-nil Budget.
type Budget struct {
	max  int64
	cost int64        // everything charged: the owner's and held bytes at cost
	used atomic.Int64 // held stream bytes
}

// segCost is what holding a segment costs beyond its resident bytes: its
// descriptor in the held list.
const segCost = int(unsafe.Sizeof(seg{}))

// NewBudget returns a budget allowing max bytes charged.
func NewBudget(max int) *Budget { return &Budget{max: int64(max)} }

// Charge adds n bytes (negative n returns them) the owner keeps beside the
// held segments, which leaves them that much less room.
func (b *Budget) Charge(n int) { b.cost += int64(n) }

// Used returns the stream bytes currently held, folded or not.
func (b *Budget) Used() int { return int(b.used.Load()) }

// Cost returns everything charged: the owner's bytes, and the held segments
// at their resident bytes plus segCost each.
func (b *Budget) Cost() int { return int(b.cost) }

// reserve charges n more held stream bytes at cost, if the cost fits.
func (b *Budget) reserve(n, cost int) bool {
	if b == nil {
		return true
	}
	if b.cost+int64(cost) > b.max {
		return false
	}
	b.cost += int64(cost)
	b.used.Add(int64(n))
	return true
}

// release returns n held stream bytes at cost.
func (b *Budget) release(n, cost int) {
	if b != nil {
		b.cost -= int64(cost)
		b.used.Add(int64(-n))
	}
}

// Config parameterizes a Stream, or every Cursor that shares it.
type Config struct {
	// Policy is the overlap policy for undelivered bytes.
	Policy Policy
	// MaxFlowBytes caps one stream's held (out-of-order) bytes at cost —
	// resident bytes plus a descriptor per held segment; <= 0 selects
	// 256 KiB, and a stream holds at most 2 GiB whatever it says.
	MaxFlowBytes int
	// Budget, when non-nil, additionally caps held bytes at cost across all
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
	return min(c.MaxFlowBytes, math.MaxInt32)
}

// Fold is how a caller holds a piece in less than its bytes. A cursor given
// one offers every piece it holds to Encode, under FirstWins — under
// LastWins held bytes may still be overwritten, so they stay whole. Encode
// returns the piece's resident form, shorter than the piece and beginning
// with a prefix of it, or nil to hold the piece whole; Prefix reports how
// many bytes that prefix has. The cursor reads a form only through Prefix:
// it hands the form back to deliver, with the piece's length, when the
// piece drains, and under pressure cuts it back to its prefix or drops it
// whole. Every call on a cursor must fold the same way, or not at all.
type Fold struct {
	Prefix func(form []byte) int
	Encode func(piece []byte) []byte
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

// seg is one held out-of-order run of n stream bytes, keyed by the sequence
// number of its first byte. data is what is resident: the bytes themselves,
// or their Fold form, which is shorter. Held segs lie ahead of the delivery
// point, sorted by seq and non-overlapping.
type seg struct {
	seq  uint32
	n    uint32
	data []byte
}

// whole is a run held as its bytes.
func whole(seq uint32, data []byte) seg { return seg{seq: seq, n: uint32(len(data)), data: data} }

// folded reports whether the run is held as a Fold form.
func (h *seg) folded() bool { return len(h.data) < int(h.n) }

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
	heldBy   int    // sum of held stream bytes
	gapSince uint64 // tick+1 when delivery first stalled on the current gap
	fin      uint32 // seq one past the last byte, when finSeen
	resident uint32 // sum of held data lengths, at most MaxFlowBytes
}

// cost is what the held segments are charged against the caps.
func (o *outOfOrder) cost() int { return int(o.resident) + segCost*len(o.held) }

// cut keeps the first k resident bytes of held segment h, held whole, and
// drops the rest of its stream bytes. The kept bytes are copied so what is
// dropped is really returned, not just uncharged (see trimHeld's remnants).
func (o *outOfOrder) cut(cfg *Config, h *seg, k int, r *Result) {
	n, res := int(h.n)-k, len(h.data)-k
	*h = whole(h.seq, append([]byte(nil), h.data[:k]...))
	o.heldBy -= n
	o.resident -= uint32(res)
	cfg.Budget.release(n, res)
	r.Dropped += n
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

// Segment is Cursor.Segment under the stream's own config, holding every
// piece whole, so each chunk delivered is stream bytes.
func (s *Stream) Segment(seq uint32, payload []byte, flags Flags, tick uint64, deliver func(chunk []byte, skippedBefore int)) Result {
	return s.Cursor.Segment(&s.cfg, seq, payload, flags, tick, nil, func(chunk []byte, _, skippedBefore int) {
		deliver(chunk, skippedBefore)
	})
}

// Release is Cursor.Release under the stream's own config.
func (s *Stream) Release() int { return s.Cursor.Release(&s.cfg) }

// HeldBytes returns the stream bytes currently held out of order, folded or
// not.
func (c *Cursor) HeldBytes() int {
	if c.ooo == nil {
		return 0
	}
	return c.ooo.heldBy
}

// HeldCost returns what the held segments are charged against the caps:
// their resident bytes and a descriptor each.
func (c *Cursor) HeldCost() int {
	if c.ooo == nil {
		return 0
	}
	return c.ooo.cost()
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
	cfg.Budget.release(o.heldBy, o.cost())
	return o.heldBy
}

// Segment ingests one TCP segment: seq is the sequence number of
// payload[0] (of the SYN itself when the SYN flag is set — SYN consumes
// one sequence number, so its payload logically starts at seq+1). deliver
// receives the stream in order, n bytes a call: data is those bytes when
// len(data) == n, and fold's form of them otherwise (fold may be nil: every
// piece is then held whole). skippedBefore is non-zero on the first chunk
// after a gap skip and tells the caller how many stream bytes were never
// seen (scanner state must not carry matches across them). tick is the
// caller's logical clock, used only for the gap timeout.
//
// Chunks delivered in the same call reference payload directly (consume or
// copy before the next Segment call); bytes that have to be held out of
// order are copied or folded, so the stream never retains payload's backing
// array.
func (c *Cursor) Segment(cfg *Config, seq uint32, payload []byte, flags Flags, tick uint64, fold *Fold, deliver func(data []byte, n, skippedBefore int)) Result {
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
			pieces = append(pieces, whole(c.next+uint32(off), data))
		}
		for _, p := range pieces {
			if pOff := c.ahead(p.seq); pOff > 0 {
				c.addPiece(cfg, fold, pOff, p.data, &r)
				continue
			}
			deliver(p.data, len(p.data), 0)
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
func (c *Cursor) drain(cfg *Config, deliver func([]byte, int, int), r *Result, skippedBefore int) {
	o := c.ooo
	if o == nil || len(o.held) == 0 || c.ahead(o.held[0].seq) > 0 {
		return
	}
	n := 0
	defer func() { o.consume(n) }()
	for n < len(o.held) && c.ahead(o.held[n].seq) <= 0 {
		h := o.held[n]
		n++
		o.heldBy -= int(h.n)
		o.resident -= uint32(len(h.data))
		cfg.Budget.release(int(h.n), len(h.data)+segCost)
		deliver(h.data, int(h.n), skippedBefore)
		skippedBefore = 0
		r.Delivered += int(h.n)
		c.next += h.n
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
// waiting and re-armed after every skip for the next gap. A cursor left
// holding nothing and no FIN drops its out-of-order state, the held list's
// capacity with it: the state is charged to no account, so it must not
// outlive what it held.
func (c *Cursor) checkGap(cfg *Config, tick uint64, deliver func([]byte, int, int), r *Result) {
	o := c.ooo
	if o == nil { // nothing held, or the stream just completed
		return
	}
	if len(o.held) > 0 && o.gapSince != 0 && cfg.GapTimeout != 0 && tick+1-o.gapSince >= cfg.GapTimeout {
		skipped := int(c.ahead(o.held[0].seq))
		c.next = o.held[0].seq
		o.gapSince = 0
		r.Skipped += skipped
		c.drain(cfg, deliver, r, skipped)
		c.checkFinished(cfg, r, false)
		if c.ooo == nil {
			return
		}
	}
	switch {
	case len(o.held) > 0:
		if o.gapSince == 0 { // a new gap, or a further one after a skip
			o.gapSince = tick + 1 // +1 so tick 0 still arms the timer
		}
	case c.finSeen:
		o.gapSince = 0
	default:
		c.ooo = nil
	}
}

// trimHeld removes [lo, hi) — offsets past the delivery point — from the
// held buffer (LastWins: the new bytes will overwrite); the discarded bytes
// count as Duplicate. The held segments the range touches are one run,
// replaced in place by the parts that straddle its ends, so a range that
// touches none allocates nothing. LastWins folds nothing, so every held
// segment here is its bytes.
func (c *Cursor) trimHeld(cfg *Config, lo, hi int64, r *Result) {
	o := c.ooo
	if o == nil {
		return
	}
	i := 0
	for i < len(o.held) && c.ahead(o.held[i].seq)+int64(o.held[i].n) <= lo {
		i++
	}
	j := i
	freed := 0
	for j < len(o.held) && c.ahead(o.held[j].seq) < hi {
		freed += int(o.held[j].n)
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
		kept = append(kept, whole(first.seq, append([]byte(nil), first.data[:lo-at]...)))
	}
	if last, at := o.held[j-1], c.ahead(o.held[j-1].seq); at+int64(last.n) > hi { // right remainder survives
		kept = append(kept, whole(last.seq+uint32(hi-at), append([]byte(nil), last.data[hi-at:]...)))
	}
	for _, k := range kept {
		freed -= int(k.n)
	}
	o.held = slices.Replace(o.held, i, j, kept...) // zeroes the slots it vacates
	r.Duplicate += freed
	o.heldBy -= freed
	o.resident -= uint32(freed)
	cfg.Budget.release(freed, freed+(j-i-len(kept))*segCost)
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
			hHi := hLo + int64(h.n)
			if hHi <= at {
				continue
			}
			if hLo >= end {
				break
			}
			if hLo > at {
				pieces = append(pieces, whole(c.next+uint32(at), data[at-off:hLo-off]))
			}
			r.Duplicate += int(min(hHi, end) - max(hLo, at))
			at = hHi
		}
	}
	if at < end {
		pieces = append(pieces, whole(c.next+uint32(at), data[at-off:]))
	}
	return pieces
}

// addPiece inserts one non-overlapping piece, off bytes past the delivery
// point, as a new held segment — folded, when fold takes it — enforcing the
// per-flow cap and the shared budget at cost. Under pressure the held bytes
// furthest from the delivery point are evicted first — but never to admit
// bytes that are themselves further out than everything already held.
func (c *Cursor) addPiece(cfg *Config, fold *Fold, off int64, data []byte, r *Result) {
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
	if len(data) == 0 {
		return
	}
	form := data // what holding the piece keeps: its bytes, or its fold
	if fold != nil && cfg.Policy == FirstWins {
		if f := fold.Encode(data); f != nil {
			form = f
		}
	}
	need := len(form)
	limit := cfg.maxFlowBytes()
	for o := c.ooo; o != nil && o.cost()+need+segCost > limit && len(o.held) > 0; {
		last := &o.held[len(o.held)-1]
		if c.ahead(last.seq) <= off {
			break // the new piece is the furthest; drop it instead
		}
		// Cut the furthest segment to what still fits, a fold back to its
		// prefix; what cannot be cut goes whole.
		trim, keep := o.cost()+need+segCost-limit, 0
		if !last.folded() {
			keep = max(len(last.data)-trim, 0)
		} else if p := fold.Prefix(last.data); trim <= len(last.data)-p {
			keep = p
		}
		o.cut(cfg, last, keep, r)
		if keep == 0 { // nothing of it is left: its descriptor goes too
			cfg.Budget.release(0, segCost)
			*last = seg{} // the backing array must not pin the evicted copy
			o.held = o.held[:len(o.held)-1]
		}
	}
	held := 0
	if c.ooo != nil {
		held = c.ooo.cost()
	}
	if held+need+segCost > limit {
		fit := limit - held - segCost
		if len(form) < len(data) {
			fit = min(fit, fold.Prefix(form)) // a fold is cut back to its prefix
		}
		if fit <= 0 {
			r.Dropped += len(data)
			return
		}
		r.Dropped += len(data) - fit
		data, form, need = data[:fit], data[:fit], fit
	}
	if !cfg.Budget.reserve(len(data), need+segCost) {
		r.Dropped += len(data)
		return
	}
	if len(form) == len(data) {
		// Own the held bytes: a retained subslice would pin the caller's
		// whole payload array while the caps charge only the slice length,
		// letting a hostile feed (e.g. 1-byte keepable pieces carved from
		// 1 MiB segments) amplify real memory far past MaxFlowBytes/Budget.
		// After this copy every held byte was charged at admission, so later
		// trims/splits of held data stay within the already-charged bound.
		form = append([]byte(nil), data...)
	}
	o := c.holding()
	o.heldBy += len(data)
	o.resident += uint32(need)
	// Sorted insert; held segments are few in practice (one per open gap).
	i := len(o.held)
	for i > 0 && c.ahead(o.held[i-1].seq) > off {
		i--
	}
	o.held = slices.Insert(o.held, i, seg{seq: c.next + uint32(off), n: uint32(len(data)), data: form})
	r.Buffered += len(data)
}
