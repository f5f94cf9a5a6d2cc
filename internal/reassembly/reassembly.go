// Package reassembly rebuilds each TCP connection's contiguous byte stream
// from out-of-order, overlapping and retransmitted segments, so the string
// matcher downstream sees exactly the bytes the endpoint would — the
// precondition for the paper's per-flow scanning model, and the defence
// against the segmentation-evasion class the DPI literature warns about
// (an attacker splitting or overlapping segments so a signature never
// appears contiguously to the sensor).
//
// One Stream holds one direction of one connection. Segments arrive tagged
// with their absolute TCP sequence number; in-order bytes are delivered to
// the caller immediately, out-of-order bytes are buffered (bounded per
// flow and, via a shared Budget, globally) until the hole fills. Sequence
// arithmetic is uint32 with wraparound, so initial sequence numbers near
// 2^32 work unchanged.
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
// A Stream is not safe for concurrent use; the gateway makes all of a
// flow's calls from the one lane that owns the flow.
package reassembly

import "sync/atomic"

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

// Flags carries the TCP control bits the reassembler acts on.
type Flags uint8

const (
	FIN Flags = 1 << 0
	SYN Flags = 1 << 1
	RST Flags = 1 << 2
)

// Event reports a lifecycle transition caused by a Segment call.
type Event int

const (
	// EventNone: the stream is still live.
	EventNone Event = iota
	// EventFinished: a FIN was seen and every byte up to it has been
	// delivered; the flow's scanner state can be released.
	EventFinished
	// EventReset: an RST arrived; the flow must be torn down immediately
	// and buffered bytes have been discarded.
	EventReset
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

// Config parameterizes one Stream.
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
	Abandoned int // held bytes discarded on RST or beyond a completed FIN
	Event     Event
}

// seg is one held out-of-order run. off is a stream offset (bytes from the
// start of the stream); held segs are sorted by off and non-overlapping.
type seg struct {
	off  int64
	data []byte
}

// Stream reassembles one flow direction. It is a plain 40 B value a flow
// record can embed: the configuration every stream of a table shares is held
// by pointer, not copied per flow, and everything only out-of-order delivery
// needs — the held segments, their byte count and the gap timer — sits
// behind one pointer that the first byte the stream has to hold allocates
// and Release drops. A stream whose segments arrive in order therefore owns
// no memory beyond itself. The zero value holds nothing (HeldBytes and
// Release work on it) but cannot take segments until Init.
type Stream struct {
	cfg      *Config
	started  bool
	finished bool
	wasReset bool
	finSeen  bool
	next     uint32 // absolute seq of the next in-order byte
	pos      int64  // stream offset of next (bytes delivered + skipped)
	finOff   int64  // stream offset one past the last byte (FIN position)
	ooo      *outOfOrder
}

// outOfOrder is a stream's state while it holds bytes out of order.
type outOfOrder struct {
	held     []seg
	heldBy   int    // sum of held data lengths
	gapSince uint64 // tick+1 when delivery first stalled on the current gap
}

// consume drops the first n held segments, whose bytes have already left the
// books: the rest move to the front and every vacated slot is zeroed, so the
// backing array pins no copy the budget has released.
func (o *outOfOrder) consume(n int) {
	m := copy(o.held, o.held[n:])
	clear(o.held[m:])
	o.held = o.held[:m]
}

// Init makes s an empty stream over cfg, in place; the first segment (or
// SYN) establishes the sequence base. cfg is shared, not copied: it must
// outlive the stream and must not change while any stream uses it. Bytes a
// previous connection left held must be Released first — Init forgets them
// without returning them to the budget.
func (s *Stream) Init(cfg *Config) { *s = Stream{cfg: cfg} }

// NewStream returns an empty stream with its own copy of cfg, for callers
// without a flow record to embed a Stream in.
func NewStream(cfg Config) *Stream {
	own := &struct {
		s   Stream
		cfg Config
	}{cfg: cfg}
	own.s.cfg = &own.cfg
	return &own.s
}

// Pos returns the stream offset of the next in-order byte: bytes delivered
// plus bytes skipped past gaps.
func (s *Stream) Pos() int64 { return s.pos }

// HeldBytes returns the bytes currently buffered out of order.
func (s *Stream) HeldBytes() int {
	if s.ooo == nil {
		return 0
	}
	return s.ooo.heldBy
}

// Finished reports whether the stream completed via FIN.
func (s *Stream) Finished() bool { return s.finished }

// Release discards all held bytes, returning them to the shared budget, and
// reports how many bytes it discarded so the caller can account them (a
// byte-conservation ledger must not lose eviction-released bytes). Call it
// when the flow is evicted mid-gap; it is idempotent. The stream keeps no
// out-of-order state afterwards.
func (s *Stream) Release() int {
	o := s.ooo
	if o == nil {
		return 0
	}
	s.ooo = nil
	if o.heldBy > 0 {
		s.cfg.Budget.release(o.heldBy)
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
func (s *Stream) Segment(seq uint32, payload []byte, flags Flags, tick uint64, deliver func(chunk []byte, skippedBefore int)) Result {
	var r Result
	if s.finished || s.wasReset {
		if flags&SYN == 0 {
			// A straggling retransmission of a completed connection.
			r.Duplicate = len(payload)
			return r
		}
		s.restart()
	}
	if flags&RST != 0 {
		r.Abandoned = s.Release()
		s.wasReset = true
		r.Event = EventReset
		return r
	}
	dataSeq := seq
	if flags&SYN != 0 {
		dataSeq = seq + 1 // SYN occupies one sequence number
	}
	if !s.started {
		s.started = true
		s.next = dataSeq
		s.pos = 0
	}
	// Stream offset of payload[0]: signed 32-bit distance from the
	// delivery point handles sequence wraparound.
	off := s.pos + int64(int32(dataSeq-s.next))
	if flags&FIN != 0 && !s.finSeen {
		s.finSeen = true
		s.finOff = off + int64(len(payload))
	}
	data := payload
	// Bytes at or before the delivery point are already committed.
	if off < s.pos {
		cut := s.pos - off
		if cut >= int64(len(data)) {
			r.Duplicate += len(data)
			data = nil
		} else {
			r.Duplicate += int(cut)
			data = data[cut:]
			off = s.pos
		}
	}
	if len(data) > 0 {
		// Resolve overlaps with held bytes per policy first, producing
		// pieces disjoint from the buffer; then each piece is either
		// contiguous with the delivery point (deliver now, drain holes it
		// fills behind it) or buffered.
		var pieces []seg
		if s.cfg.Policy == FirstWins {
			pieces = []seg{{off: off, data: data}}
			if o := s.ooo; o != nil {
				for _, h := range o.held {
					pieces = subtract(pieces, h.off, h.off+int64(len(h.data)), &r)
				}
			}
		} else {
			s.trimHeld(off, off+int64(len(data)), &r)
			pieces = []seg{{off: off, data: data}}
		}
		for _, p := range pieces {
			if p.off > s.pos {
				s.addPiece(p.off, p.data, &r)
				continue
			}
			chunk := p.data
			if cut := s.pos - p.off; cut > 0 {
				if cut >= int64(len(chunk)) {
					r.Duplicate += len(chunk)
					continue
				}
				r.Duplicate += int(cut)
				chunk = chunk[cut:]
			}
			deliver(chunk, 0)
			r.Delivered += len(chunk)
			s.advance(len(chunk))
			s.drain(deliver, &r, 0)
		}
	}
	s.checkFinished(&r)
	s.checkGap(tick, deliver, &r)
	return r
}

// restart re-arms a finished or reset stream for a new connection reusing
// the same 5-tuple (a SYN after FIN/RST): all positions and buffers clear;
// the caller is responsible for fresh scanner state.
func (s *Stream) restart() {
	s.Release()
	s.Init(s.cfg)
}

// advance moves the delivery point n committed bytes forward.
func (s *Stream) advance(n int) {
	s.pos += int64(n)
	s.next += uint32(n)
}

// drain delivers every held segment that is now contiguous with the
// delivery point. skippedBefore is attached to the first delivered chunk
// (non-zero only when a gap skip led here). Each segment leaves heldBy and
// the budget before its bytes go to deliver, and the taken segments leave
// held on the way out even if deliver panics, so a caller that recovers sees
// a consistent stream.
func (s *Stream) drain(deliver func([]byte, int), r *Result, skippedBefore int) {
	o := s.ooo
	if o == nil || len(o.held) == 0 || o.held[0].off > s.pos {
		return
	}
	n := 0
	defer func() { o.consume(n) }()
	for n < len(o.held) && o.held[n].off <= s.pos {
		h := o.held[n]
		n++
		o.heldBy -= len(h.data)
		s.cfg.Budget.release(len(h.data))
		data := h.data
		if h.off < s.pos { // partially covered by a just-delivered overlap
			cut := s.pos - h.off
			if cut >= int64(len(data)) {
				r.Duplicate += len(data)
				continue
			}
			r.Duplicate += int(cut)
			data = data[cut:]
		}
		deliver(data, skippedBefore)
		skippedBefore = 0
		r.Delivered += len(data)
		s.advance(len(data))
	}
}

// checkFinished flips the stream to finished once every byte up to the FIN
// has been delivered (or skipped past).
func (s *Stream) checkFinished(r *Result) {
	if s.finSeen && !s.finished && s.pos >= s.finOff {
		s.finished = true
		r.Abandoned += s.Release() // anything held beyond the FIN is bogus
		r.Event = EventFinished
	}
}

// checkGap maintains the gap timer and, once the timeout expires, skips
// the delivery point to the first held byte so a lost segment cannot wedge
// the flow. The timer is armed when delivery first stalls with bytes
// waiting and re-armed after every skip for the next gap.
func (s *Stream) checkGap(tick uint64, deliver func([]byte, int), r *Result) {
	o := s.ooo
	if o == nil {
		return
	}
	if s.finished || len(o.held) == 0 {
		o.gapSince = 0
		return
	}
	if o.gapSince == 0 {
		o.gapSince = tick + 1 // +1 so tick 0 still arms the timer
		return
	}
	if s.cfg.GapTimeout == 0 || tick+1-o.gapSince < s.cfg.GapTimeout {
		return
	}
	skipped := int(o.held[0].off - s.pos)
	s.pos = o.held[0].off
	s.next += uint32(skipped)
	o.gapSince = 0
	r.Skipped += skipped
	s.drain(deliver, r, skipped)
	s.checkFinished(r)
	if s.ooo != nil && len(s.ooo.held) > 0 { // a further gap: arm its timer now
		s.ooo.gapSince = tick + 1
	}
}

// trimHeld removes [off, end) from the held buffer (LastWins: the new
// bytes will overwrite), splitting segments that straddle the range. The
// discarded bytes count as Duplicate.
func (s *Stream) trimHeld(off, end int64, r *Result) {
	o := s.ooo
	if o == nil {
		return
	}
	kept := make([]seg, 0, len(o.held))
	for _, h := range o.held {
		hEnd := h.off + int64(len(h.data))
		if hEnd <= off || h.off >= end { // disjoint
			kept = append(kept, h)
			continue
		}
		// Remainders are copied, not subsliced: a tiny kept remnant would
		// otherwise pin the overwritten segment's whole backing array
		// while its budget charge is released — repeated overwrites could
		// then grow real memory far past the caps.
		freed := len(h.data)
		if h.off < off { // left remainder survives
			left := seg{off: h.off, data: append([]byte(nil), h.data[:off-h.off]...)}
			freed -= len(left.data)
			kept = append(kept, left)
		}
		if hEnd > end { // right remainder survives
			right := seg{off: end, data: append([]byte(nil), h.data[end-h.off:]...)}
			freed -= len(right.data)
			kept = append(kept, right)
		}
		r.Duplicate += freed
		o.heldBy -= freed
		s.cfg.Budget.release(freed)
	}
	o.held = kept
}

// subtract removes [lo, hi) from every piece, counting removed bytes as
// Duplicate. Pieces stay sorted and disjoint.
func subtract(pieces []seg, lo, hi int64, r *Result) []seg {
	var out []seg
	for _, p := range pieces {
		pEnd := p.off + int64(len(p.data))
		if pEnd <= lo || p.off >= hi { // disjoint
			out = append(out, p)
			continue
		}
		if p.off < lo {
			out = append(out, seg{off: p.off, data: p.data[:lo-p.off]})
		}
		if pEnd > hi {
			out = append(out, seg{off: hi, data: p.data[hi-p.off:]})
		}
		removed := min(pEnd, hi) - max(p.off, lo)
		r.Duplicate += int(removed)
	}
	return out
}

// addPiece inserts one non-overlapping piece, enforcing the per-flow cap
// and the shared budget. Under pressure the held bytes furthest from the
// delivery point are evicted first — but never to admit bytes that are
// themselves further out than everything already held.
func (s *Stream) addPiece(off int64, data []byte, r *Result) {
	if s.finSeen {
		// Bytes at or past the FIN cannot be part of this connection.
		if off >= s.finOff {
			r.Duplicate += len(data)
			return
		}
		if over := off + int64(len(data)) - s.finOff; over > 0 {
			r.Duplicate += int(over)
			data = data[:int64(len(data))-over]
		}
	}
	need := len(data)
	if need == 0 {
		return
	}
	max := s.cfg.maxFlowBytes()
	for o := s.ooo; o != nil && o.heldBy+need > max && len(o.held) > 0; {
		last := &o.held[len(o.held)-1]
		if last.off <= off {
			break // the new piece is the furthest; drop it instead
		}
		trim := o.heldBy + need - max
		if trim >= len(last.data) {
			freed := len(last.data)
			o.heldBy -= freed
			s.cfg.Budget.release(freed)
			r.Dropped += freed
			*last = seg{} // the backing array must not pin the evicted copy
			o.held = o.held[:len(o.held)-1]
		} else {
			// Copy the kept prefix so the evicted tail's memory is really
			// returned, not just uncharged (see the remnant note above).
			last.data = append([]byte(nil), last.data[:len(last.data)-trim]...)
			o.heldBy -= trim
			s.cfg.Budget.release(trim)
			r.Dropped += trim
		}
	}
	if held := s.HeldBytes(); held+need > max {
		fit := max - held
		if fit <= 0 {
			r.Dropped += need
			return
		}
		r.Dropped += need - fit
		data = data[:fit]
		need = fit
	}
	if !s.cfg.Budget.reserve(need) {
		r.Dropped += need
		return
	}
	if s.ooo == nil {
		s.ooo = &outOfOrder{}
	}
	o := s.ooo
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
	for i > 0 && o.held[i-1].off > off {
		i--
	}
	o.held = append(o.held, seg{})
	copy(o.held[i+1:], o.held[i:])
	o.held[i] = seg{off: off, data: data}
	r.Buffered += need
}
