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
// What a cursor holds out of order lives in one byte log: a header, then
// the held runs in sequence order, each a few varint bytes and what is
// resident of it — the payload, or, given a Fold, what the caller's scanner
// still needs of it: a prefix of at most D bytes (D the longest pattern) to
// rescan from the stream's true registers, the registers its own scan ended
// in and the matches past the prefix, handed back unread but for the
// prefix's length. So a reordering path costs a few bytes a held run, not
// its payload. Caps and budgets charge the log's capacity; the byte ledger
// (Result, HeldBytes, Budget.Used) counts stream bytes, folded or not.
//
// Three policies keep a hostile or lossy feed from wedging the scanner:
//
//   - Overlap policy: when a later segment's bytes overlap data already
//     buffered, FirstWins keeps the bytes that arrived first (Snort's
//     default) and LastWins lets the retransmission overwrite them.
//     Bytes already delivered to the scanner are immutable under either
//     policy — delivery is the commit point.
//   - Buffer caps: MaxFlowBytes bounds one flow's held log and Budget the
//     sum across flows, both at capacity. Under pressure the bytes furthest
//     from the delivery point are dropped first (they are the least likely
//     to become deliverable soon) — a folded run is cut back to its prefix
//     or dropped whole; a drop becomes a gap handled like loss.
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
	"encoding/binary"
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
// goroutine alone writes it: held logs are charged at their capacity, beside
// whatever else the owner charges to the same memory. Used, the stream bytes
// held, may be read from any goroutine. A Config whose Budget is nil has no
// account and no cap across streams; the methods want a non-nil Budget.
type Budget struct {
	max  int64
	cost int64        // everything charged: the owner's and the held logs
	used atomic.Int64 // held stream bytes
}

// NewBudget returns a budget allowing max bytes charged.
func NewBudget(max int) *Budget { return &Budget{max: int64(max)} }

// Charge adds n bytes (negative n returns them) the owner keeps beside the
// held logs, which leaves them that much less room.
func (b *Budget) Charge(n int) { b.cost += int64(n) }

// Used returns the stream bytes currently held, folded or not.
func (b *Budget) Used() int { return int(b.used.Load()) }

// Cost returns everything charged: the owner's bytes, and the held logs at
// their capacity.
func (b *Budget) Cost() int { return int(b.cost) }

// reserve charges n more held stream bytes, and cost more capacity if that
// fits: what fills capacity already charged always does.
func (b *Budget) reserve(n, cost int) bool {
	if b == nil || cost > 0 && b.cost+int64(cost) > b.max {
		return b == nil
	}
	b.cost += int64(cost)
	b.used.Add(int64(n))
	return true
}

// release returns n held stream bytes and cost bytes of capacity.
func (b *Budget) release(n, cost int) {
	if b != nil {
		b.cost -= int64(cost)
		b.used.Add(int64(-n))
	}
}

// Config parameterizes a Stream, or every Cursor that shares it. Once a
// cursor holds a log through it, a Config must not be copied: it keeps the
// store the cursors' handles index (NewStream clears a copy's).
type Config struct {
	// Policy is the overlap policy for undelivered bytes.
	Policy Policy
	// MaxFlowBytes caps one stream's held log at its capacity, header
	// included; <= 0 selects 256 KiB, and a stream holds at most 2 GiB
	// whatever it says.
	MaxFlowBytes int
	// Budget, when non-nil, additionally caps the held logs' capacity across
	// all streams sharing it.
	Budget *Budget
	// GapTimeout is how many ticks delivery may stall on a missing
	// segment before the stream skips to the first buffered byte;
	// 0 disables skipping (a gap then stalls until eviction).
	GapTimeout uint64
	logs       *logStore // its cursors' held logs, made when the first is held
}

// logStore keeps held logs under the handles cursors store in place of a
// pointer: heads[h] is h's log (heads[0]: none), free the handles given back.
// Both start in the store's own arrays, sized for one cursor, so a Stream's
// store is one allocation.
type logStore struct {
	heads []*logHead
	free  []uint32
	head0 [2]*logHead
	free0 [1]uint32
}

// log returns c's held log, or nil.
func (cfg *Config) log(c *Cursor) *logHead {
	if c.log == 0 {
		return nil
	}
	return cfg.logs.heads[c.log]
}

// setLog makes h c's held log; a nil h frees c's handle, and its FIN with it.
func (cfg *Config) setLog(c *Cursor, h *logHead) {
	if cfg.logs == nil {
		cfg.logs = new(logStore)
		cfg.logs.heads, cfg.logs.free = cfg.logs.head0[:1], cfg.logs.free0[:0]
	}
	s := cfg.logs
	if n := len(s.free); c.log == 0 && n > 0 {
		c.log, s.free = s.free[n-1], s.free[:n-1]
	} else if c.log == 0 {
		c.log, s.heads = uint32(len(s.heads)), append(s.heads, nil)
	}
	if s.heads[c.log] = h; h == nil {
		s.free, c.log, c.finSeen = append(s.free, c.log), 0, false
	}
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
// with a prefix of it, or an empty one to hold the piece whole; the cursor
// copies it into its log, so it may be the caller's scratch. Prefix reports
// the prefix's length: the cursor reads a form through it alone, hands the
// form back to deliver with the piece's length when the piece drains, and
// under pressure cuts it back to its prefix or drops it whole. Every call
// on a cursor must fold the same way, or not at all.
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

// Cursor reassembles one flow direction, less its configuration: a plain
// 12 B value without a pointer that a flow record can embed, whose methods
// take the Config every cursor of a table shares. The cursor proper is the
// sequence number of the next in-order byte; everything only out-of-order
// delivery needs — the held runs, their byte count, the gap timer and a FIN
// seen ahead of a gap — sits in one log, which the Config keeps under the
// cursor's handle, that the first byte (or FIN) the cursor has to hold
// allocates and Release drops. A cursor whose segments arrive in order
// therefore owns no memory beyond itself. The zero value is an empty
// cursor: the first segment (or SYN) establishes its sequence base. Every
// call on one cursor must pass the same *Config, by address, its exported
// fields unchanged: a copy of it would not find the cursor's handle in its
// store, or would find another cursor's log there. Bytes a previous
// connection left held must be Released before the cursor is zeroed for the
// next, or the budget and the store never see them again.
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
	finSeen bool   // a FIN ahead of a gap is waiting in the log's fin
	next    uint32 // seq of the next in-order byte
	log     uint32 // the held log's handle in the Config's store; 0 for none
}

// Stream is a Cursor that owns its Config, for callers without a flow record
// to embed a Cursor in. Its methods are the cursor's with the config filled
// in.
type Stream struct {
	Cursor
	cfg Config
}

// logHead opens a held log of size bytes: these fields, then from head to
// end the held runs, ahead of the delivery point, sorted and disjoint. A run
// is uvarint(gap) past the previous run's end (base, for the first),
// uvarint(n) stream bytes and uvarint(size), then its size bytes: its Fold
// form, if shorter than n, or its bytes. Drained runs lie before head; the
// log moves when it needs their room, so what deliver got stays intact.
type logHead struct {
	gapSince        uint64 // tick+1 when delivery first stalled on the current gap
	fin             uint32 // seq one past the last byte, when finSeen
	held            uint32 // stream bytes the runs stand for
	base            uint32 // seq the first run's gap counts from
	tail            uint32 // seq one past the last run, while there is one
	head, end, size uint32
}

// headSize is a log's header: what an empty log, holding only a FIN, costs.
const headSize = int(unsafe.Sizeof(logHead{}))

// newLog returns a log in b, its capacity, that copies h's header and runs,
// or an empty one when h is nil.
func newLog(h *logHead, b []byte) *logHead {
	b = b[:cap(b)]
	g, runs := (*logHead)(unsafe.Pointer(&b[0])), []byte(nil)
	if h != nil {
		*g, runs = *h, h.bytes()[h.head:h.end]
	}
	g.head, g.end, g.size = uint32(headSize), uint32(headSize+copy(b[headSize:], runs)), uint32(len(b))
	return g
}

// bytes is the whole log, header included.
func (h *logHead) bytes() []byte { return unsafe.Slice((*byte)(unsafe.Pointer(h)), h.size) }

// run is one held run decoded: n stream bytes from seq held as body, at
// log[at:end] with its header. A piece of an arrival is its seq and body.
type run struct {
	seq     uint32
	n       int
	body    []byte
	at, end int
}

// next decodes into r the run that follows it, or the first when r is the
// zero run, and reports whether there was one; a nil log holds none.
func (h *logHead) next(r *run) bool {
	at, from := r.end, r.seq+uint32(r.n)
	if at == 0 && h != nil {
		at, from = int(h.head), h.base
	}
	if h == nil || at == int(h.end) {
		return false
	}
	b := h.bytes()[:h.end]
	gap, i := binary.Uvarint(b[at:])
	n, k := binary.Uvarint(b[at+i:])
	size, j := binary.Uvarint(b[at+i+k:])
	i, end := at+i+k+j, at+i+k+j+int(size)
	*r = run{seq: from + uint32(gap), n: int(n), body: b[i:end:end], at: at, end: end}
	return true
}

// putRun writes the header of a run of n stream bytes held as a body of
// size bytes, gap past the previous run's end, to b and returns its length.
func putRun(b []byte, gap uint32, n, size int) int {
	k := binary.PutUvarint(b, uint64(gap))
	k += binary.PutUvarint(b[k:], uint64(n))
	return k + binary.PutUvarint(b[k:], uint64(size))
}

// NewStream returns an empty stream with its own copy of cfg and log store.
func NewStream(cfg Config) *Stream {
	cfg.logs = nil
	return &Stream{cfg: cfg}
}

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
func (c *Cursor) HeldBytes(cfg *Config) int {
	if h := cfg.log(c); h != nil {
		return int(h.held)
	}
	return 0
}

// HeldCost returns what the held log is charged against the caps: its
// capacity, header included.
func (c *Cursor) HeldCost(cfg *Config) int {
	if h := cfg.log(c); h != nil {
		return int(h.size)
	}
	return 0
}

// Release frees the held log, returning it to cfg's budget, and reports how
// many stream bytes it discarded so the caller can account them (a
// byte-conservation ledger must not lose eviction-released bytes). Call it
// when the flow is evicted or reset mid-gap; it is idempotent. No FIN seen
// ahead of the gap, nor the cursor's handle, survives it.
func (c *Cursor) Release(cfg *Config) int {
	h := cfg.log(c)
	if h == nil {
		return 0
	}
	cfg.setLog(c, nil)
	cfg.Budget.release(int(h.held), int(h.size))
	return int(h.held)
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
// Chunks delivered reference payload (consume or copy it before the next
// Segment call) or the held log, which never writes over a run it has
// delivered; bytes that have to be held out of order are copied or folded
// into the log, so the stream never retains payload's backing array.
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
	// of a gap has to be remembered, in a log charged past the caps if need
	// be: the stream cannot end without it.
	finNow := flags&FIN != 0 && !c.finSeen && off <= 0
	if flags&FIN != 0 && !c.finSeen && off > 0 {
		if c.log == 0 {
			cfg.setLog(c, newLog(nil, make([]byte, headSize)))
			cfg.Budget.release(0, -headSize)
		}
		c.finSeen = true
		cfg.log(c).fin = dataSeq + uint32(len(payload))
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
		// pieces disjoint from the held runs; then each piece is either at
		// the delivery point (deliver now, and drain the held run it
		// reaches, which ends where the next piece starts) or held.
		var buf [2]run
		for _, p := range c.uncovered(cfg.log(c), cfg.Policy == LastWins, off, data, buf[:0], &r) {
			if pOff := c.ahead(p.seq); pOff > 0 {
				c.addPiece(cfg, fold, pOff, p.body, &r)
				continue
			}
			deliver(p.body, len(p.body), 0)
			r.Delivered += len(p.body)
			c.next += uint32(len(p.body))
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

// drain delivers every held run now contiguous with the delivery point —
// runs lie strictly ahead of it between calls and never overlap, so each
// one drained starts exactly there — advancing the log's head past it.
// skippedBefore goes with the first chunk (non-zero only after a gap skip).
// Each run leaves the log and the books before deliver sees it, so a caller
// that recovers from a panic in deliver sees a consistent stream.
func (c *Cursor) drain(cfg *Config, deliver func([]byte, int, int), r *Result, skippedBefore int) {
	h := cfg.log(c)
	for f := (run{}); h.next(&f) && c.ahead(f.seq) <= 0; {
		h.head, h.base = uint32(f.end), f.seq+uint32(f.n)
		h.held -= uint32(f.n)
		cfg.Budget.release(f.n, 0)
		deliver(f.body, f.n, skippedBefore)
		skippedBefore = 0
		r.Delivered += f.n
		c.next += uint32(f.n)
	}
}

// checkFinished completes the stream when this call's in-order FIN (finNow)
// or a FIN that arrived ahead of a gap has had every byte before it
// delivered (or skipped past).
func (c *Cursor) checkFinished(cfg *Config, r *Result, finNow bool) {
	if finNow || c.finSeen && c.ahead(cfg.log(c).fin) <= 0 {
		r.Abandoned += c.Release(cfg) // anything held beyond the FIN is bogus
		r.Event = EventFinished
	}
}

// checkGap maintains the gap timer and, once the timeout expires, skips
// the delivery point to the first held byte so a lost segment cannot wedge
// the flow. The timer is armed when delivery first stalls with bytes
// waiting and re-armed after every skip for the next gap. A cursor left
// holding nothing and no FIN frees its log, returning its capacity.
func (c *Cursor) checkGap(cfg *Config, tick uint64, deliver func([]byte, int, int), r *Result) {
	h := cfg.log(c)
	if h == nil { // nothing held, or the stream just completed
		return
	}
	var f run
	held := h.next(&f)
	if held && h.gapSince != 0 && cfg.GapTimeout != 0 && tick+1-h.gapSince >= cfg.GapTimeout {
		skipped := int(c.ahead(f.seq))
		c.next = f.seq
		h.gapSince = 0
		r.Skipped += skipped
		c.drain(cfg, deliver, r, skipped)
		c.checkFinished(cfg, r, false)
		if c.log == 0 {
			return
		}
		held = h.head != h.end
	}
	switch {
	case held:
		if h.gapSince == 0 { // a new gap, or a further one after a skip
			h.gapSince = tick + 1 // +1 so tick 0 still arms the timer
		}
	case c.finSeen:
		h.gapSince = 0
	default:
		cfg.setLog(c, nil)
		cfg.Budget.release(0, int(h.size))
	}
}

// uncovered appends to pieces the parts of data, off bytes past the
// delivery point, that no run of log h covers, counting the covered bytes as
// Duplicate: under FirstWins the held bytes arrived first; with overwrite
// (LastWins) data's bytes replace them in place, Buffered too. One pass
// splits data only at the runs it overlaps; an arrival past everything
// held is one piece, found without reading the log.
func (c *Cursor) uncovered(h *logHead, overwrite bool, off int64, data []byte, pieces []run, r *Result) []run {
	at, end := off, off+int64(len(data))
	for f := (run{}); h != nil && c.ahead(h.tail) > off && h.next(&f); {
		lo := c.ahead(f.seq)
		hi := lo + int64(f.n)
		if hi <= at {
			continue
		}
		if lo >= end {
			break
		}
		if lo > at {
			pieces = append(pieces, run{seq: c.next + uint32(at), body: data[at-off : lo-off]})
		}
		from, to := max(lo, at), min(hi, end)
		if overwrite {
			copy(f.body[from-lo:], data[from-off:to-off])
			r.Buffered += int(to - from)
		}
		r.Duplicate += int(to - from)
		at = hi
	}
	if at < end {
		pieces = append(pieces, run{seq: c.next + uint32(at), body: data[at-off:]})
	}
	return pieces
}

// place finds where in log h a run off bytes past the delivery point goes:
// at pos, its gap counted from seq from, before the run nx if more. The first
// run counts from the delivery point; one past every run reads none of them.
func (c *Cursor) place(h *logHead, off int64) (pos int, from uint32, nx run, more bool) {
	if h == nil {
		return headSize, c.next, run{}, false
	}
	if h.head != h.end && c.ahead(h.tail) <= off {
		return int(h.end), h.tail, run{}, false
	}
	pos, from = int(h.head), c.next
	for f := (run{}); h.next(&f); {
		if c.ahead(f.seq) > off {
			return pos, from, f, true
		}
		pos, from = f.end, f.seq+uint32(f.n)
	}
	return pos, from, run{}, false
}

// addPiece inserts one non-overlapping piece, off bytes past the delivery
// point, as a held run — folded, when fold takes it — within the per-flow
// cap and the shared budget. Under pressure the held bytes furthest from
// the delivery point are evicted first — but never to admit bytes that are
// themselves further out than everything already held.
func (c *Cursor) addPiece(cfg *Config, fold *Fold, off int64, data []byte, r *Result) {
	if c.finSeen { // bytes at or past the FIN cannot be part of this connection
		keep := max(min(c.ahead(cfg.log(c).fin)-off, int64(len(data))), 0)
		r.Duplicate += len(data) - int(keep)
		data = data[:keep]
	}
	if len(data) == 0 {
		return
	}
	form := data // what holding the piece keeps: its bytes, or its fold
	if fold != nil && cfg.Policy == FirstWins {
		if f := fold.Encode(data); len(f) > 0 {
			form = f
		}
	}
	seq, limit := c.next+uint32(off), cfg.maxFlowBytes()
	var hdr, gap [3 * binary.MaxVarintLen32]byte
	var pos, k, was, now, used, need int
	for {
		// The log's bytes in use, the run's header, and the next run's gap
		// recounted from its end.
		h := cfg.log(c)
		p, from, nx, more := c.place(h, off)
		pos, k, was, now, used = p, putRun(hdr[:], seq-from, len(data), len(form)), 0, 0, headSize
		if h != nil {
			used += int(h.end - h.head)
		}
		if more {
			_, was = binary.Uvarint(h.bytes()[nx.at:])
			now = binary.PutUvarint(gap[:], uint64(nx.seq-seq-uint32(len(data))))
		}
		if need = used + k + len(form) + now - was; need <= limit {
			break
		}
		if !more {
			// The piece is the furthest: keep what fits, a fold cut back to
			// its prefix.
			fit := limit - used - k
			if len(form) < len(data) {
				fit = min(fit, fold.Prefix(form))
			}
			if fit <= 0 {
				r.Dropped += len(data)
				return
			}
			r.Dropped += len(data) - fit
			data, form = data[:fit], data[:fit]
			continue
		}
		c.evictLast(cfg, fold, need-limit, r)
	}
	// Room: past the last run, or else in a new allocation — never over
	// drained runs, whose bytes a caller may still hold — charged its bytes
	// first, then the rest of its size class if that fits too.
	h := cfg.log(c)
	if h == nil || int(h.end)+need-used > int(h.size) {
		if h != nil { // the runs move down to the header, and pos with them
			pos -= int(h.head) - headSize
		}
		if !cfg.Budget.reserve(len(data), need-c.HeldCost(cfg)) {
			r.Dropped += len(data)
			return
		}
		// Past its first KiB a log takes a quarter more, so it moves once
		// per quarter of its size, not once per run.
		b := slices.Grow([]byte(nil), min(need+max(need-1<<10, 0)/4, limit))
		if cap(b) > limit || !cfg.Budget.reserve(0, cap(b)-need) {
			b = b[:need:need]
		}
		h = newLog(h, b)
		cfg.setLog(c, h)
	} else {
		cfg.Budget.reserve(len(data), 0)
	}
	if pos == int(h.head) {
		h.base = c.next
	}
	if pos == int(h.end) {
		h.tail = seq + uint32(len(data))
	}
	b, n := h.bytes(), k+len(form)+now
	copy(b[pos+n:], b[pos+was:h.end]) // what follows moves up
	h.end += uint32(n - was)
	copy(b[pos+copy(b[pos:], hdr[:k]):], form)
	copy(b[pos+k+len(form):], gap[:now])
	h.held += uint32(len(data))
	r.Buffered += len(data)
}

// evictLast frees at least trim bytes of the log from its last run: bytes
// lose their tail, a fold is cut back to its prefix if that frees enough,
// and what cannot be cut goes whole.
func (c *Cursor) evictLast(cfg *Config, fold *Fold, trim int, r *Result) {
	h, last := cfg.log(c), run{}
	for h.next(&last) {
	}
	keep := 0
	if len(last.body) == last.n {
		keep = max(last.n-trim, 0)
	} else if p := fold.Prefix(last.body); trim <= len(last.body)-p {
		keep = p
	}
	b := h.bytes()
	gap, _ := binary.Uvarint(b[last.at:])
	h.end, h.tail = uint32(last.at), last.seq-uint32(gap)
	if keep > 0 { // a header no longer than before, then the kept bytes
		at := last.at + putRun(b[last.at:], uint32(gap), keep, keep)
		h.end, h.tail = uint32(at+copy(b[at:], last.body[:keep])), last.seq+uint32(keep)
	}
	h.held -= uint32(last.n - keep)
	cfg.Budget.release(last.n-keep, 0)
	r.Dropped += last.n - keep
}
