package reassembly

// Stream-level tests: every permutation property here is re-proven end to
// end through the Gateway in the root package; these pin the mechanism in
// isolation — overlap policies, cap eviction ordering, gap skip, FIN
// completion, and sequence wraparound.

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// feed pushes one segment and returns the delivered bytes (concatenated)
// plus the skip amount reported before the first chunk.
func feed(t *testing.T, s *Stream, seq uint32, payload string, flags Flags, tick uint64) (string, int, Result) {
	t.Helper()
	var got bytes.Buffer
	skip := 0
	r := s.Segment(seq, []byte(payload), flags, tick, func(chunk []byte, skippedBefore int) {
		if skippedBefore > 0 {
			if skip != 0 {
				t.Fatal("two skips reported in one call")
			}
			skip = skippedBefore
		}
		got.Write(chunk)
	})
	return got.String(), skip, r
}

func TestInOrderDelivery(t *testing.T) {
	s := NewStream(Config{})
	out, _, r := feed(t, s, 1000, "hello ", 0, 0)
	if out != "hello " || r.Delivered != 6 {
		t.Fatalf("first segment: %q %+v", out, r)
	}
	delivered := r.Delivered
	out, _, r = feed(t, s, 1006, "world", FIN, 1)
	if out != "world" || r.Event != EventFinished {
		t.Fatalf("second segment: %q %+v", out, r)
	}
	if delivered += r.Delivered; delivered != 11 {
		t.Fatalf("delivered=%d", delivered)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	s := NewStream(Config{})
	// Segments arrive 2, 0, 1 — delivery must come out in stream order.
	if out, _, r := feed(t, s, 1000, "", SYN, 0); out != "" || r.Buffered != 0 {
		t.Fatalf("syn: %+v", r)
	}
	out, _, r := feed(t, s, 1011, "cccc", 0, 1)
	if out != "" || r.Buffered != 4 {
		t.Fatalf("future segment delivered early: %q %+v", out, r)
	}
	out, _, _ = feed(t, s, 1001, "aaaaa", 0, 2)
	if out != "aaaaa" {
		t.Fatalf("in-order head: %q", out)
	}
	out, _, r = feed(t, s, 1006, "bbbbb", 0, 3)
	if out != "bbbbbcccc" {
		t.Fatalf("hole fill must drain the buffer: %q", out)
	}
	if r.Delivered != 9 || s.HeldBytes() != 0 {
		t.Fatalf("drain accounting: %+v held=%d", r, s.HeldBytes())
	}
}

func TestSequenceWraparound(t *testing.T) {
	s := NewStream(Config{})
	isn := uint32(0xFFFFFFF8) // 8 bytes before wrap
	feed(t, s, isn, "", SYN, 0)
	out, _, r := feed(t, s, isn+1, "0123456", 0, 1) // crosses 2^32
	if out != "0123456" {
		t.Fatalf("pre-wrap: %q", out)
	}
	delivered := r.Delivered
	out, _, r = feed(t, s, isn+8, "89", 0, 2) // seq wrapped to 0x00000000
	if delivered += r.Delivered; out != "89" || delivered != 9 {
		t.Fatalf("post-wrap: %q delivered=%d", out, delivered)
	}
}

// TestOutOfOrderAcrossWrap: the cursor and the held segments live in sequence
// space, so a held segment that straddles 2^32, one past it, and a FIN ahead
// of the gap past it all drain in stream order once the head arrives.
func TestOutOfOrderAcrossWrap(t *testing.T) {
	const stream = "0123456789abcdefghij"
	isn := uint32(0xFFFFFFF8) // stream byte 7 sits at seq 0
	at := func(off int) uint32 { return isn + 1 + uint32(off) }
	s := NewStream(Config{})
	feed(t, s, isn, "", SYN, 0)
	if _, _, r := feed(t, s, at(len(stream)), "", FIN, 1); r.Event != EventNone || s.log == 0 {
		t.Fatalf("a FIN ahead of the gap: %+v", r)
	}
	for _, p := range []struct {
		off  int
		data string
	}{{4, stream[4:10]}, {12, stream[12:]}} { // [4,10) straddles the wrap
		if out, _, r := feed(t, s, at(p.off), p.data, 0, 2); out != "" || r.Buffered != len(p.data) {
			t.Fatalf("held %q: delivered %q, %+v", p.data, out, r)
		}
	}
	out, _, r := feed(t, s, at(0), stream[:4], 0, 3)
	if out != stream[:10] || r.Event != EventNone || s.HeldBytes() != len(stream)-12 {
		t.Fatalf("head delivered %q, %+v, held %d", out, r, s.HeldBytes())
	}
	out, _, r = feed(t, s, at(10), stream[10:12], 0, 4)
	if out != stream[10:] || r.Event != EventFinished || s.log != 0 {
		t.Fatalf("last hole delivered %q, %+v", out, r)
	}
}

// TestFinAheadIsOutOfOrderState: a FIN at or behind the delivery point
// finishes the stream in its own call and is never stored; a FIN ahead of a
// gap — even one with no payload — is the stream's out-of-order state, bounds
// what may still be held, and finishes the stream exactly when the gap fills.
func TestFinAheadIsOutOfOrderState(t *testing.T) {
	for _, tc := range []struct {
		name string
		last func(s *Stream) Result
	}{
		{"with-payload", func(s *Stream) Result { _, _, r := feed(t, s, 104, "def", FIN, 1); return r }},
		{"pure", func(s *Stream) Result { _, _, r := feed(t, s, 104, "", FIN, 1); return r }},
		{"payload-behind", func(s *Stream) Result { _, _, r := feed(t, s, 102, "bc", FIN, 1); return r }},
	} {
		s := NewStream(Config{})
		feed(t, s, 100, "", SYN, 0)
		feed(t, s, 101, "abc", 0, 0)
		if r := tc.last(s); r.Event != EventFinished || s.log != 0 {
			t.Fatalf("in-order FIN %s: %+v, out-of-order state %v", tc.name, r, s.log)
		}
	}

	b := NewBudget(1 << 20)
	s := NewStream(Config{Budget: b})
	feed(t, s, 100, "", SYN, 0)
	// A pure FIN after a 10-byte gap.
	if out, _, r := feed(t, s, 111, "", FIN, 1); out != "" || r.Event != EventNone || s.log == 0 || s.HeldBytes() != 0 {
		t.Fatalf("pure FIN ahead: %q %+v, out-of-order state %v", out, r, s.log)
	}
	// Bytes past the FIN cannot be part of the connection.
	if _, _, r := feed(t, s, 109, "89XY", 0, 2); r.Buffered != 2 || r.Duplicate != 2 {
		t.Fatalf("segment straddling the FIN: %+v", r)
	}
	if _, _, r := feed(t, s, 113, "ZZ", 0, 3); r.Duplicate != 2 || r.Buffered != 0 {
		t.Fatalf("segment past the FIN: %+v", r)
	}
	if out, _, r := feed(t, s, 101, "0123", 0, 4); out != "0123" || r.Event != EventNone {
		t.Fatalf("part of the gap: %q %+v", out, r)
	}
	out, _, r := feed(t, s, 105, "4567", 0, 5)
	if out != "456789" || r.Event != EventFinished || s.log != 0 || b.Used() != 0 {
		t.Fatalf("gap filled: %q %+v, out-of-order state %v, budget %d", out, r, s.log, b.Used())
	}

	// Release after a FIN ahead leaves nothing: no held bytes, no FIN, no
	// budget charge.
	s = NewStream(Config{Budget: b})
	feed(t, s, 100, "", SYN, 0)
	feed(t, s, 111, "", FIN, 1)
	feed(t, s, 105, "held", 0, 2)
	if n := s.Release(); n != 4 || s.log != 0 || s.finSeen || s.HeldBytes() != 0 || b.Used() != 0 {
		t.Fatalf("Release returned %d and left state %v (FIN %v), budget %d", n, s.log, s.finSeen, b.Used())
	}
}

// TestOutOfOrderArrivalAllocations: overlap resolution looks only at the held
// runs an arrival overlaps, and a held run is copied — or folded, through the
// caller's scratch — into the flow's one log, so under either policy an
// arrival disjoint from everything held allocates nothing of its own, however
// many runs are held: the log's growth, a size class at a time, amortises
// below one allocation. Each run costs what it holds and a few header bytes.
func TestOutOfOrderArrivalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	deliver := func([]byte, int, int) {}
	held, arrival := []byte("0123456789"), []byte("abcde")
	for _, pol := range []Policy{FirstWins, LastWins} {
		for _, fold := range []*Fold{nil, toyFold(2)} {
			for _, k := range []int{0, 1, 4, 8} {
				s := NewStream(Config{Policy: pol})
				c := &s.Cursor
				c.Segment(&s.cfg, 0, nil, SYN, 0, fold, deliver)
				for j := 1; j <= k; j++ { // [1000j, 1000j+10)
					c.Segment(&s.cfg, uint32(1+1000*j), held, 0, 0, fold, deliver)
				}
				// Arrivals land at 15..19 mod 20, between and around the held runs.
				off := 15
				allocs := testing.AllocsPerRun(100, func() {
					c.Segment(&s.cfg, uint32(1+off), arrival, 0, 0, fold, deliver)
					off += 20
				})
				if want := 10*k + 5*101; s.HeldBytes() != want {
					t.Fatalf("%v, fold %v, %d held: %d bytes held, want %d", pol, fold != nil, k, s.HeldBytes(), want)
				}
				want := 10*k + 5*101
				if fold != nil && pol == FirstWins { // every segment folds to 3 bytes
					want = 3*k + 3*101
				}
				resident := 0
				for _, h := range heldRuns(s) {
					resident += len(h.body)
				}
				if headers := logUsed(s) - headSize - resident; resident != want || headers > 4*(k+101) || s.HeldCost() < logUsed(s) {
					t.Fatalf("%v, fold %v, %d held: %d resident bytes (want %d) and %d of run headers in a log of %d",
						pol, fold != nil, k, resident, want, headers, s.HeldCost())
				}
				if allocs != 0 {
					t.Errorf("%v, fold %v: a disjoint arrival with %d segments held allocated %.0f times", pol, fold != nil, k, allocs)
				}
			}
		}
	}
}

// TestLogStoreHandles: cursors that share a Config keep their held logs in
// its store, each under its own handle. Release zeroes a cursor's handle and
// returns the slot, which the next cursor to hold something reuses — never a
// handle a cursor still holds, so every cursor delivers its own bytes when
// its hole fills; and each Stream keeps a store of its own, even when made
// from a Config whose cursors already hold logs, that costs it one
// allocation.
func TestLogStoreHandles(t *testing.T) {
	cfg := &Config{Budget: NewBudget(1 << 20)}
	var got []byte
	deliver := func(data []byte, _, _ int) { got = append(got, data...) }
	hold := func(c *Cursor, i int) { // a one-byte hole at seq 1, then the cursor's own bytes
		c.Segment(cfg, 0, nil, SYN, 0, nil, deliver)
		c.Segment(cfg, 2, []byte(fmt.Sprint("held by ", i)), 0, 0, nil, deliver)
	}
	live := make([]Cursor, 8)
	held := map[uint32]bool{}
	for i := range live {
		hold(&live[i], i)
		if h := live[i].log; h == 0 || held[h] {
			t.Fatalf("cursor %d holds handle %d, which another cursor holds", i, h)
		}
		held[live[i].log] = true
	}
	freed := map[uint32]bool{}
	for i := 1; i < len(live); i += 2 {
		h := live[i].log
		if n := live[i].Release(cfg); n != len(fmt.Sprint("held by ", i)) || live[i].log != 0 || cfg.logs.heads[h] != nil {
			t.Fatalf("Release of cursor %d returned %d, left it handle %d and its slot %p", i, n, live[i].log, cfg.logs.heads[h])
		}
		if !slices.Contains(cfg.logs.free, h) {
			t.Fatalf("handle %d is not on the free list %v", h, cfg.logs.free)
		}
		delete(held, h)
		freed[h] = true
	}
	next := make([]Cursor, 6)
	for i := range next {
		hold(&next[i], 100+i)
		if h := next[i].log; held[h] || i < len(freed) && !freed[h] {
			t.Fatalf("new cursor %d took handle %d: one still held, or not a freed one", i, h)
		}
		held[next[i].log] = true
	}
	if len(cfg.logs.heads) != 1+len(live)+len(next)-len(freed) || len(cfg.logs.free) != 0 {
		t.Fatalf("%d slots and %d free for %d logs held", len(cfg.logs.heads), len(cfg.logs.free), len(live)+len(next)-len(freed))
	}
	for i, c := range append(live, next...) {
		if c.log == 0 {
			continue
		}
		got = got[:0]
		c.Segment(cfg, 1, []byte("!"), 0, 0, nil, deliver)
		who := i
		if i >= len(live) {
			who = 100 + i - len(live)
		}
		if want := fmt.Sprint("!held by ", who); string(got) != want || c.log != 0 {
			t.Fatalf("cursor %d delivered %q, want %q, and kept handle %d", i, got, want, c.log)
		}
	}
	if cfg.Budget.Cost() != 0 || len(cfg.logs.free) != len(cfg.logs.heads)-1 {
		t.Fatalf("after every hole filled: %d B charged, %d of %d handles free", cfg.Budget.Cost(), len(cfg.logs.free), len(cfg.logs.heads)-1)
	}

	s1, s2 := NewStream(*cfg), NewStream(*cfg)
	for _, s := range []*Stream{s1, s2} {
		if s.cfg.logs != nil {
			t.Fatal("a new stream shares its config's store")
		}
		feed(t, s, 1, "0", 0, 0)
		feed(t, s, 5, "held", 0, 0)
	}
	if s1.cfg.logs == s2.cfg.logs || s1.log != 1 || s2.log != 1 || s1.HeldBytes() != 4 || s2.HeldBytes() != 4 {
		t.Fatalf("two streams: stores %p and %p, handles %d and %d, %d and %d bytes held",
			s1.cfg.logs, s2.cfg.logs, s1.log, s2.log, s1.HeldBytes(), s2.HeldBytes())
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := NewStream(Config{})
		s.Segment(0, nil, SYN, 0, func([]byte, int) {})
		s.Segment(2, []byte("held"), 0, 0, func([]byte, int) {})
		s.Release()
	})
	if !raceEnabled && allocs > 3 {
		t.Fatalf("a stream that holds once allocates %v objects, want at most 3: itself, its store and its log", allocs)
	}
}

func TestRetransmitExactDuplicate(t *testing.T) {
	for _, pol := range []Policy{FirstWins, LastWins} {
		s := NewStream(Config{Policy: pol})
		feed(t, s, 0, "abcdef", 0, 0)
		out, _, r := feed(t, s, 0, "abcdef", 0, 1)
		if out != "" || r.Duplicate != 6 || r.Delivered != 0 {
			t.Fatalf("%v: delivered retransmit: %q %+v", pol, out, r)
		}
		// Partial overlap with new tail: only the tail is delivered.
		out, _, r = feed(t, s, 3, "defghi", 0, 2)
		if out != "ghi" || r.Duplicate != 3 {
			t.Fatalf("%v: overlap tail: %q %+v", pol, out, r)
		}
	}
}

// TestConflictingRetransmitPolicies is the policy-divergence case: the
// same undelivered range is sent twice with different bytes.
func TestConflictingRetransmitPolicies(t *testing.T) {
	run := func(pol Policy) string {
		s := NewStream(Config{Policy: pol})
		feed(t, s, 0, "", SYN, 0)
		// Hole at [0,4); first copy of [4,8) says AAAA, second says BBBB.
		feed(t, s, 5, "AAAA", 0, 1)
		feed(t, s, 5, "BBBB", 0, 2)
		out, _, _ := feed(t, s, 1, "head", 0, 3)
		return out
	}
	if got := run(FirstWins); got != "headAAAA" {
		t.Fatalf("FirstWins reassembled %q, want headAAAA", got)
	}
	if got := run(LastWins); got != "headBBBB" {
		t.Fatalf("LastWins reassembled %q, want headBBBB", got)
	}
}

// TestInOrderOverlapRespectsPolicy: a hole-filling segment that also
// overlaps buffered bytes must obey the policy for the overlapped part.
func TestInOrderOverlapRespectsPolicy(t *testing.T) {
	run := func(pol Policy) string {
		s := NewStream(Config{Policy: pol})
		feed(t, s, 0, "", SYN, 0)
		feed(t, s, 5, "XXXX", 0, 1) // buffered at [4,8)
		// Fills [0,4), overlaps [4,8) with conflicting bytes, extends to [0,10).
		out, _, _ := feed(t, s, 1, "aaaabbbbcc", 0, 2)
		return out
	}
	if got := run(FirstWins); got != "aaaaXXXXcc" {
		t.Fatalf("FirstWins: %q, want aaaaXXXXcc", got)
	}
	if got := run(LastWins); got != "aaaabbbbcc" {
		t.Fatalf("LastWins: %q, want aaaabbbbcc", got)
	}
}

func TestGapSkip(t *testing.T) {
	s := NewStream(Config{GapTimeout: 3})
	feed(t, s, 0, "", SYN, 0)
	// Segment [10,14) arrives; bytes [0,10) are lost forever.
	passed := 0 // stream bytes delivered or skipped past
	if out, _, r := feed(t, s, 11, "tail", 0, 5); out != "" {
		t.Fatalf("delivered across gap: %q", out)
	} else {
		passed += r.Delivered + r.Skipped
	}
	// Ticks 6,7: timer armed at 5, not yet expired.
	if out, _, r := feed(t, s, 11, "tail", 0, 6); out != "" {
		t.Fatal("skipped too early")
	} else {
		passed += r.Delivered + r.Skipped
	}
	out, skip, r := feed(t, s, 11, "tail", 0, 9)
	if out != "tail" || skip != 10 || r.Skipped != 10 {
		t.Fatalf("skip: out=%q skip=%d %+v", out, skip, r)
	}
	if passed += r.Delivered + r.Skipped; passed != 14 {
		t.Fatalf("passed %d stream bytes, want 14 (10 skipped + 4 delivered)", passed)
	}
	// Stream continues normally after the skip.
	if out, _, _ := feed(t, s, 15, "more", 0, 10); out != "more" {
		t.Fatalf("post-skip delivery: %q", out)
	}
}

func TestGapSkipDisabled(t *testing.T) {
	s := NewStream(Config{GapTimeout: 0})
	feed(t, s, 0, "", SYN, 0)
	feed(t, s, 11, "tail", 0, 1)
	if out, _, r := feed(t, s, 11, "tail", 0, 1<<40); out != "" || r.Skipped != 0 {
		t.Fatalf("skipped with timeout disabled: %q %+v", out, r)
	}
}

// TestFlowCapEvictionOrder: under the per-flow cap, bytes furthest from
// the delivery point are evicted first, and a piece further out than
// everything held is dropped rather than admitted. The cap holds a log of
// two 4-byte runs, each behind its 3-byte header.
func TestFlowCapEvictionOrder(t *testing.T) {
	s := NewStream(Config{MaxFlowBytes: headSize + 2*(3+4)})
	feed(t, s, 0, "", SYN, 0)
	feed(t, s, 5, "AAAA", 0, 1)  // [4,8)
	feed(t, s, 13, "CCCC", 0, 2) // [12,16)
	if s.HeldBytes() != 8 {
		t.Fatalf("held=%d", s.HeldBytes())
	}
	// [8,12) is closer than [12,16): the far piece must be evicted.
	_, _, r := feed(t, s, 9, "BBBB", 0, 3)
	if r.Buffered != 4 || r.Dropped != 4 {
		t.Fatalf("eviction accounting: %+v", r)
	}
	// A piece beyond everything held is the one dropped.
	_, _, r = feed(t, s, 21, "EEEE", 0, 4)
	if r.Dropped != 4 || r.Buffered != 0 {
		t.Fatalf("furthest new piece kept: %+v", r)
	}
	// Filling the head delivers the two surviving runs.
	out, _, _ := feed(t, s, 1, "head", 0, 5)
	if out != "headAAAABBBB" {
		t.Fatalf("survivors: %q, want headAAAABBBB", out)
	}
}

func TestSharedBudget(t *testing.T) {
	// A log of one 4-byte run takes 47 B, in a 48 B size class: two such
	// logs do not fit.
	each := headSize + 3 + 4
	b := NewBudget(2*each - 1)
	s1 := NewStream(Config{Budget: b})
	s2 := NewStream(Config{Budget: b})
	feed(t, s1, 0, "", SYN, 0)
	feed(t, s2, 0, "", SYN, 0)
	if _, _, r := feed(t, s1, 11, "aaaa", 0, 1); r.Buffered != 4 || b.Cost() != s1.HeldCost() {
		t.Fatalf("first reserve: %+v, cost %d for a log of %d", r, b.Cost(), s1.HeldCost())
	}
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 1); r.Dropped != 4 {
		t.Fatalf("budget not enforced: %+v", r)
	}
	if b.Used() != 4 {
		t.Fatalf("budget used=%d", b.Used())
	}
	// Releasing s1 (eviction mid-gap) frees the budget for s2.
	s1.Release()
	if b.Used() != 0 || b.Cost() != 0 {
		t.Fatalf("release leaked: used=%d cost=%d", b.Used(), b.Cost())
	}
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 2); r.Buffered != 4 {
		t.Fatalf("post-release reserve: %+v", r)
	}
	// What the owner charges beside the held logs leaves them less room.
	s2.Release()
	b.Charge(each)
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 3); r.Dropped != 4 || b.Cost() != each {
		t.Fatalf("owner's charge not enforced: %+v, cost %d", r, b.Cost())
	}
	b.Charge(-3)
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 4); r.Buffered != 4 {
		t.Fatalf("a returned charge left no room: %+v", r)
	}
}

// TestFinCompletesStream: a FIN ahead of a gap completes the stream only
// when the gap fills, and the completed stream holds nothing — a straggler
// behind the FIN is a duplicate by sequence arithmetic alone, with no
// lifecycle flag. What comes after is the owner's: a zero Cursor starts the
// next connection's stream at its own SYN, and Release is all an RST needs.
func TestFinCompletesStream(t *testing.T) {
	b := NewBudget(1 << 20)
	cfg := Config{Budget: b}
	s := NewStream(cfg)
	feed(t, s, 100, "", SYN, 0)
	// FIN arrives out of order: finish only once the hole fills.
	if _, _, r := feed(t, s, 104, "df", FIN, 1); r.Event != EventNone {
		t.Fatalf("finished with a hole open: %+v", r)
	}
	out, _, r := feed(t, s, 101, "abc", 0, 2)
	if out != "abcdf" || r.Event != EventFinished || s.log != 0 || s.finSeen {
		t.Fatalf("fin completion: %q %+v, out-of-order state %v", out, r, s.log)
	}
	// A retransmission behind the FIN re-delivers nothing.
	if out, _, r := feed(t, s, 101, "abc", 0, 3); out != "" || r.Duplicate != 3 {
		t.Fatalf("straggler delivered: %q %+v", out, r)
	}
	// A new connection on the tuple is a fresh stream at its own ISN.
	s.Cursor = Cursor{}
	out, _, r = feed(t, s, 9000, "fresh", SYN, 4)
	if out != "fresh" || r.Delivered != 5 {
		t.Fatalf("new connection: %q %+v", out, r)
	}
	// Tearing it down mid-gap (an RST) is Release: the held bytes leave the
	// stream and the budget, and are reported for the owner's ledger.
	feed(t, s, 9020, "held", 0, 5)
	if n := s.Release(); n != 4 || s.HeldBytes() != 0 || b.Used() != 0 {
		t.Fatalf("release returned %d, left %d held, budget %d", n, s.HeldBytes(), b.Used())
	}
}

// TestInOrderStreamHoldsNothing: a stream whose segments arrive in order
// never allocates its out-of-order state, so Segment allocates nothing; the
// first byte it has to hold creates that state and Release drops it again.
func TestInOrderStreamHoldsNothing(t *testing.T) {
	for _, pol := range []Policy{FirstWins, LastWins} {
		s := NewStream(Config{Policy: pol})
		deliver := func([]byte, int) {}
		payload := []byte("0123456789")
		s.Segment(0, nil, SYN, 0, deliver)
		seq := uint32(1)
		allocs := testing.AllocsPerRun(100, func() {
			s.Segment(seq, payload, 0, 0, deliver)
			seq += uint32(len(payload))
		})
		if !raceEnabled && allocs != 0 {
			t.Errorf("%v: an in-order Segment allocated %.0f times", pol, allocs)
		}
		if s.log != 0 {
			t.Fatalf("%v: an in-order stream holds out-of-order state", pol)
		}
		s.Segment(seq+5, payload, 0, 1, deliver)
		if s.log == 0 || s.HeldBytes() != len(payload) {
			t.Fatalf("%v: a held segment left no out-of-order state (held %d)", pol, s.HeldBytes())
		}
		if n := s.Release(); n != len(payload) || s.log != 0 || s.HeldBytes() != 0 {
			t.Fatalf("%v: Release returned %d and left out-of-order state %v", pol, n, s.log)
		}
	}
}

// folded is one delivery through a Fold: resident bytes standing for n
// stream bytes, after skip unseen ones.
type folded struct {
	data    string
	n, skip int
}

// feedFold is feed through s's cursor with fold, recording each delivery.
func feedFold(s *Stream, fold *Fold, seq uint32, payload string, flags Flags, tick uint64) ([]folded, Result) {
	var got []folded
	r := s.Cursor.Segment(&s.cfg, seq, []byte(payload), flags, tick, fold, func(data []byte, n, skip int) {
		got = append(got, folded{string(data), n, skip})
	})
	return got, r
}

// TestFoldedSegments: under FirstWins a cursor holds a piece its fold
// shrinks as its form, in its log at the form's size, and hands the form back
// with the piece's length when it drains, a gap skip's count with it when a
// skip lands there; a piece the fold would not shrink, and every piece
// under LastWins, is held whole. Under the cap, a folded segment is cut
// back to its own prefix, as the fold's Prefix reads it off the form, held
// whole, or dropped whole — never cut inside the rest of its form.
func TestFoldedSegments(t *testing.T) {
	fold := toyFold(4)
	b := NewBudget(1 << 20)
	s := NewStream(Config{Budget: b, GapTimeout: 2})
	feedFold(s, fold, 0, "", SYN, 0)
	feedFold(s, fold, 11, "abcdefghij", 0, 1) // [10,20), folded
	feedFold(s, fold, 21, "wxyz", 0, 1)       // [20,24), which the fold does not shrink
	// Each run is 3 B of header: [10,20) then has its 5 B form, [20,24) its
	// bytes.
	if s.HeldBytes() != 14 || b.Used() != 14 || logUsed(s) != headSize+8+7 || b.Cost() != s.HeldCost() {
		t.Fatalf("held %d stream bytes in %d B of log, budget used %d at cost %d", s.HeldBytes(), logUsed(s), b.Used(), b.Cost())
	}
	got, r := feedFold(s, fold, 1, "0123456789", 0, 1)
	want := []folded{{"0123456789", 10, 0}, {"abcd\x0a", 10, 0}, {"wxyz", 4, 0}}
	if !slices.Equal(got, want) || r.Delivered != 24 || s.log != 0 || b.Cost() != 0 {
		t.Fatalf("the hole filled: delivered %q, %+v, budget cost %d", got, r, b.Cost())
	}
	// A gap skip landing on a folded segment.
	feedFold(s, fold, 31, "0123456789", 0, 3) // [30,40) behind a 6-byte gap
	if got, r := feedFold(s, fold, 31, "0123456789", 0, 5); !slices.Equal(got, []folded{{"0123\x0a", 10, 6}}) || r.Skipped != 6 {
		t.Fatalf("the gap skip delivered %q, %+v", got, r)
	}

	s = NewStream(Config{Policy: LastWins})
	feedFold(s, fold, 0, "", SYN, 0)
	feedFold(s, fold, 11, "abcdefghij", 0, 1)
	if got, _ := feedFold(s, fold, 1, "0123456789", 0, 1); len(got) != 2 || got[1] != (folded{"abcdefghij", 10, 0}) {
		t.Fatalf("LastWins delivered %q: held bytes it may still overwrite folded", got)
	}

	// Cut back to its prefix: [30,40) folds to an 8 B run and [10,20) must
	// fit beside it, one byte short.
	s = NewStream(Config{MaxFlowBytes: headSize + 8 + 8 - 1})
	feedFold(s, fold, 0, "", SYN, 0)
	feedFold(s, fold, 31, "ABCDEFGHIJ", 0, 1)
	if _, r := feedFold(s, fold, 11, "abcdefghij", 0, 1); r.Buffered != 10 || r.Dropped != 6 || s.HeldBytes() != 14 {
		t.Fatalf("cutting the furthest fold back: %+v, %d held", r, s.HeldBytes())
	}
	feedFold(s, fold, 1, "0123456789", 0, 1)
	if got, _ := feedFold(s, fold, 21, "0123456789", 0, 1); len(got) != 2 || got[1] != (folded{"ABCD", 4, 0}) {
		t.Fatalf("the cut fold delivered as %q", got)
	}
	// Cut back to a prefix of its own: [30,40) ends its prefix at the '|'
	// and folds to a 7 B run, and one byte of it must go for [10,20) to fit.
	s = NewStream(Config{MaxFlowBytes: headSize + 7 + 8 - 1})
	feedFold(s, fold, 0, "", SYN, 0)
	feedFold(s, fold, 31, "AB|DEFGHIJ", 0, 1)
	if _, r := feedFold(s, fold, 11, "abcdefghij", 0, 1); r.Buffered != 10 || r.Dropped != 7 || s.HeldBytes() != 13 {
		t.Fatalf("cutting the furthest fold back to its own prefix: %+v, %d held", r, s.HeldBytes())
	}
	feedFold(s, fold, 1, "0123456789", 0, 1)
	if got, _ := feedFold(s, fold, 21, "0123456789", 0, 1); len(got) != 2 || got[1] != (folded{"AB|", 3, 0}) {
		t.Fatalf("the fold cut to its own prefix delivered as %q", got)
	}
	// Dropped whole: a cap with no room for its prefix beside the nearer
	// piece.
	s = NewStream(Config{MaxFlowBytes: headSize + 8 + 5})
	feedFold(s, fold, 0, "", SYN, 0)
	feedFold(s, fold, 31, "ABCDEFGHIJ", 0, 1)
	if _, r := feedFold(s, fold, 11, "abcdefghij", 0, 1); r.Buffered != 10 || r.Dropped != 10 || s.HeldBytes() != 10 || len(heldRuns(s)) != 1 {
		t.Fatalf("dropping the furthest fold whole: %+v, %d held", r, s.HeldBytes())
	}
	if n := s.Release(); n != 10 {
		t.Fatalf("Release returned %d stream bytes, want 10", n)
	}
}

// TestDrainedStreamDropsOutOfOrderState: a stream that a drain leaves holding
// no segment and no FIN drops its out-of-order state, and the held list at
// its peak capacity with it — no budget is charged for either — whether a
// hole filled or a gap skip drained it. A FIN still waiting ahead of a gap
// keeps the state until the stream completes.
func TestDrainedStreamDropsOutOfOrderState(t *testing.T) {
	s := NewStream(Config{})
	feed(t, s, 0, "", SYN, 0)
	feed(t, s, 11, "later", 0, 1) // [10,15)
	feed(t, s, 21, "more", 0, 1)  // [20,24)
	if out, _, _ := feed(t, s, 1, "0123456789", 0, 2); out != "0123456789later" || s.log == 0 {
		t.Fatalf("a partial drain delivered %q and left out-of-order state %v", out, s.log)
	}
	if out, _, _ := feed(t, s, 16, "abcde", 0, 3); out != "abcdemore" || s.log != 0 || s.HeldBytes() != 0 {
		t.Fatalf("the last hole filled: delivered %q, out-of-order state %v", out, s.log)
	}

	s = NewStream(Config{GapTimeout: 2})
	feed(t, s, 0, "", SYN, 0)
	feed(t, s, 11, "tail", 0, 1)
	if out, skip, _ := feed(t, s, 11, "tail", 0, 5); out != "tail" || skip != 10 || s.log != 0 {
		t.Fatalf("a gap skip delivered %q after %d bytes and left out-of-order state %v", out, skip, s.log)
	}

	s = NewStream(Config{})
	feed(t, s, 100, "", SYN, 0)
	feed(t, s, 111, "", FIN, 1)   // the stream ends at 10
	feed(t, s, 105, "held", 0, 1) // [4,8)
	if out, _, r := feed(t, s, 101, "0123", 0, 2); out != "0123held" || r.Event != EventNone || s.log == 0 {
		t.Fatalf("a drain short of the FIN delivered %q, %+v, out-of-order state %v", out, r, s.log)
	}
	if _, _, r := feed(t, s, 109, "89", 0, 3); r.Event != EventFinished || s.log != 0 {
		t.Fatalf("the FIN's gap filled: %+v, out-of-order state %v", r, s.log)
	}
}

// TestDrainedLogKeepsDeliveredBytes: a drain advances the log's head and
// keeps its capacity, charged as before, and never writes over the runs it
// delivered: a caller may keep a drained chunk across later calls. The next
// run that needs the drained room moves the log to a new allocation sized
// for what it holds, its old capacity returned. The cap holds a log of the
// four 2-byte runs below, each behind its 3-byte header, and nothing more.
func TestDrainedLogKeepsDeliveredBytes(t *testing.T) {
	b := NewBudget(1 << 20)
	s := NewStream(Config{MaxFlowBytes: headSize + 4*(3+2), Budget: b})
	var kept [][]byte // every chunk delivered, as handed over
	hold := func(seq uint32, payload string) string {
		var out []byte
		s.Segment(seq, []byte(payload), 0, 1, func(chunk []byte, _ int) {
			kept = append(kept, chunk)
			out = append(out, chunk...)
		})
		return string(out)
	}
	feed(t, s, 0, "", SYN, 0)
	for _, p := range []struct {
		seq  uint32
		data string
	}{{3, "AA"}, {11, "CC"}, {15, "DD"}, {19, "EE"}} { // [2,4) [10,12) [14,16) [18,20)
		hold(p.seq, p.data)
	}
	full := s.HeldCost()
	check := func(when string, runs, cost int) {
		t.Helper()
		if got := len(heldRuns(s)); got != runs || s.HeldCost() != cost || b.Cost() != cost {
			t.Fatalf("%s: %d runs held (want %d) in a log of %d B charged %d, want %d", when, got, runs, s.HeldCost(), b.Cost(), cost)
		}
	}
	check("the cap full", 4, full)
	// [5,9) needs 7 B: the two furthest runs go.
	if _, _, r := feed(t, s, 6, "BBBB", 0, 2); r.Dropped != 4 || r.Buffered != 4 {
		t.Fatalf("cap eviction: %+v", r)
	}
	check("after a cap eviction", 3, full)
	// [0,2) fills the first hole: [2,4) drains, [5,9) and [10,12) stay held.
	if out := hold(1, "xx"); out != "xxAA" || logOf(s).head == uint32(headSize) {
		t.Fatalf("hole fill delivered %q, the head at %d", out, logOf(s).head)
	}
	check("after a hole fills", 2, full)
	// [20,22) fits only in the drained run's room: the log moves.
	hold(21, "GG")
	if logOf(s).head != uint32(headSize) || s.HeldCost() >= full {
		t.Fatalf("a log of %d B, its head at %d: it did not move to a smaller one", s.HeldCost(), logOf(s).head)
	}
	check("after the log moved", 3, s.HeldCost())
	if s.HeldBytes() != 8 {
		t.Fatalf("held %d bytes, want 8", s.HeldBytes())
	}
	hold(5, "y")
	hold(10, "z")
	if out := hold(13, "12345678"); out != "12345678GG" || s.log != 0 || b.Cost() != 0 {
		t.Fatalf("the last hole filled: delivered %q, log %v, budget cost %d", out, s.log, b.Cost())
	}
	if got := string(bytes.Join(kept, nil)); got != "xxAAyBBBBzCC12345678GG" {
		t.Fatalf("the chunks delivered read %q once the stream is done", got)
	}
}

// TestHeldSegmentsChargedAtCost: a flow stuffed with tiny segments, each
// behind a hole of its own size, is charged what holding them occupies — its
// log's capacity, header included — against both MaxFlowBytes and the
// budget, so the segments it can hold, and the heap they take, stay
// proportional to the cap however small they are. A run costs its resident
// bytes and a header of a few bytes. Folded, 512-byte segments are held as
// their 17-byte forms: the cap holds 23 times as many, more stream bytes
// than the cap itself.
func TestHeldSegmentsChargedAtCost(t *testing.T) {
	const maxFlowBytes = 256 << 10
	for _, tc := range []struct {
		size int
		fold *Fold
	}{{1, nil}, {8, nil}, {64, nil}, {512, nil}, {512, toyFold(16)}} {
		b := NewBudget(1 << 30)
		before := liveHeap()
		s := NewStream(Config{MaxFlowBytes: maxFlowBytes, Budget: b})
		hold := func(seq uint32, payload []byte, flags Flags) Result {
			return s.Cursor.Segment(&s.cfg, seq, payload, flags, 0, tc.fold, func([]byte, int, int) {})
		}
		hold(0, nil, SYN)
		payload := bytes.Repeat([]byte{'x'}, tc.size)
		for k := 0; ; k++ { // [(2k+1)·size, (2k+2)·size), behind a hole
			if r := hold(uint32(1+(2*k+1)*tc.size), payload, 0); r.Buffered == 0 {
				break
			}
		}
		charge := b.Cost()
		heap := int64(liveHeap()) - int64(before)
		runtime.KeepAlive(s)
		runs, whole := heldRuns(s), 0
		for _, h := range runs {
			if h.n == tc.size {
				whole++
			}
		}
		name := fmt.Sprintf("%d-byte segments (folded %v)", tc.size, tc.fold != nil)
		if charge != s.HeldCost() || charge != int(logOf(s).size) || b.Used() != s.HeldBytes() {
			t.Fatalf("%s: budget charged %d and used %d, held %d in %d runs in a log of %d",
				name, charge, b.Used(), s.HeldBytes(), len(runs), logOf(s).size)
		}
		// The cap holds this many whole runs, header and all, and the
		// piece arriving past them is cut to the bytes that still fit.
		var hdr [16]byte
		each := putRun(hdr[:], uint32(tc.size), tc.size, tc.size) + tc.size
		if tc.fold != nil {
			each = putRun(hdr[:], uint32(tc.size), tc.size, 17) + 16 + 1 // toyFold(16)'s prefix and length byte
			if s.HeldBytes() <= maxFlowBytes {
				t.Errorf("%s: %d stream bytes held under a %d B cap: the folds did not shrink the charge", name, s.HeldBytes(), maxFlowBytes)
			}
		}
		if most := (maxFlowBytes - headSize) / each; whole > most || len(runs) > whole+1 || charge > maxFlowBytes {
			t.Errorf("%s: %d held (%d whole) at cost %d, the cap allows %d whole at %d",
				name, len(runs), whole, charge, most, maxFlowBytes)
		}
		t.Logf("%s: %d held (%d stream bytes) in a log of %d B, %d B of heap", name, len(runs), s.HeldBytes(), charge, heap)
		if !raceEnabled && heap > 3*int64(charge)/2 {
			t.Errorf("%s: %d held take %d B of heap, %.2f× their %d B charge",
				name, len(runs), heap, float64(heap)/float64(charge), charge)
		}
		if s.Release(); b.Cost() != 0 || b.Used() != 0 {
			t.Fatalf("%s: Release left the budget at cost %d, used %d", name, b.Cost(), b.Used())
		}
	}
}

// TestHeldLogFootprint: a flow holding nine 200-byte runs folded to 36 B
// forms, each behind a 100-byte hole, costs 40 B a run — a byte of gap, two
// of length, one of form length — and the log's header, in one allocation
// of that size class, whatever order the runs arrived in: no descriptor,
// no allocation per form, no doubling slack.
func TestHeldLogFootprint(t *testing.T) {
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1, 0}, {4, 0, 8, 2, 6, 1, 7, 3, 5}} {
		b := NewBudget(1 << 20)
		s := NewStream(Config{Budget: b})
		fold := toyFold(35)
		s.Cursor.Segment(&s.cfg, 0, nil, SYN, 0, fold, func([]byte, int, int) {})
		for _, k := range order { // [300k+100, 300k+300)
			s.Cursor.Segment(&s.cfg, uint32(1+300*k+100), bytes.Repeat([]byte{'x'}, 200), 0, 0, fold, func([]byte, int, int) {})
		}
		runs := heldRuns(s)
		exact := 9*40 + headSize
		class := cap(slices.Grow([]byte(nil), exact))
		if len(runs) != 9 || logUsed(s) != exact || s.HeldCost() > class || b.Cost() != s.HeldCost() {
			t.Errorf("order %v: %d runs in %d B of log, %d B charged (%d on the budget), want 9 in %d within a %d B size class",
				order, len(runs), logUsed(s), s.HeldCost(), b.Cost(), exact, class)
		}
		for _, h := range runs {
			if len(h.body) != 36 || h.end-h.at != 40 {
				t.Fatalf("order %v: a run of %d B holds a %d B form", order, h.end-h.at, len(h.body))
			}
		}
	}
}

// HeldBytes is Cursor.HeldBytes under the stream's own config.
func (s *Stream) HeldBytes() int { return s.Cursor.HeldBytes(&s.cfg) }

// HeldCost is Cursor.HeldCost under the stream's own config.
func (s *Stream) HeldCost() int { return s.Cursor.HeldCost(&s.cfg) }

// logOf is s's held log, or nil.
func logOf(s *Stream) *logHead { return s.cfg.log(&s.Cursor) }

// logUsed is the bytes of s's log its header and held runs take.
func logUsed(s *Stream) int {
	h := logOf(s)
	if h == nil {
		return 0
	}
	return headSize + int(h.end-h.head)
}

// heldRuns decodes every run s's log holds, in sequence order.
func heldRuns(s *Stream) []run {
	var runs []run
	for f := (run{}); logOf(s).next(&f); {
		runs = append(runs, f)
	}
	return runs
}

// toyFold holds a piece as a prefix — up to and including its first '|',
// at most keep bytes — and one byte standing for the rest, its length mod
// 256, written to a scratch buffer it reuses, as a scanner's fold keeps a
// prefix of its own length and a summary. It holds whole a piece its form
// would not shrink.
func toyFold(keep int) *Fold {
	var scratch []byte
	return &Fold{
		Prefix: func(form []byte) int { return len(form) - 1 },
		Encode: func(piece []byte) []byte {
			p := min(keep, len(piece))
			if i := bytes.IndexByte(piece[:p], '|'); i >= 0 {
				p = i + 1
			}
			if p+1 >= len(piece) {
				return nil
			}
			scratch = append(append(scratch[:0], piece[:p]...), byte(len(piece)))
			return scratch
		},
	}
}

// liveHeap is the heap in use after the collector has settled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPermutationEquivalence is the package-level property: any segment
// permutation with exact-copy retransmits reassembles to the original
// stream under either policy.
func TestPermutationEquivalence(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		pol := Policy(trial % 2)
		streamLen := 1 + src.Intn(600)
		orig := make([]byte, streamLen)
		for i := range orig {
			orig[i] = src.Byte()
		}
		// Random segmentation.
		type segment struct {
			seq  uint32
			data []byte
			last bool
		}
		isn := uint32(src.Uint64()) // any ISN, wrap included
		var segs []segment
		for at := 0; at < streamLen; {
			n := 1 + src.Intn(64)
			if at+n > streamLen {
				n = streamLen - at
			}
			segs = append(segs, segment{seq: isn + 1 + uint32(at), data: orig[at : at+n], last: at+n == streamLen})
			at += n
		}
		// Emission order: shuffled, with duplicates sprinkled in.
		order := src.Perm(len(segs))
		var emit []segment
		for _, i := range order {
			emit = append(emit, segs[i])
			if src.Bool(0.3) {
				emit = append(emit, segs[src.Intn(len(segs))])
			}
		}
		s := NewStream(Config{Policy: pol})
		var got bytes.Buffer
		deliver := func(chunk []byte, _ int) { got.Write(chunk) }
		s.Segment(isn, nil, SYN, 0, deliver)
		var finished bool
		for i, e := range emit {
			f := Flags(0)
			if e.last {
				f = FIN
			}
			r := s.Segment(e.seq, e.data, f, uint64(i), deliver)
			if r.Event == EventFinished {
				finished = true
			}
		}
		if !bytes.Equal(got.Bytes(), orig) {
			t.Fatalf("trial %d (%v, %d segs): reassembled %d bytes != original %d",
				trial, pol, len(segs), got.Len(), streamLen)
		}
		if !finished {
			t.Fatalf("trial %d: never finished", trial)
		}
		if s.HeldBytes() != 0 {
			t.Fatalf("trial %d: %d bytes still held", trial, s.HeldBytes())
		}
	}
}
