package reassembly

// Stream-level tests: every permutation property here is re-proven end to
// end through the Gateway in the root package; these pin the mechanism in
// isolation — overlap policies, cap eviction ordering, gap skip, FIN
// completion, and sequence wraparound.

import (
	"bytes"
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
	if _, _, r := feed(t, s, at(len(stream)), "", FIN, 1); r.Event != EventNone || s.ooo == nil {
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
	if out != stream[10:] || r.Event != EventFinished || s.ooo != nil {
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
		if r := tc.last(s); r.Event != EventFinished || s.ooo != nil {
			t.Fatalf("in-order FIN %s: %+v, out-of-order state %v", tc.name, r, s.ooo)
		}
	}

	b := NewBudget(1 << 20)
	s := NewStream(Config{Budget: b})
	feed(t, s, 100, "", SYN, 0)
	// A pure FIN after a 10-byte gap.
	if out, _, r := feed(t, s, 111, "", FIN, 1); out != "" || r.Event != EventNone || s.ooo == nil || s.HeldBytes() != 0 {
		t.Fatalf("pure FIN ahead: %q %+v, out-of-order state %v", out, r, s.ooo)
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
	if out != "456789" || r.Event != EventFinished || s.ooo != nil || b.Used() != 0 {
		t.Fatalf("gap filled: %q %+v, out-of-order state %v, budget %d", out, r, s.ooo, b.Used())
	}

	// Release after a FIN ahead leaves nothing: no held bytes, no FIN, no
	// budget charge.
	s = NewStream(Config{Budget: b})
	feed(t, s, 100, "", SYN, 0)
	feed(t, s, 111, "", FIN, 1)
	feed(t, s, 105, "held", 0, 2)
	if n := s.Release(); n != 4 || s.ooo != nil || s.finSeen || s.HeldBytes() != 0 || b.Used() != 0 {
		t.Fatalf("Release returned %d and left state %v (FIN %v), budget %d", n, s.ooo, s.finSeen, b.Used())
	}
}

// TestOutOfOrderArrivalAllocations: overlap resolution looks only at the held
// segments an arrival overlaps, so under either policy an arrival disjoint
// from everything held allocates its held copy and nothing else — the held
// list's growth amortises below one allocation — however many segments are
// held.
func TestOutOfOrderArrivalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	deliver := func([]byte, int) {}
	held, arrival := []byte("0123456789"), []byte("abcde")
	for _, pol := range []Policy{FirstWins, LastWins} {
		for _, k := range []int{0, 1, 4, 8} {
			s := NewStream(Config{Policy: pol})
			s.Segment(0, nil, SYN, 0, deliver)
			for j := 1; j <= k; j++ { // [1000j, 1000j+10)
				s.Segment(uint32(1+1000*j), held, 0, 0, deliver)
			}
			// Arrivals land at 15..19 mod 20, between and around the held runs.
			off := 15
			allocs := testing.AllocsPerRun(100, func() {
				s.Segment(uint32(1+off), arrival, 0, 0, deliver)
				off += 20
			})
			if want := 10*k + 5*101; s.HeldBytes() != want {
				t.Fatalf("%v, %d held: %d bytes held, want %d", pol, k, s.HeldBytes(), want)
			}
			if allocs > 1 {
				t.Errorf("%v: a disjoint arrival with %d segments held allocated %.0f times, want 1", pol, k, allocs)
			}
		}
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
// everything held is dropped rather than admitted.
func TestFlowCapEvictionOrder(t *testing.T) {
	s := NewStream(Config{MaxFlowBytes: 8})
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
	b := NewBudget(6)
	s1 := NewStream(Config{Budget: b})
	s2 := NewStream(Config{Budget: b})
	feed(t, s1, 0, "", SYN, 0)
	feed(t, s2, 0, "", SYN, 0)
	if _, _, r := feed(t, s1, 11, "aaaa", 0, 1); r.Buffered != 4 {
		t.Fatalf("first reserve: %+v", r)
	}
	// 4 of 6 used: s2 can only fail a 4-byte reservation.
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 1); r.Dropped != 4 {
		t.Fatalf("budget not enforced: %+v", r)
	}
	if b.Used() != 4 {
		t.Fatalf("budget used=%d", b.Used())
	}
	// Releasing s1 (eviction mid-gap) frees the budget for s2.
	s1.Release()
	if b.Used() != 0 {
		t.Fatalf("release leaked: used=%d", b.Used())
	}
	if _, _, r := feed(t, s2, 11, "bbbb", 0, 2); r.Buffered != 4 {
		t.Fatalf("post-release reserve: %+v", r)
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
	if out != "abcdf" || r.Event != EventFinished || s.ooo != nil || s.finSeen {
		t.Fatalf("fin completion: %q %+v, out-of-order state %v", out, r, s.ooo)
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
		if s.ooo != nil {
			t.Fatalf("%v: an in-order stream holds out-of-order state", pol)
		}
		s.Segment(seq+5, payload, 0, 1, deliver)
		if s.ooo == nil || s.HeldBytes() != len(payload) {
			t.Fatalf("%v: a held segment left no out-of-order state (held %d)", pol, s.HeldBytes())
		}
		if n := s.Release(); n != len(payload) || s.ooo != nil || s.HeldBytes() != 0 {
			t.Fatalf("%v: Release returned %d and left out-of-order state %v", pol, n, s.ooo)
		}
	}
}

// TestVacatedHeldSlotsAreZeroed: a segment that leaves the held list — drained
// into a filled hole, or evicted to the flow cap — must not stay reachable
// through the list's backing array once the budget has released its bytes.
// The list is compacted in place, so its capacity is kept for the next gap.
func TestVacatedHeldSlotsAreZeroed(t *testing.T) {
	s := NewStream(Config{MaxFlowBytes: 8})
	feed(t, s, 0, "", SYN, 0)
	for _, p := range []struct {
		seq  uint32
		data string
	}{{3, "AA"}, {11, "CC"}, {15, "DD"}, {19, "EE"}} { // [2,4) [10,12) [14,16) [18,20)
		feed(t, s, p.seq, p.data, 0, 1)
	}
	vacated := func(when string, wantLen int) {
		t.Helper()
		held := s.ooo.held
		if len(held) != wantLen {
			t.Fatalf("%s: %d segments held, want %d", when, len(held), wantLen)
		}
		for i, h := range held[len(held):cap(held)] {
			if h.data != nil || h.seq != 0 {
				t.Errorf("%s: vacated slot %d still holds %q at seq %d", when, len(held)+i, h.data, h.seq)
			}
		}
	}
	full := cap(s.ooo.held)
	// [5,9) needs 4 bytes of the 8-byte cap: the two furthest runs go.
	if _, _, r := feed(t, s, 6, "BBBB", 0, 2); r.Dropped != 4 || r.Buffered != 4 {
		t.Fatalf("cap eviction: %+v", r)
	}
	vacated("after a cap eviction", 3)
	// [0,2) fills the first hole: [2,4) drains, [5,9) and [10,12) stay held.
	if out, _, _ := feed(t, s, 1, "xx", 0, 3); out != "xxAA" {
		t.Fatalf("hole fill delivered %q", out)
	}
	vacated("after a hole fills", 2)
	if cap(s.ooo.held) != full {
		t.Fatalf("held capacity %d after a drain, want %d: not compacted in place", cap(s.ooo.held), full)
	}
	if s.HeldBytes() != 6 {
		t.Fatalf("held %d bytes, want 6", s.HeldBytes())
	}
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
