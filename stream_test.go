package dpi

import (
	"io"
	"slices"
	"sync"
	"testing"
)

func TestStreamFindsMatchAcrossChunkBoundary(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("split-me", []byte("abcdef"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := m.NewStream(func(mt Match) { got = append(got, mt) })
	var w io.Writer = s // compile-time io.Writer check
	w.Write([]byte("xxabc"))
	w.Write([]byte("def"))
	if len(got) != 1 {
		t.Fatalf("matches = %v", got)
	}
	if got[0].Start != 2 || got[0].End != 8 {
		t.Fatalf("offsets = %+v, want [2,8)", got[0])
	}
	if s.Consumed() != 8 {
		t.Fatalf("consumed = %d", s.Consumed())
	}
}

func TestStreamByteAtATime(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("p", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := m.NewStream(func(mt Match) { got = append(got, mt) })
	payload := []byte("hay needle hay needle")
	for _, b := range payload {
		s.Write([]byte{b})
	}
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	ref := m.FindAll(payload)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("streamed match %d = %+v, batch %+v", i, got[i], ref[i])
		}
	}
}

func TestStreamResetSplitsPackets(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("p", []byte("xyz"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := m.NewStream(func(mt Match) { got = append(got, mt) })
	s.Write([]byte("xy"))
	s.Reset() // packet boundary: the partial "xy" must not combine with "z"
	s.Write([]byte("z"))
	if len(got) != 0 {
		t.Fatalf("cross-packet match: %v", got)
	}
	if s.Consumed() != 1 {
		t.Fatalf("consumed = %d after reset", s.Consumed())
	}
	s.Reset()
	s.Write([]byte("xyz"))
	if len(got) != 1 || got[0].Start != 0 {
		t.Fatalf("fresh packet matches = %v", got)
	}
}

// TestStreamSkipGapAndReset: a gap invalidates the registers but keeps
// offsets absolute in the true byte stream, and a Reset after it restarts
// them at zero.
func TestStreamSkipGapAndReset(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("p", []byte("xyz"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := m.NewStream(func(mt Match) { got = append(got, mt) })
	s.Write([]byte("xy"))
	s.SkipGap(10) // unseen bytes: the partial "xy" must not combine with "z"
	s.Write([]byte("z"))
	if len(got) != 0 {
		t.Fatalf("match spans a gap: %v", got)
	}
	s.SkipGap(0) // no bytes skipped: no register may move
	s.Write([]byte("xyz"))
	if len(got) != 1 || got[0].Start != 13 || got[0].End != 16 || s.Consumed() != 16 {
		t.Fatalf("after a 10-byte gap: matches %v, consumed %d; want one at [13,16)", got, s.Consumed())
	}
	s.Reset()
	s.Write([]byte("xyz"))
	if len(got) != 2 || got[1].Start != 0 || s.Consumed() != 3 {
		t.Fatalf("after Reset: matches %v, consumed %d; want a second at [0,3)", got, s.Consumed())
	}
}

// TestStreamReentrantEmit: an emit callback may write to its own stream.
// The inner Write's matches are delivered where it was called, and the
// outer Write then finishes replaying its own — the match buffer the outer
// replay iterates must not be the one the inner Write recycles.
func TestStreamReentrantEmit(t *testing.T) {
	rules := NewRuleset()
	ab := rules.MustAdd("ab", []byte("ab"))
	cd := rules.MustAdd("cd", []byte("cd"))
	ef := rules.MustAdd("ef", []byte("ef"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	var s *Stream
	reenter := true
	s = m.NewStream(func(mt Match) {
		got = append(got, mt)
		if reenter {
			reenter = false
			s.Write([]byte("efab"))
		}
	})
	s.Write([]byte("abcd"))
	want := []Match{
		{PatternID: ab, Start: 0, End: 2, PacketID: -1},
		{PatternID: ef, Start: 4, End: 6, PacketID: -1},
		{PatternID: ab, Start: 6, End: 8, PacketID: -1},
		{PatternID: cd, Start: 2, End: 4, PacketID: -1},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reentrant emit delivered %+v, want %+v", got, want)
	}
	// The buffers swapped hands; the stream must still scan correctly.
	got = got[:0]
	s.Write([]byte("cdef"))
	if len(got) != 2 || got[0].PatternID != cd || got[1].PatternID != ef {
		t.Fatalf("after reentrant emit: %+v", got)
	}
}

// chunkFuzzMatcher compiles FuzzStreamChunkEquivalence's matcher once: a ruleset
// mixing pathological hand-picked patterns (overlapping suffixes, shared
// prefixes, binary bytes, length-1) with a generated Snort-like tail.
var chunkFuzzMatcher struct {
	once sync.Once
	m    *Matcher
	err  error
}

func getChunkFuzzMatcher(t testing.TB) *Matcher {
	chunkFuzzMatcher.once.Do(func() {
		rules, err := GenerateSnortLike(120, 2010)
		if err != nil {
			chunkFuzzMatcher.err = err
			return
		}
		for _, p := range [][]byte{
			[]byte("he"), []byte("she"), []byte("his"), []byte("hers"),
			[]byte("a"), []byte("ab"), []byte("abc"), []byte("bc"),
			{0x00}, {0x00, 0x01}, {0xff, 0x00, 0xff},
		} {
			// Generated contents can collide with the handcrafted ones;
			// duplicates are simply skipped.
			rules.Add("hand", p)
		}
		chunkFuzzMatcher.m, chunkFuzzMatcher.err = Compile(rules, Config{})
	})
	if chunkFuzzMatcher.err != nil {
		t.Fatal(chunkFuzzMatcher.err)
	}
	return chunkFuzzMatcher.m
}

// FuzzStreamChunkEquivalence is the FindAll-equivalence contract under
// fuzz: any payload delivered through a Stream in arbitrary chunks (empty
// chunks and byte-at-a-time included) must emit exactly the FindAll match
// sequence of the concatenation — same matches, same canonical order.
func FuzzStreamChunkEquivalence(f *testing.F) {
	f.Add([]byte("she sells hers and his seashells"), []byte{3, 1, 7})
	f.Add([]byte("abcabcabc"), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x01, 0x00}, []byte{2, 0, 3})
	f.Add([]byte("no matches at all here"), []byte{200})
	f.Add([]byte{}, []byte{5})
	f.Fuzz(func(t *testing.T, payload []byte, cuts []byte) {
		m := getChunkFuzzMatcher(t)
		want := m.FindAll(payload)
		var got []Match
		s := m.NewStream(func(mt Match) { got = append(got, mt) })
		// cuts drives the chunking: cut value n means "write n bytes
		// next" (0 = an empty write); leftover bytes go in one final
		// write. This lets the fuzzer place boundaries anywhere,
		// including straddling every match.
		off := 0
		for _, c := range cuts {
			n := int(c)
			if n > len(payload)-off {
				n = len(payload) - off
			}
			s.Write(payload[off : off+n])
			off += n
		}
		s.Write(payload[off:])
		if s.Consumed() != len(payload) {
			t.Fatalf("consumed %d of %d", s.Consumed(), len(payload))
		}
		if len(got) != len(want) {
			t.Fatalf("stream emitted %d matches, FindAll %d\ncuts %v\ngot  %+v\nwant %+v",
				len(got), len(want), cuts, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("match %d = %+v, FindAll %+v (cuts %v)", i, got[i], want[i], cuts)
			}
		}
	})
}
