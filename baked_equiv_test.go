package dpi

import (
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
)

// fuzzRulesFrom derives a small ruleset from a fuzz blob: each pattern is
// a length byte (1-12 bytes) followed by its content, up to 8 patterns,
// duplicates skipped. Returns nil when the blob yields no usable pattern.
func fuzzRulesFrom(blob []byte) *Ruleset {
	rules := NewRuleset()
	for len(blob) > 0 && rules.Len() < 8 {
		l := int(blob[0])%12 + 1
		blob = blob[1:]
		if l > len(blob) {
			l = len(blob)
		}
		if l == 0 {
			break
		}
		rules.Add("", blob[:l]) // duplicate contents just error; ignore
		blob = blob[l:]
	}
	if rules.Len() == 0 {
		return nil
	}
	return rules
}

// forkStream continues s's stream on a copy of its register value and
// returns the copy; the original is then fed scrap (its matches discarded),
// so a copy that shared anything with it would diverge from the oracle. This
// is the "registers are plain data" property the gateway's flat flow record
// and any walker that interleaves flows rely on.
func forkStream(s *Stream, scrap []byte) *Stream {
	forked := &Stream{m: s.m, r: s.r, emit: s.emit}
	s.emit = func(Match) {}
	s.Write(scrap)
	return forked
}

// FuzzBakedEquivalence is the compiled-kernel contract under fuzz: for a
// fuzz-chosen ruleset, payload and operation sequence (chunked writes,
// mid-stream SkipGap, Reset, fork), the baked Program path, the slice-walking
// Machine.Next reference path and the uncompressed Aho-Corasick oracle
// must produce identical match streams — same patterns, same absolute
// offsets, same order. The first op byte also varies the compile shape
// (dense-tier budget) so every tier combination is driven.
func FuzzBakedEquivalence(f *testing.F) {
	f.Add([]byte{2, 'h', 'e', 3, 's', 'h', 'e', 3, 'h', 'i', 's', 4, 'h', 'e', 'r', 's'},
		[]byte("ushers say she sells seashells"), []byte{0x10, 0x43, 0x08, 0x00, 0x22})
	f.Add([]byte{1, 'a', 2, 'a', 'a', 3, 'a', 'a', 'a'},
		[]byte("aaaaaaaaaaaaaaaa"), []byte{0x05, 0x09, 0x11, 0x01, 0x31})
	f.Add([]byte{4, 0x00, 0xff, 0x00, 0xff}, []byte{0x00, 0xff, 0x00, 0xff, 0x00},
		[]byte{0x83, 0x04})
	f.Add([]byte{3, 'a', 'b', 'c'}, []byte("abcabcabc"), []byte{})
	// Forks mid-pattern and right after a gap skip; then with two strings
	// sharing a suffix, mid-way through both.
	f.Add([]byte{3, 'a', 'b', 'c'}, []byte("ababcabcab"), []byte{0x12, 0x04, 0x12, 0x09, 0x04, 0x2a})
	f.Add([]byte{3, 'a', 'b', 'c', 3, 'b', 'c', 'd'}, []byte("abcdab"), []byte{0x56, 0x04, 0x56})
	f.Fuzz(func(t *testing.T, patBlob, payload, ops []byte) {
		rules := fuzzRulesFrom(patBlob)
		if rules == nil {
			t.Skip("no patterns")
		}
		shape := byte(0)
		if len(ops) > 0 {
			shape = ops[0]
		}
		cfg := core.Options{}
		switch shape % 3 {
		case 1:
			cfg.DenseStates = -1 // compressed tier only
		case 2:
			cfg.DenseStates = 6 // tiny dense tier, most states on CSR
		}
		refCfg := cfg
		refCfg.Backend = BackendReference

		baked, err := compile(rules, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !baked.Kernel().Baked {
			t.Fatal("default compile produced no baked kernel")
		}
		// Every structural proof, against a trie rebuilt from the ruleset.
		if err := baked.Verify(nil); err != nil {
			t.Fatal(err)
		}
		ref, err := compile(rules, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Kernel().Baked {
			t.Fatal("BackendReference still reports a baked kernel")
		}
		if err := ref.Verify(nil); err != nil {
			t.Fatal(err)
		}
		trie, err := ac.New(rules.InternalSet())
		if err != nil {
			t.Fatal(err)
		}

		var bOut, rOut []Match
		bf := baked.NewStream(func(m Match) { bOut = append(bOut, m) })
		rf := ref.NewStream(func(m Match) { rOut = append(rOut, m) })

		var seg []byte // contiguous bytes both flows have seen since the last gap
		segStart := 0  // flow position where the segment began
		segMark := 0   // len(bOut) when the segment began
		checkSegment := func() {
			t.Helper()
			// The trie emits same-End matches in output-chain order; Stream
			// guarantees canonical (End, PatternID) order.
			want := trie.FindAll(seg)
			ac.SortMatches(want)
			got := bOut[segMark:]
			if len(got) != len(want) {
				t.Fatalf("segment at %d: baked found %d matches, oracle %d (shape %#x)",
					segStart, len(got), len(want), shape)
			}
			for i, w := range want {
				end := w.End + segStart
				start := end - len(rules.Content(int(w.PatternID)))
				if got[i].PatternID != int(w.PatternID) || got[i].End != end || got[i].Start != start {
					t.Fatalf("segment at %d: match %d = %+v, oracle id=%d [%d,%d)",
						segStart, i, got[i], w.PatternID, start, end)
				}
			}
		}
		checkAgainstRef := func(op string) {
			t.Helper()
			if bf.Consumed() != rf.Consumed() {
				t.Fatalf("%s: baked consumed %d, reference %d", op, bf.Consumed(), rf.Consumed())
			}
			if len(bOut) != len(rOut) {
				t.Fatalf("%s: baked emitted %d matches, reference %d", op, len(bOut), len(rOut))
			}
			for i := range bOut {
				if bOut[i] != rOut[i] {
					t.Fatalf("%s: match %d baked %+v reference %+v", op, i, bOut[i], rOut[i])
				}
			}
		}

		off := 0 // cycling read offset into payload
		for _, op := range ops {
			switch op % 8 {
			case 0: // Reset: flow restarts at position zero
				checkSegment()
				bf.Reset()
				rf.Reset()
				seg, segStart, segMark = seg[:0], 0, len(bOut)
			case 1: // SkipGap: unseen bytes, absolute offsets preserved
				checkSegment()
				n := int(op>>3) + 1
				bf.SkipGap(n)
				rf.SkipGap(n)
				seg, segStart, segMark = seg[:0], bf.Consumed(), len(bOut)
			case 4: // fork: both streams continue on copies of their registers
				bf, rf = forkStream(bf, payload), forkStream(rf, patBlob)
			default: // write a chunk of the payload (cycling, possibly empty)
				n := int(op >> 2)
				if len(payload) == 0 {
					n = 0
				}
				chunk := make([]byte, 0, n)
				for len(chunk) < n {
					take := len(payload) - off
					if take > n-len(chunk) {
						take = n - len(chunk)
					}
					chunk = append(chunk, payload[off:off+take]...)
					off = (off + take) % len(payload)
				}
				seg = append(seg, chunk...)
				bf.Write(chunk)
				rf.Write(chunk)
			}
			checkAgainstRef("op")
		}
		checkSegment()
	})
}
