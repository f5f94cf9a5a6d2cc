package dpi

import (
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
)

// FuzzPrefilterEquivalence is the two-stage pipeline's contract under fuzz:
// for a fuzz-chosen ruleset, payload and operation sequence (chunked
// writes, mid-stream SkipGap, Reset, fork), the prefiltered backend — which skims
// clean spans with a lossy cache-resident automaton and replays suspect
// windows through the exact baked kernel — must produce a match stream
// identical to the slice-walking reference path and to the uncompressed
// Aho-Corasick oracle: same patterns, same absolute offsets, same order.
// The prefilter is allowed false positives (wasted exact work) but never
// false negatives, and this fuzzer is the runtime half of that proof; the
// structural half is core.VerifySuperset, run at every bake.
//
// The first op byte varies the compile shape (dense-tier budget, group
// split) so the rebuild path is driven over every kernel tier combination.
func FuzzPrefilterEquivalence(f *testing.F) {
	f.Add([]byte{2, 'h', 'e', 3, 's', 'h', 'e', 3, 'h', 'i', 's', 4, 'h', 'e', 'r', 's'},
		[]byte("ushers say she sells seashells"), []byte{0x10, 0x43, 0x08, 0x00, 0x22})
	f.Add([]byte{1, 'a', 2, 'a', 'a', 3, 'a', 'a', 'a'},
		[]byte("aaaaaaaaaaaaaaaa"), []byte{0x05, 0x09, 0x11, 0x01, 0x31})
	f.Add([]byte{4, 0x00, 0xff, 0x00, 0xff}, []byte{0x00, 0xff, 0x00, 0xff, 0x00},
		[]byte{0x83, 0x04})
	// A long clean run with one planted pattern: drives skim -> rebuild ->
	// exact -> re-arm across chunk boundaries.
	f.Add([]byte{3, 'a', 'b', 'c'},
		[]byte("................................abc............................"),
		[]byte{0x47, 0x47, 0x09, 0x47})
	// Suspect window straddling a chunk boundary with the tail ring exactly
	// at capacity: 5-byte chunks (pfTailLen) split the planted pattern so
	// the rebuild's window and history bytes all come from the ring.
	f.Add([]byte{5, 'v', 'w', 'x', 'y', 'z'}, []byte("...vwxyz.."),
		[]byte{0x16, 0x16, 0x16})
	// Reset landing mid-suspect-window: the pattern's halves are written
	// around a Reset, so the straddling match must vanish while a later
	// complete occurrence still fires.
	f.Add([]byte{3, 'a', 'b', 'c'}, []byte("ababcabc"),
		[]byte{0x0a, 0x00, 0x1e, 0x47})
	// Forks: mid-skim, inside a suspect window split across chunks (the
	// copy must carry the tail ring), and right after a gap skip.
	f.Add([]byte{5, 'v', 'w', 'x', 'y', 'z'}, []byte("...vwxyz.."),
		[]byte{0x16, 0x04, 0x16, 0x04, 0x16, 0x09, 0x04, 0x2a})
	f.Fuzz(func(t *testing.T, patBlob, payload, ops []byte) {
		rules := fuzzRulesFrom(patBlob)
		if rules == nil {
			t.Skip("no patterns")
		}
		shape := byte(0)
		if len(ops) > 0 {
			shape = ops[0]
		}
		cfg := core.Options{Backend: BackendPrefiltered}
		switch shape % 3 {
		case 1:
			cfg.DenseStates = -1 // compressed tier only
		case 2:
			cfg.DenseStates = 6 // tiny dense tier, most states on CSR
		}
		pre, err := compile(rules, cfg)
		if err != nil {
			// A fuzz-shaped ruleset outside the baked row format cannot pin
			// the prefiltered backend; nothing to compare.
			t.Skip("prefiltered backend unavailable for this shape")
		}
		if pre.Backend() != BackendPrefiltered {
			t.Fatalf("pinned compile resolved backend %q", pre.Backend())
		}
		refCfg := cfg
		refCfg.Backend = BackendReference
		ref, err := compile(rules, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		trie, err := ac.New(rules.InternalSet())
		if err != nil {
			t.Fatal(err)
		}

		var pOut, rOut []Match
		pf := pre.NewStream(func(m Match) { pOut = append(pOut, m) })
		rf := ref.NewStream(func(m Match) { rOut = append(rOut, m) })

		var seg []byte // contiguous bytes both flows have seen since the last gap
		segStart := 0  // flow position where the segment began
		segMark := 0   // len(pOut) when the segment began
		checkSegment := func() {
			t.Helper()
			want := trie.FindAll(seg)
			ac.SortMatches(want)
			got := pOut[segMark:]
			if len(got) != len(want) {
				t.Fatalf("segment at %d: prefiltered found %d matches, oracle %d (shape %#x)",
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
			if pf.Consumed() != rf.Consumed() {
				t.Fatalf("%s: prefiltered consumed %d, reference %d", op, pf.Consumed(), rf.Consumed())
			}
			if len(pOut) != len(rOut) {
				t.Fatalf("%s: prefiltered emitted %d matches, reference %d", op, len(pOut), len(rOut))
			}
			for i := range pOut {
				if pOut[i] != rOut[i] {
					t.Fatalf("%s: match %d prefiltered %+v reference %+v", op, i, pOut[i], rOut[i])
				}
			}
		}

		off := 0 // cycling read offset into payload
		for _, op := range ops {
			switch op % 8 {
			case 0: // Reset: flow restarts at position zero
				checkSegment()
				pf.Reset()
				rf.Reset()
				seg, segStart, segMark = seg[:0], 0, len(pOut)
			case 1: // SkipGap: unseen bytes, absolute offsets preserved
				checkSegment()
				n := int(op>>3) + 1
				pf.SkipGap(n)
				rf.SkipGap(n)
				seg, segStart, segMark = seg[:0], pf.Consumed(), len(pOut)
			case 4: // fork: both streams continue on copies of their registers
				pf, rf = forkStream(pf, payload), forkStream(rf, patBlob)
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
				pf.Write(chunk)
				rf.Write(chunk)
			}
			checkAgainstRef("op")
		}
		checkSegment()
	})
}
