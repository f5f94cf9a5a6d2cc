package dpi

import "testing"

// FuzzPrefilterEquivalence is the two-stage pipeline's contract under fuzz:
// for a fuzz-chosen ruleset, payload and operation sequence (chunked
// writes, mid-stream SkipGap, Reset, fork), the prefiltered backend — which skims
// clean spans with a lossy cache-resident automaton and replays suspect
// windows through the exact baked kernel — must produce a match stream
// identical to the slice-walking reference path and to the uncompressed
// Aho-Corasick oracle: same patterns, same absolute offsets, same order.
// The prefilter is allowed false positives (wasted exact work) but never
// false negatives, and this fuzzer is the runtime half of that proof; the
// structural half is the superset part of core.Machine.Verify, run at every
// bake.
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
	// Suspect window straddling a chunk boundary: 5-byte chunks split the
	// planted pattern, so the first chunk ends mid-window and its call
	// leaves the exact machine two bytes deep.
	f.Add([]byte{5, 'v', 'w', 'x', 'y', 'z'}, []byte("...vwxyz.."),
		[]byte{0x16, 0x16, 0x16})
	// Reset landing mid-suspect-window: the pattern's halves are written
	// around a Reset, so the straddling match must vanish while a later
	// complete occurrence still fires.
	f.Add([]byte{3, 'a', 'b', 'c'}, []byte("ababcabc"),
		[]byte{0x0a, 0x00, 0x1e, 0x47})
	// Forks: between skims, inside a suspect window split across chunks,
	// and right after a gap skip.
	f.Add([]byte{5, 'v', 'w', 'x', 'y', 'z'}, []byte("...vwxyz.."),
		[]byte{0x16, 0x04, 0x16, 0x04, 0x16, 0x09, 0x04, 0x2a})
	// 1-byte chunks: every skim is one byte, rebuilt from the history the
	// call was entered with (testdata/fuzz holds the same shape on the
	// compressed tier and over short overlapping patterns).
	f.Add([]byte{5, 'v', 'w', 'x', 'y', 'z'}, []byte("...vwxyz.."),
		[]byte{0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06})
	f.Fuzz(func(t *testing.T, patBlob, payload, ops []byte) {
		rules := fuzzRulesFrom(patBlob)
		if rules == nil {
			t.Skip("no patterns")
		}
		shape, cfg := fuzzShape(ops, BackendPrefiltered)
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
		streamsAgree(t, "prefiltered", pre, ref, rules, shape, patBlob, payload, ops)
	})
}
