package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ruleset"
)

// TestFoldResumeEqualsScan: at the paper's ruleset sizes, on every
// registered backend, a piece folded on its own and resumed from a stream's
// registers leaves exactly the registers, and appends exactly the matches,
// that scanning the piece on from those registers does. The pieces are
// random noise of D and D+1 bytes, ASCII noise of D and 4·D, the longest
// pattern alone and from its middle on, and the longest pattern at
// every offset from the piece's start to D and past it, so it ends inside
// the prefix, straddles the fold point or lies wholly after it; the streams
// before them end in the start state, on random bytes, or part-way through
// that same pattern, so one straddles the piece's start too. Then each
// suffix of the longest pattern begins a piece after a stream that ends in
// the bytes before it: the piece opens in the middle of a pattern, where
// its first windows are substrings but no prefix of one — once followed by
// ASCII noise, and once by a byte that makes a window no pattern contains
// with the pattern's last two, so the prefix ends on the pattern's last
// byte and only its rescan finds the match. Depth is the
// longest pattern's length, Fold keeps a form only when it is shorter than
// its piece, appending it to a reused buffer without allocating, and holds
// a piece of 2¹⁹ bytes whole.
func TestFoldResumeEqualsScan(t *testing.T) {
	for _, n := range []int{634, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		m := mustBuild(t, set, Options{})
		longest := longestPattern(set)
		d := m.Depth()
		if d != len(longest) {
			t.Fatalf("%d strings: Depth is %d, the longest pattern has %d bytes", n, d, len(longest))
		}
		rng := rand.New(rand.NewSource(int64(n)))
		noise := func(k int) []byte {
			b := make([]byte, k)
			rng.Read(b)
			return b
		}
		ascii := func(k int) []byte {
			b := make([]byte, k)
			for i := range b {
				b[i] = byte(' ' + rng.Intn(95))
			}
			return b
		}
		befores := [][]byte{nil, noise(3 * d), longest[:d-1], longest[:d/2]}
		pieces := [][]byte{noise(d), noise(d + 1), ascii(d), ascii(4 * d), longest, append(slices.Clone(longest[d/2:]), noise(2*d)...)}
		for at := 0; at <= d; at++ { // the longest pattern at [at, at+d): ends at D when at == 0
			pieces = append(pieces, slices.Concat(noise(at), longest, noise(d)))
		}
		type opened struct{ before, piece []byte }
		var middles []opened
		absent := -1 // a byte ending a window no pattern contains after the longest pattern's last two
		for c := 255; c >= 0; c-- {
			if m.windows.absent(longest[d-2], longest[d-1], byte(c)) {
				absent = c
			}
		}
		if absent < 0 {
			t.Fatalf("%d strings: every window after the longest pattern's last two bytes is in the filter", n)
		}
		for i := 1; i < d; i++ {
			middles = append(middles, opened{longest[:i], slices.Concat(longest[i:], ascii(d))},
				opened{longest[:i], slices.Concat(longest[i:], []byte{byte(absent)}, ascii(d))})
		}
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%d/%s", n, name), func(t *testing.T) {
				k := kindOf(t, m, name)
				resumes := func(p []byte, befores ...[]byte) bool {
					form, _ := m.foldAs(k, nil, p, nil, math.MaxInt)
					if short, _ := m.foldAs(k, nil, p, nil, len(p)); (short != nil) != (form != nil && len(form) < len(p)) {
						t.Fatalf("a %d-byte piece folds to %d bytes, or to %d where its form is kept only shorter", len(p), len(form), len(short))
					}
					if form == nil || len(form) == len(p) {
						return false // it would read as the piece itself; Fold never keeps one
					}
					for j, before := range befores {
						var from Regs
						from.Reset()
						m.scanAs(k, &from, before, nil)
						want, got := from, from
						wantM := m.scanAs(k, &want, p, nil)
						gotM := m.resumeAs(k, &got, form, len(p), nil)
						if got != want {
							t.Fatalf("%d-byte piece after stream %d: resumed to %+v, scanned to %+v", len(p), j, got.registers(), want.registers())
						}
						if !slices.Equal(gotM, wantM) {
							t.Fatalf("%d-byte piece after stream %d: resumed with matches %v, scanned with %v", len(p), j, gotM, wantM)
						}
					}
					return true
				}
				folded := 0
				for _, p := range pieces {
					if resumes(p, befores...) {
						folded++
					}
				}
				for _, o := range middles {
					if resumes(o.piece, o.before) {
						folded++
					}
				}
				// The longest pattern alone has no byte past its prefix, and
				// a form may come out exactly as long as its piece.
				if total := len(pieces) + len(middles); folded < total-2 {
					t.Fatalf("only %d of %d pieces proved", folded, total)
				}
				if form, _ := m.foldAs(k, nil, noise(1<<foldEndBits), nil, math.MaxInt); form != nil {
					t.Fatalf("a piece of 2^19 bytes folds to %d bytes: its ends do not fit a match word", len(form))
				}
			})
		}

		sparse := slices.Concat(longest, noise(4*d))
		form, scratch := m.Fold(nil, sparse, nil)
		if form == nil || len(form) >= len(sparse) || FoldPrefix(form) != d {
			t.Fatalf("%d strings: a %d-byte piece opening with the longest pattern folds to %d bytes", n, len(sparse), len(form))
		}
		if form, _ := m.Fold(nil, longest, scratch); form != nil {
			t.Fatalf("%d strings: the longest pattern alone folds", n)
		}
		if form, _ := m.Fold(nil, slices.Concat(longest, []byte{0}), scratch); form != nil {
			t.Fatalf("%d strings: a D+1-byte piece opening with the longest pattern folds to %d bytes", n, len(form))
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { form, scratch = m.Fold(form[:0], sparse, scratch) }); allocs != 0 {
				t.Errorf("%d strings: a fold into a reused buffer allocated %.0f times", n, allocs)
			}
		}
	}
}

// longestPattern is set's longest pattern, the first of them on a tie.
func longestPattern(set *ruleset.Set) []byte {
	var longest []byte
	for _, p := range set.Patterns {
		if len(p.Data) > len(longest) {
			longest = p.Data
		}
	}
	return longest
}

// TestFoldedFormFootprint: the fold keeps little of what a rescan cannot
// change. At 634 strings 1 000 seeded 512 B random pieces all fold, to a
// mean prefix of at most 4 B (3.42 measured); one that opens with the longest pattern keeps
// all D bytes; and the window filter takes at most 1 KiB, at most 16 KiB at
// 6 275 strings.
func TestFoldedFormFootprint(t *testing.T) {
	for _, tc := range []struct{ strings, filter int }{{634, 1 << 10}, {6275, 16 << 10}} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
		m := mustBuild(t, set, Options{})
		if size := 8 * len(m.windows.bits); size == 0 || size > tc.filter {
			t.Errorf("%d strings: the window filter takes %d B, ceiling %d B", tc.strings, size, tc.filter)
		}
		if tc.strings != 634 {
			continue
		}
		rng := rand.New(rand.NewSource(2010))
		piece, prefixes := make([]byte, 512), 0
		for i := range 1000 {
			rng.Read(piece)
			form, _ := m.Fold(nil, piece, nil)
			if form == nil {
				t.Fatalf("random piece %d was held whole", i)
			}
			prefixes += FoldPrefix(form)
		}
		mean := float64(prefixes) / 1000
		t.Logf("%d strings: a %d B window filter, random 512 B pieces keep a mean prefix of %.2f B", tc.strings, 8*len(m.windows.bits), mean)
		if mean > 4 {
			t.Errorf("random 512 B pieces keep a mean prefix of %.1f B, ceiling 4 B", mean)
		}
		longest := longestPattern(set)
		form, _ := m.Fold(nil, slices.Concat(longest, piece), nil)
		if form == nil || FoldPrefix(form) != m.Depth() {
			t.Errorf("a piece opening with the longest pattern keeps a %d-byte prefix, want D = %d", FoldPrefix(form), m.Depth())
		}
	}
}

// kindOf is the registry kind a backend name names, failing when the machine
// does not support it.
func kindOf(t *testing.T, m *Machine, name string) backendKind {
	t.Helper()
	for k, spec := range scanBackends {
		if spec.name == name {
			if !spec.available(m) {
				t.Fatalf("backend %s is not available on this machine", name)
			}
			return backendKind(k)
		}
	}
	t.Fatalf("unknown backend %s", name)
	return 0
}

// TestVerifyFoldDetectsAWrongDepth: the fold's premise is proved, not
// assumed: a machine that would fold a byte early fails Verify.
func TestVerifyFoldDetectsAWrongDepth(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 120, Seed: 7})
	m := mustBuild(t, set, Options{})
	trie := mustTrie(t, set)
	if err := m.verifyFold(trie, nil); err != nil {
		t.Fatal(err)
	}
	m.depth--
	if err := m.verifyFold(trie, nil); err == nil {
		t.Fatal("Verify proved a fold one byte short of the longest pattern")
	}
}

// TestVerifyFoldDetectsAMissingFactor: the window filter is proved, not
// assumed. With the bit of a 3-byte window from the middle of the longest
// pattern cleared, a piece that opens one byte into that pattern ends its
// prefix at the window and resumes without the pattern's match; Build's
// proof and Verify's both refuse the filter. With the bit restored, both
// pass.
func TestVerifyFoldDetectsAMissingFactor(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	m := mustBuild(t, set, Options{})
	trie := mustTrie(t, set)
	if m.windows.bits == nil {
		t.Fatal("Build kept no window filter")
	}
	longest := longestPattern(set)
	mid := longest[len(longest)/2:]
	w, bit := m.windows.slot(mid[0], mid[1], mid[2])
	m.windows.bits[w] &^= bit

	piece := slices.Concat(longest[1:], longest[:8])
	var want, got Regs
	want.Reset()
	m.ScanAppend(&want, longest[:1], nil)
	got = want
	wantM := m.ScanAppend(&want, piece, nil)
	form, _ := m.Fold(nil, piece, nil)
	if form == nil || FoldPrefix(form) >= len(longest)/2+3 {
		t.Fatalf("the piece kept a %d-byte prefix past the cleared window", FoldPrefix(form))
	}
	if gotM := m.Resume(&got, form, len(piece), nil); slices.Equal(gotM, wantM) {
		t.Fatal("a fold through a missing window resumed correctly: the negative case is vacuous")
	}
	if err := m.windows.prove(trie); err == nil {
		t.Error("Build's proof kept a window filter missing a pattern's substring")
	}
	if err := m.verifyFold(trie, nil); err == nil {
		t.Error("Verify proved a window filter missing a pattern's substring")
	}

	m.windows.bits[w] |= bit
	if err := m.windows.prove(trie); err != nil {
		t.Error(err)
	}
	if err := m.verifyFold(trie, nil); err != nil {
		t.Error(err)
	}
}
