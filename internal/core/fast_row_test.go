package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ruleset"
)

// TestVerifyProgramProperty: at the paper's ruleset sizes the kernel's own
// step agrees with the full DFA on every (state, byte), whatever share of
// the states the fast tier holds. The random machines of
// FuzzBuildEquivalence, TestSparseBuildMatchesDenseOracle and
// FuzzBakedEquivalence are held to the same proof where they are built.
func TestVerifyProgramProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		trie := mustTrie(t, set)
		for _, dense := range []int{-1, 0, 16, 1 << 30} {
			t.Run(fmt.Sprintf("%d/dense=%d", n, dense), func(t *testing.T) {
				m := mustBuild(t, set, Options{DenseStates: dense})
				if err := m.VerifyProgram(trie); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestVerifyProgramDetectsCorruption: the proof must be able to fail. The
// ruleset has more states than the fast tier holds, so both kinds of row
// are there to corrupt. The oracle is a trie of the ruleset the machine
// never saw, and one of another ruleset is refused.
func TestVerifyProgramDetectsCorruption(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	trie := mustTrie(t, set)
	// wideRow finds a fast row holding two different overrides in one
	// bitmap word, and that word.
	wideRow := func(p *Program) (*fastRow, int) {
		for i := range p.fast {
			r := &p.fast[i]
			for w, word := range r.bits {
				if bits.OnesCount64(word) >= 2 && p.over[r.rank[w]] != p.over[r.rank[w]+1] {
					return r, w
				}
			}
		}
		t.Fatal("no fast row overrides two bytes of one word differently")
		return nil, 0
	}
	cases := map[string]func(p *Program){
		"cleared bit": func(p *Program) {
			r, w := wideRow(p)
			r.bits[w] &= r.bits[w] - 1
		},
		"spurious bit": func(p *Program) {
			r, w := wideRow(p)
			r.bits[w] |= 1 << bits.TrailingZeros64(^r.bits[w])
		},
		"swapped overrides": func(p *Program) {
			r, w := wideRow(p)
			at := r.rank[w]
			p.over[at], p.over[at+1] = p.over[at+1], p.over[at]
		},
		"bumped rank": func(p *Program) {
			r, w := wideRow(p)
			r.rank[w]++
		},
		"default as override": func(p *Program) {
			r, w := wideRow(p)
			p.over[r.rank[w]] = p.lut.d1[w<<6|bits.TrailingZeros64(r.bits[w])]
		},
		"shared fast row": func(p *Program) {
			for s, ref := range p.rows {
				if ref > rowDense {
					p.rows[s]--
					return
				}
			}
		},
		"descriptor count": func(p *Program) {
			for s, ref := range p.rows {
				if ref < rowDense && ref>>rowCountShift != 0 {
					p.rows[s] -= 1 << rowCountShift
					return
				}
			}
			t.Fatal("no compressed state stores a pointer")
		},
	}
	for name, corrupt := range cases {
		m := mustBuild(t, set, Options{})
		if err := m.VerifyProgram(trie); err != nil {
			t.Fatal(err)
		}
		corrupt(m.prog)
		if err := m.VerifyProgram(trie); err == nil {
			t.Errorf("%s: corrupted kernel tables accepted", name)
		}
	}
	if err := mustBuild(t, set, Options{}).VerifyProgram(mustTrie(t, toySet())); err == nil {
		t.Error("a kernel was proved against another ruleset's trie")
	}
}

// TestFastRowWordEdges is the hand-made case for the bitmap arithmetic: the
// depth-1 state 'a' overrides the first and last byte of each of the four
// bitmap words — rank 0 and the last rank of the row, a set bit 0 (nothing
// below it to count) and a set bit 63 (everything below it) in every word.
// The depth-2 state "ba" falls back to it and, promoted, inherits the eight,
// replaces the one at 0x40 with its own deeper target and adds 0x41 between
// two inherited ones, which shifts the ranks behind it. The run of d's makes
// the machine larger than the middle budget, so that one is a real choice.
func TestFastRowWordEdges(t *testing.T) {
	edges := []byte{0x00, 0x3F, 0x40, 0x7F, 0x80, 0xBF, 0xC0, 0xFF}
	var patterns [][]byte
	for _, x := range edges {
		patterns = append(patterns, []byte{'a', x})
	}
	patterns = append(patterns, []byte{'b', 'a', 0x40, 'c'}, []byte{'b', 'a', 0x41}, []byte("dddddddddddd"))
	set := setOf(patterns, false)

	// Every edge byte and both its neighbours after 'a' and after "ba".
	var payload []byte
	for _, prefix := range []string{"a", "ba"} {
		for _, x := range edges {
			for _, c := range []byte{x - 1, x, x + 1} {
				payload = append(append(payload, prefix...), c, 'c')
			}
		}
	}

	states := 1 + set.CharCount()
	for _, dense := range []int{-1, 16, states} {
		m, trie := mustBuild(t, set, Options{DenseStates: dense}), mustTrie(t, set)
		if err := m.VerifyProgram(trie); err != nil {
			t.Fatalf("dense=%d: %v", dense, err)
		}
		if err := m.VerifyScan(trie, [][]byte{payload}); err != nil {
			t.Fatalf("dense=%d: %v", dense, err)
		}
		rng := rand.New(rand.NewSource(int64(dense)))
		for trial := 0; trial < 20; trial++ {
			driveLockstep(t, m, trie, rng)
		}
		if dense < 0 {
			continue
		}
		p := m.prog
		a := m.LookupRow('a').D1
		ba := trie.Move(m.LookupRow('b').D1, 'a')
		for _, tc := range []struct {
			state int32
			bits  [4]uint64
		}{
			{a, [4]uint64{1 | 1<<63, 1 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
			{ba, [4]uint64{1 | 1<<63, 3 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
		} {
			ref := p.rows[tc.state]
			if ref < rowDense {
				if tc.state == a || dense == states {
					t.Fatalf("dense=%d: state %d is not read through a fast row", dense, tc.state)
				}
				continue
			}
			if got := p.fast[ref-rowDense].bits; got != tc.bits {
				t.Fatalf("dense=%d: state %d's bitmap is %#x, want %#x", dense, tc.state, got, tc.bits)
			}
		}
	}
}
