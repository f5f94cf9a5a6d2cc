package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ruleset"
)

// TestVerifyProgramProperty: at the paper's ruleset sizes the kernel's own
// step agrees with the full DFA on every (state, byte), whatever share of
// the states the fast tier holds. The random machines of
// FuzzBuildEquivalence, TestSparseBuildMatchesDenseOracle and
// FuzzBackendEquivalence are held to the same proof where they are built.
// Under -race only the 634-string set is proved, at all four budgets.
func TestVerifyProgramProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		if raceEnabled && n != 634 {
			continue
		}
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		trie := mustTrie(t, set)
		for _, dense := range []int{-1, 0, 16, 1 << 30} {
			t.Run(fmt.Sprintf("%d/dense=%d", n, dense), func(t *testing.T) {
				m := mustBuild(t, set, Options{denseStates: dense})
				if err := m.verifyProgram(trie); err != nil {
					t.Fatal(err)
				}
			})
		}
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
		m, trie := mustBuild(t, set, Options{denseStates: dense}), mustTrie(t, set)
		if err := m.Verify(trie, [][]byte{payload}); err != nil {
			t.Fatalf("dense=%d: %v", dense, err)
		}
		rng := rand.New(rand.NewSource(int64(dense)))
		for trial := 0; trial < 20; trial++ {
			_, ops := lockstepInput(rng) // the edge bytes, not random ones
			driveLockstep(t, m, trie, payload, ops)
		}
		if dense < 0 {
			continue
		}
		a := m.LookupRow('a').D1
		ba := trie.Move(m.LookupRow('b').D1, 'a')
		for _, tc := range []struct {
			state int32
			bits  [4]uint64
		}{
			{a, [4]uint64{1 | 1<<63, 1 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
			{ba, [4]uint64{1 | 1<<63, 3 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
		} {
			ref := m.rows[tc.state]
			if ref < rowDense {
				if tc.state == a || dense == states {
					t.Fatalf("dense=%d: state %d is not read through a fast row", dense, tc.state)
				}
				continue
			}
			if got := m.fast[ref-rowDense].bits; got != tc.bits {
				t.Fatalf("dense=%d: state %d's bitmap is %#x, want %#x", dense, tc.state, got, tc.bits)
			}
		}
	}
}
