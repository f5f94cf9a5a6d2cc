package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestOutputTableProperty: at the paper's ruleset sizes the machine's
// flattened output table equals the output chains of a trie built from the
// ruleset a second time, state for state, and the states the bitset leaves
// clear have no slot in it — verifyOutputs walks every state and counts the
// slots. Each distinct list is stored once, so there is one list per
// pattern: the one its own state heads. The random machines of
// FuzzBuildEquivalence, TestSparseBuildMatchesDenseOracle and
// FuzzBackendEquivalence are held to the same proof where they are built, and
// the dense oracle lays out equal lists by content, not by chain.
func TestOutputTableProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
			m := mustBuild(t, set, Options{})
			if err := m.verifyOutputs(mustTrie(t, set)); err != nil {
				t.Fatal(err)
			}
			lists := 0
			for _, id := range m.out.ids {
				if id&LastMatch != 0 {
					lists++
				}
			}
			if lists != set.Len() {
				t.Fatalf("%d lists for %d patterns", lists, set.Len())
			}
		})
	}
}

// TestReferenceBackendEmitsFromOutputTable: a reference-pinned machine has,
// since the trie left the Machine, no output chains to walk — it emits from
// the same flattened table the baked loop reads. Verify proves that table
// against an independently built trie and every loop's matches against the
// trie's, and the interpreter reading it is held to that trie's matches
// segment by segment.
func TestReferenceBackendEmitsFromOutputTable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sets := []*ruleset.Set{toySet(), ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})}
	for trial := 0; trial < 10; trial++ {
		sets = append(sets, randBakedSet(rng))
	}
	for _, set := range sets {
		m, trie := mustBuild(t, set, Options{Backend: BackendReference}), mustTrie(t, set)
		if got := m.DefaultBackend(); got != BackendReference {
			t.Fatalf("a reference-pinned build runs %q", got)
		}
		payload, ops := lockstepInput(rng)
		driveLockstep(t, m, trie, payload, ops)
		if err := m.Verify(trie, [][]byte{randBakedPayload(rng, 2048)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutputTableNestedSuffixes is the hand-made case: every pattern a
// suffix of the one before, so the deepest state's chain visits four states,
// numbered downwards (setOf's sparse IDs), so the order the chain is walked
// in is the reverse of the order the machine must emit in.
func TestOutputTableNestedSuffixes(t *testing.T) {
	set := setOf([][]byte{[]byte("abcd"), []byte("bcd"), []byte("cd"), []byte("d")}, true)
	abcd, bcd, cd, d := int32(set.Patterns[0].ID), int32(set.Patterns[1].ID), int32(set.Patterns[2].ID), int32(set.Patterns[3].ID)
	trie := mustTrie(t, set)

	for _, opts := range []Options{{}, {denseStates: -1}, {denseStates: 2}, {Backend: BackendReference}} {
		m := mustBuild(t, set, opts)
		if err := m.Verify(trie, nil); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		// The trie walks own output first, then each fail-ancestor's, so the
		// longest pattern — the highest ID — comes first; the machine's lists
		// are sorted, so it emits in (End, PatternID) order — on every
		// backend, at every end offset.
		payload := []byte("xabcdcd")
		chain := []ac.Match{
			{PatternID: abcd, End: 5}, {PatternID: bcd, End: 5}, {PatternID: cd, End: 5}, {PatternID: d, End: 5},
			{PatternID: cd, End: 7}, {PatternID: d, End: 7},
		}
		if got := trie.FindAll(payload); !slices.Equal(got, chain) {
			t.Fatalf("the trie itself finds %v, want %v", got, chain)
		}
		want := slices.Clone(chain)
		ac.SortMatches(want)
		if slices.Equal(want, chain) {
			t.Fatal("the chain is already in canonical order: the case proves nothing")
		}
		for _, k := range m.kinds() {
			var r Regs
			r.Reset()
			if got := m.scanAs(k, &r, payload, nil); !slices.Equal(got, want) {
				t.Fatalf("%+v: backend %s emits %v, want %v", opts, scanBackends[k], got, want)
			}
		}
	}
}
