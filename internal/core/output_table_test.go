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
// FuzzBakedEquivalence are held to the same proof where they are built, and
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

// TestReferenceBackendEmitsFromOutputTable: a reference-pinned machine has
// no Program and, since the trie left the Machine, no output chains to walk
// either — it emits from the same flattened table the kernels read. That
// table is proved against an independently built trie, and the interpreter
// reading it is held to that trie's matches segment by segment.
func TestReferenceBackendEmitsFromOutputTable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sets := []*ruleset.Set{toySet(), ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})}
	for trial := 0; trial < 10; trial++ {
		sets = append(sets, randBakedSet(rng))
	}
	for _, set := range sets {
		m, trie := mustBuild(t, set, Options{Backend: BackendReference}), mustTrie(t, set)
		if m.prog != nil || len(m.Backends()) != 1 {
			t.Fatalf("a reference-pinned build offers %v", m.Backends())
		}
		if err := m.verifyOutputs(trie); err != nil {
			t.Fatal(err)
		}
		for s := int32(0); s < int32(m.NumStates()); s++ {
			want := trie.AppendOutputs(s, 7, nil)
			ac.SortMatches(want)
			var got []ac.Match
			if m.out.has(s) {
				got = m.out.appendTo(s, 7, nil)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("state %d outputs %v, the trie's chain sorted %v", s, got, want)
			}
		}
		driveLockstep(t, m, trie, rng)
		if err := m.verifyScan(trie, [][]byte{randBakedPayload(rng, 2048)}); err != nil {
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

	for _, opts := range []Options{{}, {DenseStates: -1}, {DenseStates: 2}, {Backend: BackendReference}} {
		m := mustBuild(t, set, opts)
		if err := m.verifyOutputs(trie); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := m.verifyTransitions(trie); err != nil {
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
		for _, name := range m.Backends() {
			sc, err := m.NewScannerFor(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := sc.ScanAppend(payload, nil); !slices.Equal(got, want) {
				t.Fatalf("%+v: backend %s emits %v, want %v", opts, name, got, want)
			}
		}
	}
}

// TestVerifyOutputsDetectsCorruption: the proof must be able to fail — on
// the one table, whichever backend the machine was built for, and on a
// kernel that reads some other table. The ID-word targets are picked by
// content, not position: multi is the first word without the last flag, so
// it and the next word are one list of two or more IDs (the toy's she
// {0, 1}), and last is the first word that ends a list. Every case must
// change a word, or its rejection would prove nothing.
func TestVerifyOutputsDetectsCorruption(t *testing.T) {
	trie := mustTrie(t, toySet())
	ids := mustBuild(t, toySet(), Options{}).out.ids
	multi := slices.IndexFunc(ids, func(id uint32) bool { return id&LastMatch == 0 })
	last := slices.IndexFunc(ids, func(id uint32) bool { return id&LastMatch != 0 })
	if multi < 0 {
		t.Fatalf("the toy's output table %x holds no list of two IDs", ids)
	}
	cases := map[string]func(m *Machine){
		"swapped IDs":       func(m *Machine) { m.out.ids[multi], m.out.ids[multi+1] = m.out.ids[multi+1], m.out.ids[multi] },
		"clear bit":         func(m *Machine) { m.out.bits[0] &= m.out.bits[0] - 1 },
		"stray bit":         func(m *Machine) { m.out.bits[0] |= 1 },
		"prefix count":      func(m *Machine) { m.out.rank[0]++ },
		"shifted slot":      func(m *Machine) { m.out.off[1]++ },
		"trailing slot":     func(m *Machine) { m.out.off = append(m.out.off, m.out.off[len(m.out.off)-1]) },
		"missing last flag": func(m *Machine) { m.out.ids[last] &^= LastMatch },
		"extra last flag":   func(m *Machine) { m.out.ids[multi] |= LastMatch },
		"another's list":    func(m *Machine) { m.out.off[1] = m.out.off[0] },
	}
	words := func(o *outputTable) string { return fmt.Sprint(o.bits, o.rank, o.off, o.ids) }
	for _, backend := range []string{BackendAuto, BackendReference} {
		for name, corrupt := range cases {
			m := mustBuild(t, toySet(), Options{Backend: backend})
			if err := m.verifyOutputs(trie); err != nil {
				t.Fatal(err)
			}
			before := words(&m.out)
			corrupt(m)
			if words(&m.out) == before {
				t.Fatalf("%s, %s: the corruption changed no word", backend, name)
			}
			if err := m.verifyOutputs(trie); err == nil {
				t.Errorf("%s, %s: corrupted output table accepted", backend, name)
			}
		}
	}
	m := mustBuild(t, toySet(), Options{})
	if err := m.verifyOutputs(mustTrie(t, setOf([][]byte{[]byte("he")}, false))); err == nil {
		t.Error("an output table was proved against another ruleset's trie")
	}
	own := m.out
	m.prog.out = &own
	if err := m.verifyOutputs(trie); err == nil {
		t.Error("a kernel emitting from its own copy of the table was accepted")
	}
}
