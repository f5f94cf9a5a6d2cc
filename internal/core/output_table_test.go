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
// clear have no slot in it — VerifyOutputs walks every state and counts the
// slots. The random machines of FuzzBuildEquivalence,
// TestSparseBuildMatchesDenseOracle and FuzzBakedEquivalence are held to the
// same proof where they are built.
func TestOutputTableProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
			m := mustBuild(t, set, Options{})
			if err := m.VerifyOutputs(mustTrie(t, set)); err != nil {
				t.Fatal(err)
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
		if err := m.VerifyOutputs(trie); err != nil {
			t.Fatal(err)
		}
		for s := int32(0); s < int32(m.NumStates()); s++ {
			want := trie.AppendOutputs(s, 7, nil)
			ac.SortMatches(want)
			if got := m.AppendOutputs(s, 7, nil); !slices.Equal(got, want) {
				t.Fatalf("state %d outputs %v, the trie's chain sorted %v", s, got, want)
			}
		}
		driveLockstep(t, m, trie, rng)
		if err := m.VerifyScan(trie, [][]byte{randBakedPayload(rng, 2048)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOutputTableNestedSuffixes is the hand-made case: every pattern a
// suffix of the one before, so the deepest state's chain visits four states,
// and one string numbered twice, so a state on that chain ends two patterns.
// ruleset.Validate refuses the same bytes under two IDs, so the second ID
// goes into the trie's parts and through ac.Rebuild, as a snapshot's would.
func TestOutputTableNestedSuffixes(t *testing.T) {
	set := setOf([][]byte{[]byte("abcd"), []byte("bcd"), []byte("cd"), []byte("d")}, false)
	built, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	const twin = 9 // second ID of "cd", which is pattern 2
	var (
		nodes = slices.Clone(built.Nodes)
		edges []ac.Edge
		outs  []int32
	)
	for s := range nodes {
		edges = append(edges, built.Edges(int32(s))...)
		outs = append(outs, built.Out(int32(s))...)
		if slices.Contains(built.Out(int32(s)), 2) {
			outs = append(outs, twin)
			nodes[s].NumOut++
		}
	}
	trie, err := ac.Rebuild(nodes, edges, outs)
	if err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{{}, {DenseStates: -1}, {DenseStates: 2}, {Backend: BackendReference}} {
		m, err := compressTrie(trie, opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyOutputs(trie); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := m.VerifyTransitions(trie); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		// The trie walks own output first, then each fail-ancestor's, so the
		// twin (9) comes before the shorter "d" (3); the machine's lists are
		// sorted, so it emits in (End, PatternID) order — on every backend, at
		// every end offset.
		payload := []byte("xabcdcd")
		chain := []ac.Match{
			{PatternID: 0, End: 5}, {PatternID: 1, End: 5}, {PatternID: 2, End: 5}, {PatternID: twin, End: 5}, {PatternID: 3, End: 5},
			{PatternID: 2, End: 7}, {PatternID: twin, End: 7}, {PatternID: 3, End: 7},
		}
		if got := trie.FindAll(payload); !slices.Equal(got, chain) {
			t.Fatalf("the trie itself finds %v, want %v", got, chain)
		}
		want := slices.Clone(chain)
		ac.SortMatches(want)
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
// kernel that reads some other table.
func TestVerifyOutputsDetectsCorruption(t *testing.T) {
	trie := mustTrie(t, toySet())
	cases := map[string]func(m *Machine){
		"swapped IDs":   func(m *Machine) { m.out.ids[1], m.out.ids[2] = m.out.ids[2], m.out.ids[1] }, // "she" ends 0 and 1
		"clear bit":     func(m *Machine) { m.out.bits[0] &= m.out.bits[0] - 1 },
		"stray bit":     func(m *Machine) { m.out.bits[0] |= 1 },
		"prefix count":  func(m *Machine) { m.out.rank[0]++ },
		"shifted slot":  func(m *Machine) { m.out.off[1]++ },
		"trailing slot": func(m *Machine) { m.out.off = append(m.out.off, m.out.off[len(m.out.off)-1]) },
	}
	for _, backend := range []string{BackendAuto, BackendReference} {
		for name, corrupt := range cases {
			m := mustBuild(t, toySet(), Options{Backend: backend})
			if err := m.VerifyOutputs(trie); err != nil {
				t.Fatal(err)
			}
			corrupt(m)
			if err := m.VerifyOutputs(trie); err == nil {
				t.Errorf("%s, %s: corrupted output table accepted", backend, name)
			}
		}
	}
	m := mustBuild(t, toySet(), Options{})
	if err := m.VerifyOutputs(mustTrie(t, setOf([][]byte{[]byte("he")}, false))); err == nil {
		t.Error("an output table was proved against another ruleset's trie")
	}
	own := m.out
	m.prog.out = &own
	if err := m.VerifyOutputs(trie); err == nil {
		t.Error("a kernel emitting from its own copy of the table was accepted")
	}
}
