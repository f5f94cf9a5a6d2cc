package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestOutputTableProperty: at the paper's ruleset sizes the kernel's
// flattened output table equals the trie's output chains state for state,
// and the states the bitset leaves clear have no slot in it — VerifyOutputs
// walks every state and counts the slots. The random machines of FuzzBuildEquivalence,
// TestSparseBuildMatchesDenseOracle and FuzzBakedEquivalence are held to the
// same proof where they are built.
func TestOutputTableProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			m := mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010}), Options{})
			if err := m.VerifyOutputs(); err != nil {
				t.Fatal(err)
			}
		})
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
		nodes   = slices.Clone(built.Nodes)
		edges   []ac.Edge
		outs    []int32
		patLens = append(slices.Clone(built.PatLens()), ac.PatLen{ID: twin, Len: 2})
	)
	for s := range nodes {
		edges = append(edges, built.Edges(int32(s))...)
		outs = append(outs, built.Out(int32(s))...)
		if slices.Contains(built.Out(int32(s)), 2) {
			outs = append(outs, twin)
			nodes[s].NumOut++
		}
	}
	trie, err := ac.Rebuild(nodes, edges, outs, patLens)
	if err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{{}, {DenseStates: -1}, {DenseStates: 2}} {
		opts = opts.withDefaults()
		m := &Machine{Trie: trie, Opts: opts, backend: opts.Backend}
		ft := newFailTree(trie)
		m.selectDefaults(ft)
		m.compress(ft)
		if err := m.compileBackends(ft); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyOutputs(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := m.VerifyTransitions(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		// Own output first, then each fail-ancestor's, a state's IDs in
		// insertion order — on every backend, at every end offset.
		payload := []byte("xabcdcd")
		want := []ac.Match{
			{PatternID: 0, End: 5}, {PatternID: 1, End: 5}, {PatternID: 2, End: 5}, {PatternID: twin, End: 5}, {PatternID: 3, End: 5},
			{PatternID: 2, End: 7}, {PatternID: twin, End: 7}, {PatternID: 3, End: 7},
		}
		if got := trie.FindAll(payload); !slices.Equal(got, want) {
			t.Fatalf("the trie itself finds %v, want %v", got, want)
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

// TestVerifyOutputsDetectsCorruption: the proof must be able to fail.
func TestVerifyOutputsDetectsCorruption(t *testing.T) {
	build := func() *Machine { return mustBuild(t, toySet(), Options{}) }
	cases := map[string]func(p *Program){
		"swapped IDs":   func(p *Program) { p.outIDs[0], p.outIDs[1] = p.outIDs[1], p.outIDs[0] },
		"clear bit":     func(p *Program) { p.outBits[0] &= p.outBits[0] - 1 },
		"stray bit":     func(p *Program) { p.outBits[0] |= 1 },
		"prefix count":  func(p *Program) { p.outRank[0]++ },
		"shifted slot":  func(p *Program) { p.outOff[1]++ },
		"trailing slot": func(p *Program) { p.outOff = append(p.outOff, p.outOff[len(p.outOff)-1]) },
	}
	for name, corrupt := range cases {
		m := build()
		if err := m.VerifyOutputs(); err != nil {
			t.Fatal(err)
		}
		corrupt(m.prog)
		if err := m.VerifyOutputs(); err == nil {
			t.Errorf("%s: corrupted output table accepted", name)
		}
	}
}
