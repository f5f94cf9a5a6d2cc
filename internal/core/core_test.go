package core

import (
	"testing"
	"testing/quick"

	"repro/internal/ac"
	"repro/internal/rng"
	"repro/internal/ruleset"
)

func toySet() *ruleset.Set {
	return &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("he")},
		{ID: 1, Data: []byte("she")},
		{ID: 2, Data: []byte("his")},
		{ID: 3, Data: []byte("hers")},
	}}
}

func mustBuild(t *testing.T, set *ruleset.Set, opts Options) *Machine {
	t.Helper()
	m, err := Build(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustTrie builds the uncompressed automaton of set: the oracle a machine
// is proved against, made from the ruleset and not from the machine.
func mustTrie(t testing.TB, set *ruleset.Set) *ac.Trie {
	t.Helper()
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	return trie
}

// TestPaperToyExample reproduces Figure 2 exactly: for the state machine of
// Figure 1 (he, she, his, hers — 10 states), inserting depth-1 defaults
// leaves an average of 1.1 stored pointers per state (Figure 2A), adding
// depth-2 defaults leaves 0.5 (Figure 2B), and adding depth-3 defaults
// leaves 0.1 (Figure 2C) — i.e. 11, 5 and 1 stored pointers total.
func TestPaperToyExample(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	st := m.Stats
	if st.States != 10 {
		t.Fatalf("states = %d, want 10", st.States)
	}
	if st.StoredAfterD1 != 11 {
		t.Errorf("stored after d1 = %d, want 11 (Figure 2A: avg 1.1)", st.StoredAfterD1)
	}
	if st.StoredAfterD12 != 5 {
		t.Errorf("stored after d1+d2 = %d, want 5 (Figure 2B: avg 0.5)", st.StoredAfterD12)
	}
	if st.StoredAfterD123 != 1 {
		t.Errorf("stored after d1+d2+d3 = %d, want 1 (Figure 2C: avg 0.1)", st.StoredAfterD123)
	}
	if st.AvgAfterD123 != 0.1 {
		t.Errorf("avg after full compression = %v, want 0.1", st.AvgAfterD123)
	}
}

// The single surviving pointer in the toy example is state "her" → "hers"
// on 's': the depth-3 default for 's' is "his" (its history comparison
// fails at "her"), there is no depth-2 state ending in 's', and the
// depth-1 default for 's' is the state "s", not "hers".
func TestToySurvivingPointer(t *testing.T) {
	m, trie := mustBuild(t, toySet(), Options{}), mustTrie(t, toySet())
	total := 0
	var survivor Pointer
	var atState int32
	for s := int32(0); s < int32(m.NumStates()); s++ {
		list := m.StoredRow(s)
		total += len(list)
		if len(list) > 0 {
			survivor = list[0]
			atState = s
		}
	}
	if total != 1 {
		t.Fatalf("stored pointers = %d, want 1", total)
	}
	if survivor.Char() != 's' {
		t.Fatalf("surviving pointer on %q, want 's'", survivor.Char())
	}
	nd := trie.Nodes[atState]
	if nd.Depth != 3 { // "her"
		t.Fatalf("surviving pointer at depth %d, want 3", nd.Depth)
	}
	if to := trie.Nodes[survivor.To()]; to.Depth != 4 { // "hers"
		t.Fatalf("surviving pointer targets depth %d, want 4", to.Depth)
	}
}

func TestToyDefaultsContents(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	if m.Stats.D1Count != 2 {
		t.Fatalf("d1 count = %d, want 2 (h, s)", m.Stats.D1Count)
	}
	if m.LookupRow('h').D1 == ac.None || m.LookupRow('s').D1 == ac.None {
		t.Fatal("missing depth-1 defaults for h/s")
	}
	if m.LookupRow('x').D1 != ac.None {
		t.Fatal("phantom depth-1 default for x")
	}
	// Depth-2 states: he, sh, hi → one default in each of rows e, h, i.
	if m.Stats.D2Count != 3 {
		t.Fatalf("d2 count = %d, want 3", m.Stats.D2Count)
	}
	if d2 := m.LookupRow('e').D2; len(d2) != 1 || d2[0].Prev != 'h' {
		t.Fatalf("d2[e] = %+v, want prev h", d2)
	}
	// Depth-3 states: she, his, her → rows e, s, r.
	if m.Stats.D3Count != 3 {
		t.Fatalf("d3 count = %d, want 3", m.Stats.D3Count)
	}
	if d3 := m.LookupRow('s').D3; len(d3) != 1 || d3[0].Prev2 != 'h' || d3[0].Prev1 != 'i' {
		t.Fatalf("d3[s] = %+v, want prev hi", d3)
	}
}

// TestVerifyTransitionsToy: the toy machine passes every proof;
// the corruption table's toy rows show each can refuse it.
func TestVerifyTransitionsToy(t *testing.T) {
	if err := mustBuild(t, toySet(), Options{}).Verify(mustTrie(t, toySet()), nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTransitionsSynthetic(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 400, Seed: 11})
	if err := mustBuild(t, set, Options{}).Verify(mustTrie(t, set), nil); err != nil {
		t.Fatal(err)
	}
}

// TestScanMatchesDFA: every backend's scan and fold of payloads with
// genuine patterns embedded, through Verify. Verify proves the machine
// exhaustively too, which TestVerifyProgramProperty does at 634 strings, and
// joins every pair of payloads, so under -race a 60-string machine and 8
// payloads stand in for the 300-string one and 25.
func TestScanMatchesDFA(t *testing.T) {
	n, payloads := 300, make([][]byte, 25)
	if raceEnabled {
		n, payloads = 60, payloads[:8]
	}
	set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 12})
	m := mustBuild(t, set, Options{})
	src := rng.New(34)
	for i := range payloads {
		p := make([]byte, 100+src.Intn(900))
		for j := range p {
			p[j] = src.Byte()
		}
		// Embed genuine patterns to exercise match paths.
		for k := 0; k < 4; k++ {
			pat := set.Patterns[src.Intn(set.Len())]
			if len(pat.Data) < len(p) {
				copy(p[src.Intn(len(p)-len(pat.Data)):], pat.Data)
			}
		}
		payloads[i] = p
	}
	if err := m.Verify(mustTrie(t, set), payloads); err != nil {
		t.Fatal(err)
	}
}

func TestScannerResetClearsHistory(t *testing.T) {
	// Patterns chosen so a depth-3 default exists for 'c' with history
	// "ab". If history leaked across packets, scanning "ab" then "c" as two
	// packets could follow the depth-3 default and falsely match "abc".
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("abc")},
		{ID: 1, Data: []byte("c")},
	}}
	m := mustBuild(t, set, Options{})
	var r Regs
	r.Reset()
	got := m.ScanAppend(&r, []byte("ab"), nil)
	r.Reset()
	got = m.ScanAppend(&r, []byte("c"), got)
	want := []ac.Match{{PatternID: 1, End: 1}} // only "c" in packet 2
	if !ac.MatchesEqual(got, want) {
		t.Fatalf("cross-packet matches = %v, want %v", got, want)
	}
}

func TestScannerStreamsAcrossCalls(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{{ID: 0, Data: []byte("abcd")}}}
	m := mustBuild(t, set, Options{})
	var r Regs
	r.Reset()
	got := m.ScanAppend(&r, []byte("ab"), nil)
	got = m.ScanAppend(&r, []byte("cd"), got)
	if len(got) != 1 || got[0].End != 4 {
		t.Fatalf("streamed scan = %v, want one match ending at 4", got)
	}
}

func TestOneTransitionPerByte(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 13})
	m := mustBuild(t, set, Options{})
	data := make([]byte, 5000)
	src := rng.New(5)
	for i := range data {
		data[i] = src.Byte()
	}
	var r Regs
	r.Reset()
	m.ScanAppend(&r, data, nil)
	if r.Pos() != len(data) {
		t.Fatalf("consumed %d positions for %d bytes", r.Pos(), len(data))
	}
}

func TestReductionOnSyntheticSnort(t *testing.T) {
	// Table II: the full scheme removes ≥96.5% of pointers on every tested
	// Snort-derived ruleset.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	m := mustBuild(t, set, Options{})
	st := m.Stats
	if st.Reduction < 0.93 {
		t.Fatalf("reduction = %.4f, want >= 0.93", st.Reduction)
	}
	// The paper's ordering: original ≈ first-char count, then large drops
	// at each depth.
	if !(st.OriginalAvg > st.AvgAfterD1 && st.AvgAfterD1 > st.AvgAfterD12 &&
		st.AvgAfterD12 > st.AvgAfterD123) {
		t.Fatalf("averages not strictly decreasing: %.2f %.2f %.2f %.2f",
			st.OriginalAvg, st.AvgAfterD1, st.AvgAfterD12, st.AvgAfterD123)
	}
	// Original average tracks the number of distinct first characters
	// (±15%): every state stores a pointer for nearly every depth-1 state.
	fc := float64(set.FirstCharCount())
	if st.OriginalAvg < fc*0.85 || st.OriginalAvg > fc*1.35 {
		t.Errorf("original avg %.2f far from first-char count %.0f", st.OriginalAvg, fc)
	}
}

func TestD1CountEqualsFirstChars(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 500, Seed: 21})
	m := mustBuild(t, set, Options{})
	if m.Stats.D1Count != set.FirstCharCount() {
		t.Fatalf("D1Count = %d, first chars = %d", m.Stats.D1Count, set.FirstCharCount())
	}
}

// TestD2PerCharCap: the lookup table holds at most 4 depth-2 defaults a
// row, and the depth-2 ablation selects at most k a row — no more than
// k × the rows that have a depth-2 state at all.
func TestD2PerCharCap(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 800, Seed: 22})
	m := mustBuild(t, set, Options{})
	rows := 0
	for c := 0; c < 256; c++ {
		if n := len(m.LookupRow(byte(c)).D2); n > 4 {
			t.Fatalf("row %#x has %d depth-2 defaults", c, n)
		} else if n > 0 {
			rows++
		}
	}
	for _, k := range []int{1, 2, 4, 8} {
		st, err := CompressionStats(set, k)
		if err != nil {
			t.Fatal(err)
		}
		if st.D2Count > k*rows {
			t.Fatalf("k=%d: %d depth-2 defaults over %d rows", k, st.D2Count, rows)
		}
	}
	if _, err := CompressionStats(set, -1); err == nil {
		t.Fatal("CompressionStats accepted -1 depth-2 defaults per row")
	}
}

func TestMoreD2DefaultsNeverIncreaseStored(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 600, Seed: 23})
	prev := int64(1 << 62)
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		st, err := CompressionStats(set, k)
		if err != nil {
			t.Fatal(err)
		}
		if st.StoredPointers > prev {
			t.Fatalf("stored pointers increased from %d to %d at %d depth-2 defaults per row",
				prev, st.StoredPointers, k)
		}
		prev = st.StoredPointers
	}
}

// TestDefaultsResolveOrder pins the default rule on the table's words: the
// deepest default whose key matches the fused history wins, an unknown
// history lane matches nothing, and a row with no default resolves to the
// start state.
func TestDefaultsResolveOrder(t *testing.T) {
	rows := new([256]LookupRow)
	for c := range rows {
		rows[c].D1 = ac.None
	}
	rows['x'] = LookupRow{
		D1: 1,
		D2: []D2Entry{{Prev: 'b', State: 4}, {Prev: 'a', State: 2}},
		D3: []D3Entry{{Prev2: 'p', Prev1: 'a', State: 3}},
	}
	l := denseLookupTable(rows)
	for i, tc := range []struct {
		h2, h1 int16
		want   int32
	}{
		{int16('p'), int16('a'), 3}, // d3 wins
		{int16('q'), int16('a'), 2}, // d3 history miss → d2
		{int16('q'), int16('b'), 4}, // any d2 slot
		{int16('p'), int16('c'), 1}, // both miss → d1
		{HistNone, int16('a'), 2},   // no h2: d3 cannot fire
		{HistNone, HistNone, 1},     // no history at all
	} {
		if got := l.resolve('x', fuseHist(tc.h2, tc.h1)); got != tc.want {
			t.Errorf("case %d: resolve = %d, want %d", i, got, tc.want)
		}
	}
	if got := l.resolve('y', fuseHist('p', 'a')); got != ac.Root {
		t.Errorf("a row with no default resolves to %d, want the start state", got)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build(toySet(), Options{Backend: "warp"}); err == nil {
		t.Error("Build accepted an unknown backend")
	}
}

func TestBuildGroupedCoversAllPatterns(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 900, Seed: 31})
	g, err := BuildGrouped(set, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Machines) != 3 {
		t.Fatalf("groups = %d", len(g.Machines))
	}
	total := 0
	for _, s := range g.Sets {
		total += s.Len()
	}
	if total != set.Len() {
		t.Fatalf("grouped sets hold %d patterns, want %d", total, set.Len())
	}
}

func TestGroupedFindAllEqualsSingle(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 500, Seed: 32})
	single := mustBuild(t, set, Options{})
	g, err := BuildGrouped(set, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(44)
	for trial := 0; trial < 10; trial++ {
		data := make([]byte, 600)
		for i := range data {
			data[i] = src.Byte()
		}
		for k := 0; k < 3; k++ {
			p := set.Patterns[src.Intn(set.Len())]
			if len(p.Data) < len(data) {
				copy(data[src.Intn(len(data)-len(p.Data)):], p.Data)
			}
		}
		got := g.FindAll(data)
		want := single.FindAll(data)
		if !ac.MatchesEqual(got, want) {
			t.Fatalf("trial %d: grouped %d matches, single %d", trial, len(got), len(want))
		}
	}
}

func TestGroupedStatesSlightlyExceedSingle(t *testing.T) {
	// Table II: splitting 6,275 strings over 6 blocks grows the state count
	// only marginally (109,467 → 109,638, +0.16%) because lexicographic
	// grouping keeps shared prefixes together.
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 2000, Seed: 33})
	single := mustBuild(t, set, Options{})
	g, err := BuildGrouped(set, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := g.CombinedStats()
	if cs.States < single.Stats.States {
		t.Fatalf("grouped states %d < single %d", cs.States, single.Stats.States)
	}
	growth := float64(cs.States-single.Stats.States) / float64(single.Stats.States)
	if growth > 0.05 {
		t.Fatalf("state growth %.3f%% too large for lexicographic grouping", growth*100)
	}
}

func TestBuildGroupedRejectsBadCounts(t *testing.T) {
	set := toySet()
	if _, err := BuildGrouped(set, 0, Options{}); err == nil {
		t.Error("groups=0 accepted")
	}
	if _, err := BuildGrouped(set, 10, Options{}); err == nil {
		t.Error("more groups than patterns accepted")
	}
}

func TestMaxStoredPerStateTracked(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 1000, Seed: 35})
	m := mustBuild(t, set, Options{})
	max := 0
	for s := int32(0); s < int32(m.NumStates()); s++ {
		if n := len(m.StoredRow(s)); n > max {
			max = n
		}
	}
	if m.Stats.MaxStoredPerState != max {
		t.Fatalf("MaxStoredPerState = %d, recount = %d", m.Stats.MaxStoredPerState, max)
	}
}

// quickSet draws n distinct patterns of 1 to maxLen bytes over the first
// letters letters: a dense alphabet, so many defaults fire.
func quickSet(src *rng.Source, n, maxLen, letters int) *ruleset.Set {
	set := &ruleset.Set{}
	seen := map[string]bool{}
	for len(set.Patterns) < n {
		d := make([]byte, 1+src.Intn(maxLen))
		for i := range d {
			d[i] = byte('a' + src.Intn(letters))
		}
		if !seen[string(d)] {
			seen[string(d)] = true
			set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
		}
	}
	return set
}

// Property: the compressed machine ≡ the DFA on random small instances,
// and on a random payload over their alphabet.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64, nData uint16) bool {
		src := rng.New(seed)
		set := quickSet(src, 10, 7, 3)
		data := make([]byte, 1+int(nData)%400)
		for i := range data {
			data[i] = byte('a' + src.Intn(3))
		}
		m, err := Build(set, Options{})
		return err == nil && m.Verify(mustTrie(t, set), [][]byte{data}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every stored pointer is a true DFA transition (no invented
// transitions) — the loop proofs take each one, on its state and byte.
func TestQuickStoredPointersAreDFAMoves(t *testing.T) {
	f := func(seed int64) bool {
		set := quickSet(rng.New(seed), 6, 6, 4)
		m, err := Build(set, Options{})
		return err == nil && m.Verify(mustTrie(t, set), nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
