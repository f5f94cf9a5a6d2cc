package ac

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/ruleset"
)

// toySet is the paper's running example (Figure 1): he, she, his, hers.
func toySet() *ruleset.Set {
	return &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("he")},
		{ID: 1, Data: []byte("she")},
		{ID: 2, Data: []byte("his")},
		{ID: 3, Data: []byte("hers")},
	}}
}

func mustTrie(t *testing.T, set *ruleset.Set) *Trie {
	t.Helper()
	tr, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestToyTrieShape(t *testing.T) {
	tr := mustTrie(t, toySet())
	// Figure 1: root + h, he, s, sh, she, hi, his, her, hers = 10 states.
	if tr.NumStates() != 10 {
		t.Fatalf("states = %d, want 10", tr.NumStates())
	}
	// Root has exactly two goto edges: h and s.
	if lo, hi := tr.Children(Root); hi-lo != 2 {
		t.Fatalf("root edges = %d, want 2", hi-lo)
	}
}

func TestToyFailFunction(t *testing.T) {
	tr := mustTrie(t, toySet())
	// Locate states by walking goto edges.
	h := tr.edgeTo(Root, 'h')
	he := tr.edgeTo(h, 'e')
	her := tr.edgeTo(he, 'r')
	hers := tr.edgeTo(her, 's')
	hi := tr.edgeTo(h, 'i')
	his := tr.edgeTo(hi, 's')
	s := tr.edgeTo(Root, 's')
	sh := tr.edgeTo(s, 'h')
	she := tr.edgeTo(sh, 'e')
	for name, st := range map[string]int32{"h": h, "he": he, "her": her,
		"hers": hers, "hi": hi, "his": his, "s": s, "sh": sh, "she": she} {
		if st == None {
			t.Fatalf("state %q missing", name)
		}
	}
	cases := []struct {
		name string
		st   int32
		fail int32
	}{
		{"h", h, Root},
		{"he", he, Root},
		{"her", her, Root},
		{"hers", hers, s},
		{"hi", hi, Root},
		{"his", his, s},
		{"s", s, Root},
		{"sh", sh, h},
		{"she", she, he},
	}
	for _, tc := range cases {
		if got := tr.Nodes[tc.st].Fail; got != tc.fail {
			t.Errorf("fail(%s) = %d, want %d", tc.name, got, tc.fail)
		}
	}
}

func TestToyMatchUshers(t *testing.T) {
	tr := mustTrie(t, toySet())
	got := tr.FindAll([]byte("ushers"))
	want := []Match{
		{PatternID: 0, End: 4}, // "he" in us[he]rs
		{PatternID: 1, End: 4}, // "she" in u[she]rs
		{PatternID: 3, End: 6}, // "hers" in us[hers]
	}
	if !MatchesEqual(got, want) {
		t.Fatalf("FindAll(ushers) = %v, want %v", got, want)
	}
}

func TestToyMoveStats(t *testing.T) {
	tr := mustTrie(t, toySet())
	st := tr.ComputeMoveStats()
	// Hand count of non-root move targets per state:
	// root:2 h:4 he:3 s:2 sh:4 she:3 hi:2 his:2 her:2 hers:2 = 26.
	// (The paper's §III.B quotes an average of 2.5 for Figure 1; exhaustive
	// enumeration gives 26/10 = 2.6 — the paper appears not to count one of
	// the self-transitions. The compressed counts in Figure 2 (1.1, 0.5,
	// 0.1) are reproduced exactly; see package core's tests.)
	if st.NonRootPointers != 26 {
		t.Fatalf("non-root pointers = %d, want 26", st.NonRootPointers)
	}
	if st.States != 10 {
		t.Fatalf("states = %d, want 10", st.States)
	}
}

func TestMoveMatchesRowIteration(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 200, Seed: 3})
	tr := mustTrie(t, set)
	tr.ForEachMoveRow(func(s int32, row []int32) {
		// Spot-check 16 characters per state to bound test time.
		for c := 0; c < 256; c += 16 {
			if got := tr.Move(s, byte(c)); got != row[c] {
				t.Fatalf("state %d char %#x: Move=%d row=%d", s, c, got, row[c])
			}
		}
	})
}

func TestForEachMoveRowVisitsAllStatesOnce(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 100, Seed: 4})
	tr := mustTrie(t, set)
	seen := make(map[int32]int)
	tr.ForEachMoveRow(func(s int32, row []int32) { seen[s]++ })
	if len(seen) != tr.NumStates() {
		t.Fatalf("visited %d states, trie has %d", len(seen), tr.NumStates())
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("state %d visited %d times", s, n)
		}
	}
}

func TestFindAllAgainstOracleRandom(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 150, Seed: 5})
	tr := mustTrie(t, set)
	oracle := NewOracle(set)
	src := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		n := 200 + src.Intn(800)
		data := make([]byte, n)
		for i := range data {
			data[i] = src.Byte()
		}
		// Seed some true matches.
		for k := 0; k < 5; k++ {
			p := set.Patterns[src.Intn(set.Len())]
			if len(p.Data) < n {
				off := src.Intn(n - len(p.Data))
				copy(data[off:], p.Data)
			}
		}
		got := tr.FindAll(data)
		want := oracle.FindAll(data)
		if !MatchesEqual(got, want) {
			t.Fatalf("trial %d: DFA %d matches, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestFailMatcherAgreesWithDFA(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 150, Seed: 6})
	tr := mustTrie(t, set)
	fm := NewFailMatcher(tr)
	src := rng.New(88)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = src.Byte()
	}
	for k := 0; k < 10; k++ {
		p := set.Patterns[src.Intn(set.Len())]
		copy(data[src.Intn(len(data)-len(p.Data)):], p.Data)
	}
	got := fm.FindAll(data)
	want := tr.FindAll(data)
	if !MatchesEqual(got, want) {
		t.Fatalf("fail matcher %d matches, DFA %d", len(got), len(want))
	}
}

func TestFailMatcherStepsExceedOneOnAdversarialInput(t *testing.T) {
	// Patterns engineered so scanning text full of near-misses forces fail
	// transitions: "aaab" makes runs of 'a' walk deep, then each 'c' falls
	// all the way back.
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("aaaaaaab")},
		{ID: 1, Data: []byte("ab")},
	}}
	tr := mustTrie(t, set)
	fm := NewFailMatcher(tr)
	data := bytes.Repeat([]byte("aaaaaaac"), 100)
	fm.FindAll(data)
	if spc := fm.StepsPerChar(); spc <= 1.05 {
		t.Fatalf("adversarial steps/char = %.3f, want > 1.05", spc)
	}
	// The move-function DFA by construction takes exactly 1 step per char;
	// there is nothing to measure — Move is called once per input byte.
}

func TestEmitOutputsIncludesSuffixPatterns(t *testing.T) {
	// "abcde" ends at a state whose fail chain contains "cde" and "e".
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("abcde")},
		{ID: 1, Data: []byte("cde")},
		{ID: 2, Data: []byte("e")},
	}}
	tr := mustTrie(t, set)
	got := tr.FindAll([]byte("abcde"))
	want := []Match{
		{PatternID: 2, End: 5},
		{PatternID: 1, End: 5},
		{PatternID: 0, End: 5},
	}
	if !MatchesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestPatternContainedInAnother(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("issi")},
		{ID: 1, Data: []byte("mississippi")},
		{ID: 2, Data: []byte("ss")},
	}}
	tr := mustTrie(t, set)
	got := tr.FindAll([]byte("mississippi"))
	want := []Match{
		{PatternID: 2, End: 4},
		{PatternID: 0, End: 5},
		{PatternID: 2, End: 7},
		{PatternID: 0, End: 8},
		{PatternID: 1, End: 11},
	}
	if !MatchesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOverlappingMatchesAllReported(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("aa")},
	}}
	tr := mustTrie(t, set)
	got := tr.FindAll([]byte("aaaa"))
	if len(got) != 3 {
		t.Fatalf("got %d matches of 'aa' in 'aaaa', want 3", len(got))
	}
}

func TestBinaryPatterns(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte{0x90, 0x90, 0x90}},
		{ID: 1, Data: []byte{0x00, 0xFF}},
	}}
	tr := mustTrie(t, set)
	data := []byte{0x90, 0x90, 0x90, 0x90, 0x00, 0xFF}
	got := tr.FindAll(data)
	want := []Match{
		{PatternID: 0, End: 3},
		{PatternID: 0, End: 4},
		{PatternID: 1, End: 6},
	}
	if !MatchesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestNoMatchesInCleanData(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("virus")},
	}}
	tr := mustTrie(t, set)
	if got := tr.FindAll([]byte("perfectly ordinary text")); len(got) != 0 {
		t.Fatalf("unexpected matches: %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	tr := mustTrie(t, toySet())
	if got := tr.FindAll(nil); len(got) != 0 {
		t.Fatalf("matches on empty input: %v", got)
	}
}

func TestNewRejectsEmptySet(t *testing.T) {
	if _, err := New(&ruleset.Set{}); err == nil {
		t.Fatal("New accepted empty set")
	}
}

// TestNewRejectsInvalidSet: New checks a set as it inserts it, not through
// Set.Validate, and each of the four things Validate refuses still fails it
// for its own reason — the sets are valid but for the one fault.
func TestNewRejectsInvalidSet(t *testing.T) {
	p := func(id int, data string) ruleset.Pattern { return ruleset.Pattern{ID: id, Data: []byte(data)} }
	for _, tc := range []struct {
		fault    string
		patterns []ruleset.Pattern
	}{
		{"is empty", []ruleset.Pattern{p(0, "he"), p(1, "")}},
		{"outside the usable 13-bit range", []ruleset.Pattern{p(0, "he"), p(ruleset.IDSpace, "she")}},
		{"outside the usable 13-bit range", []ruleset.Pattern{p(-1, "he")}},
		{"duplicate pattern ID 8190", []ruleset.Pattern{p(8190, "he"), p(3, "his"), p(8190, "she")}},
		{"same content", []ruleset.Pattern{p(0, "hers"), p(1, "he"), p(2, "hers")}},
	} {
		set := &ruleset.Set{Patterns: tc.patterns}
		if set.Validate() == nil {
			t.Fatalf("%v: Set.Validate accepts the case", tc.patterns)
		}
		_, err := New(set)
		if err == nil || !strings.Contains(err.Error(), tc.fault) {
			t.Errorf("%v: New says %v, want an error saying %q", tc.patterns, err, tc.fault)
		}
	}
	// The edges of the ID range are valid.
	if _, err := New(&ruleset.Set{Patterns: []ruleset.Pattern{p(0, "he"), p(ruleset.IDSpace-1, "she")}}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateContentReportsInputOrder: Layout sorts each state's
// patterns stably, so two patterns with the same bytes are reported as they
// were listed, the first one first, whatever their IDs and wherever the
// sort moved the patterns between them.
func TestDuplicateContentReportsInputOrder(t *testing.T) {
	p := func(id int, data string) ruleset.Pattern { return ruleset.Pattern{ID: id, Data: []byte(data)} }
	for _, tc := range []struct {
		patterns []ruleset.Pattern
		want     string
	}{
		{[]ruleset.Pattern{p(7, "hers"), p(1, "he"), p(3, "hers")}, "patterns 7 and 3 have the same content"},
		{[]ruleset.Pattern{p(2, "hers"), p(9, "hers"), p(4, "a")}, "patterns 2 and 9 have the same content"},
	} {
		// Patterns that run on through the duplicates' state make every run
		// on their path wide enough for the counting sort.
		pats := slices.Clone(tc.patterns)
		for i := range 40 {
			pats = append(pats, p(100+i, fmt.Sprintf("hers%03d", 39-i)))
		}
		for _, set := range []*ruleset.Set{{Patterns: tc.patterns}, {Patterns: pats}} {
			if _, err := Layout(set); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%d patterns: Layout says %v, want an error saying %q", len(set.Patterns), err, tc.want)
			}
		}
	}
}

// TestPatternLen: the trie keeps no table of pattern lengths because it is
// one — a pattern is output by exactly one state, at the depth of its length.
func TestPatternLen(t *testing.T) {
	set := toySet()
	tr := mustTrie(t, set)
	depthOf := map[int32]int32{}
	for s := range tr.Nodes {
		for _, id := range tr.Out(int32(s)) {
			if _, twice := depthOf[id]; twice {
				t.Fatalf("pattern %d is output by two states", id)
			}
			depthOf[id] = tr.Nodes[s].Depth
		}
	}
	for _, p := range set.Patterns {
		if got := depthOf[int32(p.ID)]; int(got) != len(p.Data) {
			t.Fatalf("pattern %d (%q) is output at depth %d, want %d", p.ID, p.Data, got, len(p.Data))
		}
	}
}

func TestDepthsAreTrieDepths(t *testing.T) {
	tr := mustTrie(t, toySet())
	for i, n := range tr.Nodes {
		if i == 0 {
			if n.Depth != 0 {
				t.Fatal("root depth != 0")
			}
			continue
		}
		if n.Depth != tr.Nodes[n.Parent].Depth+1 {
			t.Fatalf("state %d depth %d, parent depth %d", i, n.Depth, tr.Nodes[n.Parent].Depth)
		}
	}
}

func TestMoveNeverReturnsNone(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 50, Seed: 9})
	tr := mustTrie(t, set)
	for s := int32(0); s < int32(tr.NumStates()); s += 7 {
		for c := 0; c < 256; c += 5 {
			if got := tr.Move(s, byte(c)); got < 0 || got >= int32(tr.NumStates()) {
				t.Fatalf("Move(%d,%#x) = %d out of range", s, c, got)
			}
		}
	}
}

// Property: the DFA and the oracle agree on random small instances.
func TestQuickDFAEquivalence(t *testing.T) {
	f := func(seed int64, nPat uint8, nData uint16) bool {
		src := rng.New(seed)
		np := 1 + int(nPat)%12
		set := &ruleset.Set{}
		seen := map[string]bool{}
		for len(set.Patterns) < np {
			l := 1 + src.Intn(6)
			d := make([]byte, l)
			for i := range d {
				d[i] = byte('a' + src.Intn(4)) // tiny alphabet → dense overlaps
			}
			if seen[string(d)] {
				continue
			}
			seen[string(d)] = true
			set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
		}
		tr, err := New(set)
		if err != nil {
			return false
		}
		n := 1 + int(nData)%300
		data := make([]byte, n)
		for i := range data {
			data[i] = byte('a' + src.Intn(4))
		}
		return MatchesEqual(tr.FindAll(data), NewOracle(set).FindAll(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: fail matcher and DFA agree on random small instances.
func TestQuickFailMatcherEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		set := &ruleset.Set{}
		seen := map[string]bool{}
		for len(set.Patterns) < 8 {
			l := 1 + src.Intn(5)
			d := make([]byte, l)
			for i := range d {
				d[i] = byte('x' + src.Intn(3))
			}
			if seen[string(d)] {
				continue
			}
			seen[string(d)] = true
			set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: d})
		}
		tr, err := New(set)
		if err != nil {
			return false
		}
		data := make([]byte, 200)
		for i := range data {
			data[i] = byte('x' + src.Intn(3))
		}
		return MatchesEqual(NewFailMatcher(tr).FindAll(data), tr.FindAll(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNew* time the trie on its own — the layout and the fail sweep,
// New's two phases — at the paper's smallest and largest ruleset sizes, the
// first layer of every core.Build.
func benchmarkNew(b *testing.B, n int) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNew634(b *testing.B)  { benchmarkNew(b, 634) }
func BenchmarkNew6275(b *testing.B) { benchmarkNew(b, 6275) }
