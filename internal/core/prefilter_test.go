package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestPrefilterSupersetProperty is the runtime form of the no-false-
// negative contract: over random rulesets and random payloads, run the
// lossy machine alone from the start of the payload up to the first suspect
// entry — where the runtime hands off to the exact kernel, and past which
// the table holds no row to step from. Until then the exact machine must
// stay below depth prefK, and no exact match may end before it: a match the
// skimmer would sail past is a false negative. The structural
// verifySuperset proof is checked alongside.
func TestPrefilterSupersetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20100308))
	for trial := 0; trial < 40; trial++ {
		set := randBakedSet(rng)
		m, err := Build(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pf := m.pre
		if pf == nil {
			t.Fatalf("trial %d: prefilter unavailable", trial)
		}
		trie := mustTrie(t, set)
		if err := m.verifySuperset(trie); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		payload := randBakedPayload(rng, 256+rng.Intn(1024))

		// firstSuspect is the position (bytes consumed) of the first suspect
		// entry, len(payload)+1 if none fires.
		firstSuspect := len(payload) + 1
		st, exact := 0, ac.Root
		for i, c := range payload {
			e := pf.tab[st<<pfStrideBits|int(pf.class[c])]
			if e&pfSuspect != 0 {
				firstSuspect = i + 1
				break
			}
			st, exact = int(e), trie.Move(exact, c)
			if d := trie.Nodes[exact].Depth; d >= prefK {
				t.Fatalf("trial %d: exact machine at depth %d after %d clean bytes", trial, d, i+1)
			}
		}
		for _, mt := range trie.FindAll(payload) {
			if mt.End < firstSuspect {
				t.Fatalf("trial %d: match %+v ends before first suspect position %d: false negative",
					trial, mt, firstSuspect)
			}
		}
	}
}

// TestPrefilterReadsNoFailLinks pins the read set Build's concurrency rests
// on: CompilePrefilter and verifySuperset, and the fold's window filter and
// its proof, read a trie's Depth, Char, Parent and NumOut only, never the
// Fail and OutLink that ac.Trie.Link writes while they run. Each set's
// prefilter is compiled and proved on a trie that is laid out but not
// linked, again on the same trie while Link runs beside it — under -race
// any read of a link is reported — and once more after Link: the three must
// be equal and every proof must pass.
func TestPrefilterReadsNoFailLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(20100311))
	sets := []*ruleset.Set{ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})}
	for range 8 {
		sets = append(sets, randBakedSet(rng))
	}
	for i, set := range sets {
		trie, err := ac.Layout(set)
		if err != nil {
			t.Fatal(err)
		}
		compile := func(stage string) *Prefilter {
			pf := CompilePrefilter(trie)
			if pf == nil {
				t.Fatalf("set %d, %s: the prefilter does not fit", i, stage)
			}
			if err := pf.verifySuperset(trie); err != nil {
				t.Fatalf("set %d, %s: %v", i, stage, err)
			}
			if w := newWindowFilter(set, trie); w.prove(trie) != nil {
				t.Fatalf("set %d, %s: the window filter fails its proof", i, stage)
			}
			return pf
		}
		unlinked := compile("laid out")
		linked := make(chan struct{})
		go func() {
			trie.Link()
			close(linked)
		}()
		beside := compile("beside Link")
		<-linked
		if !slices.Equal(trie.Nodes, mustTrie(t, set).Nodes) {
			t.Fatalf("set %d: Layout then Link is not ac.New", i)
		}
		after := compile("linked")
		for _, pf := range []*Prefilter{beside, after} {
			if pf.class != unlinked.class || pf.states != unlinked.states || pf.accepts != unlinked.accepts ||
				pf.nClasses != unlinked.nClasses || pf.folded != unlinked.folded || !slices.Equal(pf.tab, unlinked.tab) {
				t.Fatalf("set %d: the prefilter of the linked trie differs from the laid-out trie's", i)
			}
		}
	}
}

// TestVerifySupersetDetectsCorruption proves the bake-time check actually
// rejects a prefilter that could miss: erase the suspect flags from a
// compiled table and verifySuperset must fail.
func TestVerifySupersetDetectsCorruption(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("abc")},
		{ID: 1, Data: []byte("xy")},
	}}
	m, err := Build(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.pre == nil {
		t.Fatal("prefilter unavailable")
	}
	trie := mustTrie(t, set)
	if err := m.verifySuperset(trie); err != nil {
		t.Fatalf("pristine table rejected: %v", err)
	}
	saved := make([]uint16, len(m.pre.tab))
	copy(saved, m.pre.tab)
	for i := range m.pre.tab {
		m.pre.tab[i] &^= pfSuspect
	}
	if err := m.verifySuperset(trie); err == nil {
		t.Fatal("verifySuperset accepted a table with no suspect flags")
	}
	copy(m.pre.tab, saved)
	if err := m.verifySuperset(trie); err != nil {
		t.Fatalf("restored table rejected: %v", err)
	}
	// A non-suspect entry one past the last stored row would send the skim
	// loop out of the table.
	rows := len(m.pre.tab) >> pfStrideBits
	m.pre.tab[int(m.pre.class['a'])] = uint16(rows)
	if err := m.verifySuperset(trie); err == nil {
		t.Fatal("verifySuperset accepted an entry addressing a row past the table")
	}
	copy(m.pre.tab, saved)
}

// TestPrefilterUnavailableBackendErrors pins the registry contract: a
// machine without compiled kernels lists only the reference backend, and
// pinning an unavailable backend is an explicit error, not a silent
// fallback.
func TestPrefilterUnavailableBackendErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := Build(randBakedSet(rng), Options{Backend: BackendReference})
	if err != nil {
		t.Fatal(err)
	}
	names := m.Backends()
	if len(names) != 1 || names[0] != BackendReference {
		t.Fatalf("reference-pinned machine lists backends %v", names)
	}
	if _, err := m.NewScannerFor(BackendPrefiltered); err == nil {
		t.Fatal("NewScannerFor(prefiltered) succeeded without a prefilter")
	}
	if _, err := m.NewScannerFor("warp"); err == nil {
		t.Fatal("NewScannerFor accepted an unknown backend name")
	}
	if m.DefaultBackend() != BackendReference {
		t.Fatalf("DefaultBackend = %q, want reference", m.DefaultBackend())
	}
}

// TestPrefilterStatsAccounting sanity-checks the layout report and the
// runtime skim counters.
func TestPrefilterStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := Build(randBakedSet(rng), Options{Backend: BackendPrefiltered})
	if err != nil {
		t.Fatal(err)
	}
	pf := m.pre
	st := pf.Stats()
	rows := len(pf.tab) >> pfStrideBits
	if rows <= 0 || rows > pfMaxRows || rows > st.States {
		t.Fatalf("%d rows stored for %d states", rows, st.States)
	}
	if st.Classes < 1 || st.Classes > pfMaxClasses {
		t.Fatalf("Classes = %d", st.Classes)
	}
	if st.AcceptPaths <= 0 {
		t.Fatalf("AcceptPaths = %d", st.AcceptPaths)
	}
	if want := rows * pfStride * 2; st.TableBytes != want {
		t.Fatalf("TableBytes = %d, want %d", st.TableBytes, want)
	}
	sc := m.NewScanner()
	if sc.Backend() != BackendPrefiltered {
		t.Fatalf("pinned machine built a %q scanner", sc.Backend())
	}
	// Clean traffic (bytes outside the pattern alphabet) must be fully
	// skimmed; attack-dense traffic must drive the exact kernel.
	clean := make([]byte, 4096)
	for i := range clean {
		clean[i] = 0xF0 | byte(i&3)
	}
	sc.ScanAppend(clean, nil)
	st = pf.Stats()
	if st.SkimmedBytes < uint64(len(clean)) {
		t.Fatalf("SkimmedBytes = %d after %d clean bytes", st.SkimmedBytes, len(clean))
	}
	sc.Reset()
	sc.ScanAppend(randBakedPayload(rng, 4096), nil)
	st = pf.Stats()
	if st.ExactBytes == 0 || st.SuspectWindows == 0 {
		t.Fatalf("attack traffic left no exact work: %+v", st)
	}
	if st.SuspectRate <= 0 {
		t.Fatalf("SuspectRate = %v with %d suspect windows", st.SuspectRate, st.SuspectWindows)
	}
}

// TestPrefilterTailRingBoundary pins the chunk geometry the pipeline once
// kept a tail ring of past bytes for: a suspect window that straddles a
// chunk boundary, and Reset and SkipAhead landing in the middle of one. No
// skim outlives its call now: a chunk that ends mid-window rebuilds the
// exact registers through its last byte, and any history byte from before a
// chunk comes from the registers the call was entered with — with 1-byte
// chunks, every rebuild reads its history there. Each scenario drives the
// prefiltered backend against the reference interpreter in lockstep on the
// raw register values; the fuzz seeds in FuzzPrefilterEquivalence cover the
// same shapes end to end through the public API.
func TestPrefilterTailRingBoundary(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{{ID: 0, Data: []byte("vwxyz")}}}
	m, err := Build(set, Options{Backend: BackendPrefiltered})
	if err != nil {
		t.Fatal(err)
	}

	type op struct {
		kind  string // "write" | "reset" | "skip"
		chunk string
		n     int
	}
	var bytewise []op
	for _, c := range "...vwxyz..vwxyz" {
		bytewise = append(bytewise, op{kind: "write", chunk: string(c)})
	}
	scenarios := []struct {
		name    string
		ops     []op
		matches int
	}{
		// "...vw" ends two bytes into the window: the call leaves the exact
		// machine at depth 2, and the next call runs the exact kernel from
		// there through the match.
		{"straddle-at-ring-capacity", []op{
			{kind: "write", chunk: "...vw"},
			{kind: "write", chunk: "xyz.."},
		}, 1},
		// Same geometry but the straddling window is cut by Reset: the
		// pattern's bytes were never contiguous in one stream, so nothing
		// may match and the history must restart unknown.
		{"reset-mid-suspect-window", []op{
			{kind: "write", chunk: "...vw"},
			{kind: "reset"},
			{kind: "write", chunk: "xyz.."},
			{kind: "write", chunk: "vwxyz"},
		}, 1},
		// A gap skip mid-window: like Reset, but the stream position keeps
		// advancing, so the later match's offset is shifted by the gap.
		{"skip-mid-suspect-window", []op{
			{kind: "write", chunk: "...vw"},
			{kind: "skip", n: 3},
			{kind: "write", chunk: "xyz.."},
			{kind: "write", chunk: "vwxyz"},
		}, 1},
		// One byte a call: every skim is a single byte, rebuilt at once from
		// the history the call was entered with.
		{"one-byte-chunks", bytewise, 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			pre, err := m.NewScannerFor(BackendPrefiltered)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := m.NewScannerFor(BackendReference)
			if err != nil {
				t.Fatal(err)
			}
			var pOut, rOut []ac.Match
			for i, o := range sc.ops {
				switch o.kind {
				case "write":
					pOut = pre.ScanAppend([]byte(o.chunk), pOut)
					rOut = ref.ScanAppend([]byte(o.chunk), rOut)
				case "reset":
					pre.Reset()
					ref.Reset()
				case "skip":
					pre.SkipAhead(o.n)
					ref.SkipAhead(o.n)
				}
				if pre.r != ref.r {
					t.Fatalf("op %d (%s): prefiltered registers %+v, reference %+v", i, o.kind, pre.r, ref.r)
				}
				if len(pOut) != len(rOut) {
					t.Fatalf("op %d (%s): prefiltered %d matches, reference %d", i, o.kind, len(pOut), len(rOut))
				}
			}
			if len(pOut) != sc.matches {
				t.Fatalf("%d matches, want %d", len(pOut), sc.matches)
			}
			for i := range pOut {
				if pOut[i] != rOut[i] {
					t.Fatalf("match %d: prefiltered %+v, reference %+v", i, pOut[i], rOut[i])
				}
			}
		})
	}
}

// TestPrefilterStoresOnlySteppedRows: the table holds a row for exactly the
// states the skim loop can stand in, at three of the paper's ruleset sizes.
// Every stored row is reachable from row 0 through non-suspect entries
// alone; there are as many rows as collapsed states whose string contains
// no accept string — non-suspect, and reached without passing a suspect
// state, since each prefix of the string is a state the walk spelling it
// passes — recounted here from the trie and the class map rather than taken
// from the builder; and the table is those rows, nothing else. A non-suspect state behind a suspect one (at these
// sizes, behind the class of a 1-byte pattern) gets no row.
func TestPrefilterStoresOnlySteppedRows(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		pf := mustBuild(t, set, Options{}).pre
		if pf == nil {
			t.Fatalf("%d strings: prefilter unavailable", n)
		}
		rows := len(pf.tab) >> pfStrideBits

		reached := make([]bool, rows)
		reached[0] = true
		queue := []int{0}
		for qi := 0; qi < len(queue); qi++ {
			for _, e := range pf.tab[queue[qi]<<pfStrideBits:][:pf.nClasses] {
				if e&pfSuspect == 0 && !reached[e] {
					reached[e] = true
					queue = append(queue, int(e))
				}
			}
		}
		if len(queue) != rows {
			t.Errorf("%d strings: %d of %d stored rows are reachable from row 0", n, len(queue), rows)
		}

		// The collapsed states are the class strings of the trie's paths of
		// depth 1..prefK, plus the start state's empty one; the accept
		// strings are those of depth prefK and the shorter ones where a
		// pattern ends.
		trie := mustTrie(t, set)
		states, accept := map[string]bool{"": true}, map[string]bool{}
		for s := int32(1); s < int32(trie.NumStates()); s++ {
			nd := &trie.Nodes[s]
			if nd.Depth > prefK {
				continue
			}
			var path []byte
			for cur := s; cur != ac.Root; cur = trie.Nodes[cur].Parent {
				path = append([]byte{pf.class[trie.Nodes[cur].Char]}, path...)
			}
			states[string(path)] = true
			if nd.Depth == prefK || nd.NumOut > 0 {
				accept[string(path)] = true
			}
		}
		clean := 0
		for st := range states {
			found := false
			for i := range st {
				for j := i + 1; j <= len(st); j++ {
					found = found || accept[st[i:j]]
				}
			}
			if !found {
				clean++
			}
		}
		if len(states) != pf.states || rows != clean {
			t.Errorf("%d strings: %d rows stored for %d of %d collapsed states free of accept strings (builder counted %d)",
				n, rows, clean, len(states), pf.states)
		}
		if got, want := pf.Stats().TableBytes, rows*pfStride*2; got != want {
			t.Errorf("%d strings: table takes %d B, want %d rows × %d B", n, got, rows, pfStride*2)
		}
		t.Logf("%d strings: %d rows stored of %d collapsed states, %d B", n, rows, len(states), pf.Stats().TableBytes)
	}
}
