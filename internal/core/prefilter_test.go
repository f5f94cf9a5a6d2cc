package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestPrefilterSupersetProperty is the runtime form of the no-false-
// negative contract: over random rulesets and random payloads, every
// machine keeps its prefilter and passes Verify, which proves the superset
// contract on the table and runs the prefiltered pipeline on the payload
// against the DFA, so a match the skimmer sailed past fails it. Under -race
// the first 8 of the 40 machines are proved.
func TestPrefilterSupersetProperty(t *testing.T) {
	trials := 40
	if raceEnabled {
		trials = 8
	}
	rng := rand.New(rand.NewSource(20100308))
	for trial := 0; trial < trials; trial++ {
		set := randBakedSet(rng)
		m := mustBuild(t, set, Options{})
		if m.pre == nil {
			t.Fatalf("trial %d: prefilter unavailable", trial)
		}
		if err := m.Verify(mustTrie(t, set), [][]byte{randBakedPayload(rng, 256+rng.Intn(1024))}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPrefilterReadsNoFailLinks pins the read set Build's concurrency rests
// on: CompilePrefilter and verifySuperset read a trie's Depth, Char, Parent
// and NumOut only, never the Fail and OutLink that ac.Trie.Link writes while
// they run. Each set's prefilter is compiled and proved on a trie that is
// laid out but not linked, again on the same trie while Link runs beside it
// — under -race any read of a link is reported — and once more after Link:
// the three must be equal and every proof must pass. The fold's window
// filter is built on Build's own goroutine after Link, so the one Build
// installs must be the one built and proved on the finished trie.
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
			if pf.class != unlinked.class || pf.shallow != unlinked.shallow || pf.states != unlinked.states || pf.accepts != unlinked.accepts ||
				pf.nClasses != unlinked.nClasses || pf.folded != unlinked.folded || !slices.Equal(pf.tab, unlinked.tab) {
				t.Fatalf("set %d: the prefilter of the linked trie differs from the laid-out trie's", i)
			}
		}

		w := newWindowFilter(trie)
		if err := w.prove(trie); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		m, err := Build(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m.windows.shift != w.shift || !slices.Equal(m.windows.bits, w.bits) {
			t.Fatalf("set %d: Build installs a window filter other than the finished trie's", i)
		}
	}
}

// TestPrefilterUnavailableBackendErrors pins the registry contract: a
// machine whose prefilter does not fit lists the reference and baked
// backends, auto runs baked and a pinned prefiltered build is an error
// (TestBuildRejectsBadOptions refuses an unknown name).
func TestPrefilterUnavailableBackendErrors(t *testing.T) {
	saved := pfMaxRows
	pfMaxRows = 0 // no prefilter fits
	t.Cleanup(func() { pfMaxRows = saved })
	set := randBakedSet(rand.New(rand.NewSource(7)))
	m, err := Build(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if names := m.Backends(); !slices.Equal(names, []string{BackendReference, BackendBaked}) {
		t.Fatalf("a machine without a prefilter lists backends %v", names)
	}
	if m.DefaultBackend() != BackendBaked {
		t.Fatalf("DefaultBackend = %q, want baked", m.DefaultBackend())
	}
	if _, err := Build(set, Options{Backend: BackendPrefiltered}); err == nil {
		t.Fatal("a pinned prefiltered build without a prefilter succeeded")
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
	if want := rows * 64; st.TableBytes != want {
		t.Fatalf("TableBytes = %d, want %d", st.TableBytes, want)
	}
	if m.DefaultBackend() != BackendPrefiltered {
		t.Fatalf("pinned machine runs %q", m.DefaultBackend())
	}
	// Clean traffic (bytes outside the pattern alphabet) must be fully
	// skimmed; attack-dense traffic must drive the exact kernel.
	clean := make([]byte, 4096)
	for i := range clean {
		clean[i] = 0xF0 | byte(i&3)
	}
	m.FindAll(clean)
	st = pf.Stats()
	if st.SkimmedBytes < uint64(len(clean)) {
		t.Fatalf("SkimmedBytes = %d after %d clean bytes", st.SkimmedBytes, len(clean))
	}
	m.FindAll(randBakedPayload(rng, 4096))
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
// raw register values; the seeds of FuzzBackendEquivalence cover the same
// shapes with every backend in lockstep.
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
			var pre, ref Regs
			pre.Reset()
			ref.Reset()
			var pOut, rOut []ac.Match
			for i, o := range sc.ops {
				switch o.kind {
				case "write":
					pOut = m.scanAs(kindPrefiltered, &pre, []byte(o.chunk), pOut)
					rOut = m.scanAs(kindReference, &ref, []byte(o.chunk), rOut)
				case "reset":
					pre.Reset()
					ref.Reset()
				case "skip":
					pre.SkipAhead(o.n)
					ref.SkipAhead(o.n)
				}
				if pre != ref {
					t.Fatalf("op %d (%s): prefiltered registers %+v, reference %+v", i, o.kind, pre, ref)
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
				if e != pfSuspect && !reached[e] {
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
		if got, want := pf.Stats().TableBytes, rows*64; got != want {
			t.Errorf("%d strings: table takes %d B, want %d rows × 64 B, a cache line each", n, got, rows)
		}
		t.Logf("%d strings: %d rows stored of %d collapsed states, %d B", n, rows, len(states), pf.Stats().TableBytes)
	}
}

// TestPrefilterExactPhaseChunks: once a suspect window leaves the machine
// deep, the pipeline runs the baked loop exactChunk bytes at a time and
// skims again from the first chunk that ends shallow. The window opens a
// long pattern whose bytes keep the machine deep until a byte no pattern
// contains drops it to the start state: at every offset of the first chunk
// and of the second, so once exactly on a chunk's last byte — and, in one
// case, never within the packet. Each must leave the registers and matches
// of the baked loop run straight through, and the counters must show
// exactly the chunks the return leaves to run exactly, the rest skimmed.
// Then chunks end on a depth-1 and a depth-2 state whose path a suspect
// completes: the skim must resume from the path's first byte, and the
// rebuild continue from the exact registers rather than reach back.
func TestPrefilterExactPhaseChunks(t *testing.T) {
	long := []byte("abc")
	for c := byte('!'); len(long) < 2*exactChunk+8; c++ {
		if c < 'a' || c > 'c' {
			long = append(long, c)
		}
	}
	set := setOf([][]byte{long, long[:3], long[10:14]}, false)
	m, trie := mustBuild(t, set, Options{Backend: BackendPrefiltered}), mustTrie(t, set)
	const clean, lead = 0xF0, 40 // a byte no pattern contains, and the run of it before the window
	pf := m.Prefilter()
	run := func(name string, payload []byte, wantExact, wantSkimmed int) {
		t.Helper()
		before := pf.Stats()
		var pre, baked Regs
		pre.Reset()
		baked.Reset()
		got := m.scanAs(kindPrefiltered, &pre, payload, nil)
		want := m.scanAs(kindBaked, &baked, payload, nil)
		if pre != baked || !slices.Equal(got, want) {
			t.Fatalf("%s: prefiltered ends in %+v with %v, baked in %+v with %v", name, pre, got, baked, want)
		}
		if !ac.MatchesEqual(got, trie.FindAll(payload)) {
			t.Fatalf("%s: %v, the DFA finds %v", name, got, trie.FindAll(payload))
		}
		after := pf.Stats()
		exact, skimmed := after.ExactBytes-before.ExactBytes, after.SkimmedBytes-before.SkimmedBytes
		if int(exact) != wantExact || int(skimmed) != wantSkimmed {
			t.Fatalf("%s: %d bytes exact and %d skimmed of %d, want %d and %d", name, exact, skimmed, len(payload), wantExact, wantSkimmed)
		}
	}
	pad := func(n int) []byte { return slices.Repeat([]byte{clean}, n) }
	// The window is the pattern's first prefK bytes: the skim stops on its
	// last, the rebuild rescans those prefK, and the exact phase starts on
	// the byte after, k of the pattern's bytes before the drop. The call
	// ends skimming, so its last prefK bytes are rebuilt exactly too.
	for k := 0; k < 2*exactChunk; k++ {
		payload := slices.Concat(pad(lead), long[:prefK+k], pad(3*exactChunk))
		chunks := (k/exactChunk + 1) * exactChunk
		run(fmt.Sprintf("return at offset %d", k), payload, 2*prefK+chunks, len(payload)-chunks)
	}
	payload := slices.Concat(pad(lead), long)
	run("no return", payload, len(long), lead+prefK)
	for d := 1; d < prefK; d++ {
		// After the window, the clean bytes and then the first d bytes of
		// the window again that fill the first chunk: it ends at depth d,
		// the skim resumes on the window's first byte and flags its last,
		// and the rebuild runs on from the chunk's end. Then one chunk past
		// the second window and the closing rebuild.
		payload := slices.Concat(pad(lead), long[:prefK], pad(exactChunk-d), long[:prefK], pad(exactChunk+2*prefK))
		run(fmt.Sprintf("resume at depth %d", d), payload, prefK+exactChunk+prefK-d+exactChunk+prefK, len(payload)-2*exactChunk)
	}
}

// TestPrefilterCountersOwnTheirLine: every stream sharing a machine adds to
// the prefilter's runtime counters once per call, and every call reads tab,
// shallow and class, the skim loop class on every byte. A cache line
// between them keeps one lane's Add from invalidating the lines another
// lane reads, wherever the allocator places the stage, and a line after
// them from sharing theirs with the next object.
func TestPrefilterCountersOwnTheirLine(t *testing.T) {
	var pf Prefilter
	first, last := unsafe.Offsetof(pf.skimmedBytes), unsafe.Offsetof(pf.suspectWindows)+unsafe.Sizeof(pf.suspectWindows)
	for _, read := range []struct {
		name string
		end  uintptr
	}{
		{"tab", unsafe.Offsetof(pf.tab) + unsafe.Sizeof(pf.tab)},
		{"class", unsafe.Offsetof(pf.class) + unsafe.Sizeof(pf.class)},
		{"shallow", unsafe.Offsetof(pf.shallow) + unsafe.Sizeof(pf.shallow)},
	} {
		if first < read.end+64 {
			t.Errorf("the counters start %d B after %s ends, want at least 64", int(first)-int(read.end), read.name)
		}
	}
	for _, c := range []uintptr{unsafe.Offsetof(pf.exactBytes), unsafe.Offsetof(pf.suspectWindows)} {
		if c < first || c >= last {
			t.Errorf("a counter at %d lies outside the counters' block [%d, %d)", c, first, last)
		}
	}
	if size := unsafe.Sizeof(pf); size < last+64 {
		t.Errorf("the stage ends %d B after its counters, want at least 64", size-last)
	}
}
