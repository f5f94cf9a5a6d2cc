package core

import (
	"math/rand"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestPrefilterSupersetProperty is the runtime form of the no-false-
// negative contract: over random rulesets and random payloads, run the
// lossy machine alone from the start of the payload and record where
// suspect entries fire; every exact match must be preceded (or met) by a
// suspect position — a match the skimmer would sail past is a false
// negative. The structural VerifySuperset proof is checked alongside.
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
		if err := m.VerifySuperset(trie); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		payload := randBakedPayload(rng, 256+rng.Intn(1024))
		want := trie.FindAll(payload)

		// Drive the lossy DFA alone over the whole payload.
		suspectAt := make([]bool, len(payload)+1) // position = bytes consumed
		st := 0
		for i, c := range payload {
			e := pf.tab[st<<pfStrideBits|int(pf.class[c])]
			st = int(e & pfStateMask)
			if e&pfSuspect != 0 {
				suspectAt[i+1] = true
			}
		}
		firstSuspect := len(payload) + 1
		for p, s := range suspectAt {
			if s {
				firstSuspect = p
				break
			}
		}
		for _, mt := range want {
			if mt.End < firstSuspect {
				t.Fatalf("trial %d: match %+v ends before first suspect position %d: false negative",
					trial, mt, firstSuspect)
			}
			// The proof gives the stronger pointwise form for matches in a
			// clean prefix: while no suspect has fired, the exact depth is
			// below prefK and a match end itself fires suspect. After the
			// first suspect the pipeline is exact anyway; the lockstep
			// property test covers that regime.
		}
		// Pointwise: a match ending while the stream was still clean (no
		// earlier suspect) must be flagged exactly at its end position.
		for _, mt := range want {
			clean := true
			for p := 1; p < mt.End; p++ {
				if suspectAt[p] {
					clean = false
					break
				}
			}
			if clean && !suspectAt[mt.End] {
				t.Fatalf("trial %d: clean-prefix match %+v not flagged suspect at its end", trial, mt)
			}
		}
	}
}

// TestVerifySupersetDetectsCorruption proves the bake-time check actually
// rejects a prefilter that could miss: erase the suspect flags from a
// compiled table and VerifySuperset must fail.
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
	if err := m.VerifySuperset(trie); err != nil {
		t.Fatalf("pristine table rejected: %v", err)
	}
	saved := make([]uint16, len(m.pre.tab))
	copy(saved, m.pre.tab)
	for i := range m.pre.tab {
		m.pre.tab[i] &^= pfSuspect
	}
	if err := m.VerifySuperset(trie); err == nil {
		t.Fatal("VerifySuperset accepted a table with no suspect flags")
	}
	copy(m.pre.tab, saved)
	if err := m.VerifySuperset(trie); err != nil {
		t.Fatalf("restored table rejected: %v", err)
	}
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
	if st.States <= 0 || st.States > pfMaxStates {
		t.Fatalf("States = %d", st.States)
	}
	if st.Classes < 1 || st.Classes > pfMaxClasses {
		t.Fatalf("Classes = %d", st.Classes)
	}
	if st.AcceptPaths <= 0 {
		t.Fatalf("AcceptPaths = %d", st.AcceptPaths)
	}
	if want := st.States*pfStride*2 + 512; st.TableBytes != want {
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

// TestPrefilterTailRingBoundary pins the rebuild path's hardest geometry:
// a suspect window that straddles a chunk boundary when the tail ring is
// exactly at capacity (the previous chunk was exactly pfTailLen bytes, so
// every ring slot is live and the rebuild's window and history reads hit
// the ring's oldest entries), plus Reset and SkipAhead landing in the
// middle of a suspect window. Each scenario drives the prefiltered
// backend against the reference interpreter in register lockstep; the
// fuzz seeds in FuzzPrefilterEquivalence cover the same shapes end to
// end through the public API.
func TestPrefilterTailRingBoundary(t *testing.T) {
	if pfTailLen != 5 {
		t.Fatalf("pfTailLen = %d; revisit the chunk geometry below", pfTailLen)
	}
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
	scenarios := []struct {
		name    string
		ops     []op
		matches int
	}{
		// "...vw" fills the ring to capacity; the suspect fires on 'x' at
		// index 0 of the next chunk, so the rebuild window ('v', 'w') and
		// its history bytes ('.', '.') all come from the ring.
		{"straddle-at-ring-capacity", []op{
			{kind: "write", chunk: "...vw"},
			{kind: "write", chunk: "xyz.."},
		}, 1},
		// Same geometry but the straddling window is cut by Reset: the
		// pattern's bytes were never contiguous in one stream, so nothing
		// may match and the ring must restart empty.
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
				if got, want := pre.Registers(), ref.Registers(); got != want {
					t.Fatalf("op %d (%s): prefiltered registers %+v, reference %+v", i, o.kind, got, want)
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
