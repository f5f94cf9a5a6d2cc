package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// randBakedSet builds a small random pattern set over a deliberately tiny
// alphabet so trie states overlap heavily (deep fail chains, busy default
// rows) plus occasional full-range bytes.
func randBakedSet(rng *rand.Rand) *ruleset.Set {
	n := 1 + rng.Intn(16)
	seen := map[string]bool{}
	set := &ruleset.Set{}
	for len(set.Patterns) < n {
		l := 1 + rng.Intn(10)
		data := make([]byte, l)
		for i := range data {
			if rng.Intn(8) == 0 {
				data[i] = byte(rng.Intn(256))
			} else {
				data[i] = byte('a' + rng.Intn(4))
			}
		}
		if seen[string(data)] {
			continue
		}
		seen[string(data)] = true
		set.Patterns = append(set.Patterns, ruleset.Pattern{ID: len(set.Patterns), Data: data})
	}
	return set
}

// randBakedPayload emits bytes biased toward the pattern alphabet so the
// scan actually walks deep states and fires matches.
func randBakedPayload(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		if rng.Intn(6) == 0 {
			data[i] = byte(rng.Intn(256))
		} else {
			data[i] = byte('a' + rng.Intn(4))
		}
	}
	return data
}

// TestBakedEquivalenceProperty drives every registered backend — the
// reference slice walker, the baked kernel, the prefiltered pipeline — in
// lockstep over random machines, random payload chunks, interleaved
// single-byte Steps, mid-stream SkipAhead/Reset and forks (the stream
// continues on a copy of its Regs value), asserting byte-exact
// register equivalence (state, h1/h2 history, pos, and the raw Regs
// value) after every operation,
// identical match sequences, and — per contiguous visible segment — exact
// agreement with the uncompressed-DFA oracle.
func TestBakedEquivalenceProperty(t *testing.T) {
	configs := []Options{
		{},
		{DenseStates: 1},       // the start state alone on the fast tier
		{DenseStates: 2},       // the start state and one depth-1 state
		{DenseStates: 8},       // the depth-1 tier cut short
		{DenseStates: 32},      // depth-1 states and the most popular deeper ones
		{DenseStates: -1},      // compressed tier only
		{DenseStates: 3},       // nearly everything on the CSR path
		{DenseStates: 1 << 20}, // pure flat DFA
	}
	for ci, opts := range configs {
		opts := opts
		t.Run(fmt.Sprintf("config-%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for trial := 0; trial < 20; trial++ {
				set := randBakedSet(rng)
				m, err := Build(set, opts)
				if err != nil {
					t.Fatal(err)
				}
				if m.prog == nil {
					t.Fatalf("trial %d: configuration unexpectedly not baked", trial)
				}
				if m.pre == nil {
					t.Fatalf("trial %d: prefilter unexpectedly unavailable", trial)
				}
				if got, want := m.Backends(), RegisteredBackends(); len(got) != len(want) {
					t.Fatalf("trial %d: machine offers backends %v, registry has %v", trial, got, want)
				}
				driveLockstep(t, m, mustTrie(t, set), rng)
			}
		})
	}
}

// driveLockstep runs one randomized op sequence over one scanner per
// backend the machine offers, diffing registers and match streams after
// every op. Backends[0] is always the reference interpreter; the others
// are held to its behavior, and its matches to oracle's, the uncompressed
// automaton of the machine's ruleset.
func driveLockstep(t *testing.T, m *Machine, oracle *ac.Trie, rng *rand.Rand) {
	t.Helper()
	names := m.Backends()
	scs := make([]*Scanner, len(names))
	outs := make([][]ac.Match, len(names))
	for i, name := range names {
		sc, err := m.NewScannerFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Backend() != name {
			t.Fatalf("NewScannerFor(%q) built a %q scanner", name, sc.Backend())
		}
		scs[i] = sc
	}

	var seg []byte // bytes of the current contiguous visible segment
	segStart := 0  // stream position where the segment began
	segMark := 0   // len(outs[0]) when the segment began

	// checkSegment verifies the matches emitted during the segment, as
	// emitted, against the uncompressed DFA scanning the same bytes, put in
	// canonical (End, PatternID) order.
	checkSegment := func() {
		t.Helper()
		want := oracle.FindAll(seg)
		ac.SortMatches(want)
		got := outs[0][segMark:]
		if len(got) != len(want) {
			t.Fatalf("segment at %d: %d matches, oracle %d", segStart, len(got), len(want))
		}
		for i := range want {
			if got[i].PatternID != want[i].PatternID || got[i].End != want[i].End+segStart {
				t.Fatalf("segment at %d: match %d = %+v, oracle %+v (+%d)", segStart, i, got[i], want[i], segStart)
			}
		}
	}
	checkRegisters := func(op string) {
		t.Helper()
		ref := scs[0].Registers()
		for bi := 1; bi < len(scs); bi++ {
			if got := scs[bi].Registers(); got != ref {
				t.Fatalf("%s: %s registers %+v != reference %+v", op, names[bi], got, ref)
			}
			// Not just the architectural view: the whole per-stream value is
			// the same on every backend, so no backend keeps state the
			// others do not.
			if scs[bi].r != scs[0].r {
				t.Fatalf("%s: %s Regs %+v != reference %+v", op, names[bi], scs[bi].r, scs[0].r)
			}
			if len(outs[bi]) != len(outs[0]) {
				t.Fatalf("%s: %s emitted %d matches, reference %d", op, names[bi], len(outs[bi]), len(outs[0]))
			}
			for i := range outs[bi] {
				if outs[bi][i] != outs[0][i] {
					t.Fatalf("%s: match %d %s %+v reference %+v", op, i, names[bi], outs[bi][i], outs[0][i])
				}
			}
		}
	}

	// fork continues every stream on a copy of its register value and then
	// scribbles on the original, each backend's with different bytes: Regs
	// is plain data, so the copy is the whole stream and shares nothing
	// with what it was copied from — mid-suspect-window or right after a
	// gap alike.
	fork := func() {
		for bi, sc := range scs {
			scs[bi] = &Scanner{m: sc.m, kind: sc.kind, r: sc.r}
			sc.ScanAppend(randBakedPayload(rng, 1+rng.Intn(16)), nil)
		}
		checkRegisters("fork")
	}

	ops := 3 + rng.Intn(12)
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 4:
			fork()
		case 0: // Reset: segment ends, stream position restarts
			checkSegment()
			for _, sc := range scs {
				sc.Reset()
			}
			seg, segStart, segMark = seg[:0], 0, len(outs[0])
			checkRegisters("Reset")
		case 1: // SkipAhead: segment ends, position advances over unseen bytes
			checkSegment()
			n := 1 + rng.Intn(64)
			for _, sc := range scs {
				sc.SkipAhead(n)
			}
			seg, segStart, segMark = seg[:0], scs[0].Pos(), len(outs[0])
			checkRegisters("SkipAhead")
			if rng.Intn(2) == 0 {
				fork()
			}
		case 3: // SkipAhead(n <= 0): documented no-op — no register moves
			before := scs[0].Registers()
			for _, sc := range scs {
				sc.SkipAhead(0)
				sc.SkipAhead(-1 - rng.Intn(16))
			}
			if got := scs[0].Registers(); got != before {
				t.Fatalf("SkipAhead(<=0) moved reference registers %+v -> %+v", before, got)
			}
			checkRegisters("SkipAhead no-op")
		case 2: // single-byte Steps (the register-machine view, no outputs)
			// Steps leave matches unemitted, so the segment oracle no
			// longer applies: fold the stepped bytes into the *next*
			// segment boundary by restarting segment accounting after.
			checkSegment()
			for _, c := range randBakedPayload(rng, 1+rng.Intn(4)) {
				for _, sc := range scs {
					sc.Step(c)
				}
				checkRegisters("Step")
			}
			for _, sc := range scs {
				sc.Reset()
			}
			seg, segStart, segMark = seg[:0], 0, len(outs[0])
			checkRegisters("Reset after Step")
		default: // write a chunk (empty chunks included)
			chunk := randBakedPayload(rng, rng.Intn(80))
			seg = append(seg, chunk...)
			for bi, sc := range scs {
				outs[bi] = sc.ScanAppend(chunk, outs[bi])
			}
			checkRegisters("ScanAppend")
		}
	}
	checkSegment()

	// Scan must replay exactly the ScanAppend sequence on every backend.
	payload := randBakedPayload(rng, 200)
	scanOuts := make([][]ac.Match, len(scs))
	for bi, sc := range scs {
		sc.Reset()
		sc.Scan(payload, func(mt ac.Match) { scanOuts[bi] = append(scanOuts[bi], mt) })
	}
	for bi := 1; bi < len(scs); bi++ {
		if len(scanOuts[bi]) != len(scanOuts[0]) {
			t.Fatalf("Scan: %s %d matches, reference %d", names[bi], len(scanOuts[bi]), len(scanOuts[0]))
		}
		for i := range scanOuts[bi] {
			if scanOuts[bi][i] != scanOuts[0][i] {
				t.Fatalf("Scan: match %d %s %+v reference %+v", i, names[bi], scanOuts[bi][i], scanOuts[0][i])
			}
		}
	}
}

// TestScanEmitReentrancy: an emit callback that reenters the same
// scanner's Scan must not corrupt the outer replay — the baked path
// detaches its scratch buffer while iterating it.
func TestScanEmitReentrancy(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{{ID: 0, Data: []byte("ab")}}}
	m, err := Build(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewScanner()
	sc.Scan([]byte("abab"), func(ac.Match) {}) // grow the scratch buffer
	sc.Reset()
	var outer []ac.Match
	depth := 0
	sc.Scan([]byte("abab"), func(mt ac.Match) {
		outer = append(outer, mt)
		if depth == 0 {
			depth++
			// The inner scan continues the stream (two more matches the
			// outer callback also receives) and, crucially, recycles the
			// scanner's scratch storage.
			sc.Scan([]byte("abab"), func(ac.Match) {})
		}
	})
	want := []ac.Match{{PatternID: 0, End: 2}, {PatternID: 0, End: 4}}
	if len(outer) != len(want) {
		t.Fatalf("outer emit saw %d matches, want %d: %+v", len(outer), len(want), outer)
	}
	for i := range want {
		if outer[i] != want[i] {
			t.Fatalf("outer match %d = %+v, want %+v (scratch aliasing)", i, outer[i], want[i])
		}
	}
}

// TestProgramStats sanity-checks the layout report against the machine.
func TestProgramStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := randBakedSet(rng)
	m, err := Build(set, Options{DenseStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := m.prog.Stats()
	if st.States != m.NumStates() {
		t.Fatalf("States = %d, machine has %d", st.States, m.NumStates())
	}
	wantDense := 8
	if n := m.NumStates(); n < wantDense {
		wantDense = n
	}
	if st.DenseStates != wantDense {
		t.Fatalf("DenseStates = %d, want %d", st.DenseStates, wantDense)
	}
	var stored int
	trie := mustTrie(t, set)
	promoted := pickDense(trie, newFailTree(trie), 8)
	for s := range promoted {
		if !promoted[s] {
			stored += len(m.StoredRow(int32(s)))
		}
	}
	if st.StoredEntries != stored {
		t.Fatalf("StoredEntries = %d, want %d", st.StoredEntries, stored)
	}
	if st.TotalBytes != st.DenseBytes+st.StoredBytes+st.LookupBytes+st.OutputBytes {
		t.Fatal("TotalBytes does not add up")
	}
}

// TestFusedHistoryRoundTrip pins the sentinel encoding: every (h2, h1)
// register pair survives fuse/split, and unknown lanes can never compare
// equal to a key built from real bytes.
func TestFusedHistoryRoundTrip(t *testing.T) {
	vals := []int16{HistNone, 0, 1, 'a', 0xFE, 0xFF}
	for _, h2 := range vals {
		for _, h1 := range vals {
			g2, g1 := splitHist(fuseHist(h2, h1))
			if g2 != h2 || g1 != h1 {
				t.Fatalf("fuse/split (%d,%d) -> (%d,%d)", h2, h1, g2, g1)
			}
		}
	}
	for c := 0; c < 256; c++ {
		if fuseHist(HistNone, int16(c))>>histLaneBits == uint32(c) {
			t.Fatalf("unknown h2 lane collides with byte %#x", c)
		}
		if fuseHist(int16(c), HistNone)&histLaneMask == uint32(c) {
			t.Fatalf("unknown h1 lane collides with byte %#x", c)
		}
	}
}
