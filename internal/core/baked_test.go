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
// lockstep (driveLockstep) over random machines at every fast-tier shape,
// on random payloads and op sequences.
func TestBakedEquivalenceProperty(t *testing.T) {
	configs := []Options{
		{},
		{denseStates: 1},       // the start state alone on the fast tier
		{denseStates: 2},       // the start state and one depth-1 state
		{denseStates: 8},       // the depth-1 tier cut short
		{denseStates: 32},      // depth-1 states and the most popular deeper ones
		{denseStates: -1},      // compressed tier only
		{denseStates: 3},       // nearly everything on the CSR path
		{denseStates: 1 << 20}, // pure flat DFA
	}
	for ci, opts := range configs {
		opts := opts
		t.Run(fmt.Sprintf("config-%d", ci), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for trial := 0; trial < 20; trial++ {
				set := randBakedSet(rng)
				m := mustBuild(t, set, opts)
				if got, want := m.Backends(), RegisteredBackends(); len(got) != len(want) {
					t.Fatalf("trial %d: machine offers backends %v, registry has %v", trial, got, want)
				}
				payload, ops := lockstepInput(rng)
				driveLockstep(t, m, mustTrie(t, set), payload, ops)
			}
		})
	}
}

// lockstepInput draws a payload and an op sequence for driveLockstep from
// rng.
func lockstepInput(rng *rand.Rand) (payload, ops []byte) {
	ops = make([]byte, 3+rng.Intn(24))
	rng.Read(ops)
	return randBakedPayload(rng, 256), ops
}

// FuzzBackendEquivalence is the backends' contract under fuzz: on a
// fuzz-chosen ruleset, payload and op sequence, the machine passes Verify
// with the payload, lays out the tables a reference-pinned build does, and
// runs reference, baked and prefiltered in lockstep (driveLockstep). The
// ruleset is up to 8 distinct patterns, each a length byte (1–12 bytes)
// then its content; the first op byte also picks the fast tier's budget —
// the default, none, or 6 rows with most states compressed — so every tier
// combination is driven. Its seeds are its corpus in testdata/fuzz.
func FuzzBackendEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, patBlob, payload, ops []byte) {
		var patterns [][]byte
		for len(patBlob) > 1 {
			l := min(int(patBlob[0])%12+1, len(patBlob)-1)
			patterns, patBlob = append(patterns, patBlob[1:1+l]), patBlob[1+l:]
		}
		set := setOf(patterns, false)
		if set.Patterns = set.Patterns[:min(set.Len(), 8)]; set.Len() == 0 {
			t.Skip("no patterns")
		}
		var opts Options
		if len(ops) > 0 {
			opts.denseStates = []int{0, -1, 6}[ops[0]%3]
		}
		m, trie := mustBuild(t, set, opts), mustTrie(t, set)
		if got := m.Backends(); len(got) != len(scanBackends) {
			t.Fatalf("the machine offers backends %v, the registry has %v", got, RegisteredBackends())
		}
		// The backend picks the loop, not the tables: a pinned build bakes too.
		opts.Backend = BackendReference
		if ref := mustBuild(t, set, opts); ref.Layout() != m.Layout() {
			t.Fatalf("a reference-pinned build lays out %+v, the default %+v", ref.Layout(), m.Layout())
		}
		if err := m.Verify(trie, [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
		driveLockstep(t, m, trie, payload, ops)
	})
}

// driveLockstep runs the op sequence ops over one stream's Regs per backend
// the machine offers, diffing registers and match streams after every op.
// The first backend is always the reference interpreter; the others are
// held to its behavior, and its matches to oracle's, the uncompressed
// automaton of the machine's ruleset. An op's low three bits pick it:
//
//   - 0: Reset.
//   - 1: SkipAhead(op>>3+1), after checking that SkipAhead(0) and
//     SkipAhead(−(op>>3+1)) move no register.
//   - 4: fork — every stream's register value is copied and the copy fed
//     scrap, so a stream that shared anything with its copy would diverge.
//   - anything else: the next op>>2 bytes of payload, cycling, scanned as
//     one chunk, or a byte at a time with registers compared after each
//     when it is at most 4 bytes.
func driveLockstep(t *testing.T, m *Machine, oracle *ac.Trie, payload, ops []byte) {
	t.Helper()
	names, kinds := m.Backends(), m.kinds()
	regs := make([]Regs, len(kinds))
	for i := range regs {
		regs[i].Reset()
	}
	outs := make([][]ac.Match, len(kinds))

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
	checked := 0 // matches already compared: a stream's matches are only appended
	checkRegisters := func(op string) {
		t.Helper()
		for bi := 1; bi < len(regs); bi++ {
			// The whole per-stream value is the same on every backend, so no
			// backend keeps state the others do not.
			if regs[bi] != regs[0] {
				t.Fatalf("%s: %s Regs %+v != reference %+v", op, names[bi], regs[bi], regs[0])
			}
			if len(outs[bi]) != len(outs[0]) {
				t.Fatalf("%s: %s emitted %d matches, reference %d", op, names[bi], len(outs[bi]), len(outs[0]))
			}
			for i := checked; i < len(outs[bi]); i++ {
				if outs[bi][i] != outs[0][i] {
					t.Fatalf("%s: match %d %s %+v reference %+v", op, i, names[bi], outs[bi][i], outs[0][i])
				}
			}
		}
		checked = len(outs[0])
	}
	scan := func(op string, data []byte) {
		t.Helper()
		for bi, k := range kinds {
			outs[bi] = m.scanAs(k, &regs[bi], data, outs[bi])
		}
		checkRegisters(op)
	}

	off := 0 // cycling read offset into payload
	for _, op := range ops {
		switch op % 8 {
		case 0: // Reset: segment ends, stream position restarts
			checkSegment()
			for bi := range regs {
				regs[bi].Reset()
			}
			seg, segStart, segMark = seg[:0], 0, len(outs[0])
			checkRegisters("Reset")
		case 1: // SkipAhead: segment ends, position advances over unseen bytes
			n := int(op>>3) + 1
			before := regs[0]
			for bi := range regs {
				regs[bi].SkipAhead(0) // n <= 0 is a documented no-op
				regs[bi].SkipAhead(-n)
			}
			if regs[0] != before {
				t.Fatalf("SkipAhead(<=0) moved reference registers %+v -> %+v", before, regs[0])
			}
			checkRegisters("SkipAhead no-op")
			checkSegment()
			for bi := range regs {
				regs[bi].SkipAhead(n)
			}
			seg, segStart, segMark = seg[:0], regs[0].Pos(), len(outs[0])
			checkRegisters("SkipAhead")
		case 4: // fork: each backend's copy is fed a different scrap
			for bi, k := range kinds {
				scribbled := regs[bi]
				m.scanAs(k, &scribbled, payload[min(bi, len(payload)):], nil)
			}
			checkRegisters("fork")
		default: // a chunk of payload, possibly empty
			var chunk []byte
			for ; len(payload) > 0 && len(chunk) < int(op>>2); off = (off + 1) % len(payload) {
				chunk = append(chunk, payload[off])
			}
			seg = append(seg, chunk...)
			if len(chunk) == 0 || len(chunk) > 4 {
				scan("chunk", chunk)
				continue
			}
			for i := range chunk {
				scan("one-byte scan", chunk[i:i+1])
			}
		}
	}
	checkSegment()
}

// TestLayoutStats sanity-checks the layout report against the machine.
func TestLayoutStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := randBakedSet(rng)
	m, err := Build(set, Options{denseStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Layout()
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
// register pair survives fusing, one lane each, a byte shifted in as the
// scan loops shift it makes the pair (h1, byte), and unknown lanes can
// never compare equal to a key built from real bytes.
func TestFusedHistoryRoundTrip(t *testing.T) {
	lane := func(h int16) uint32 {
		if h == HistNone {
			return histUnknownLane
		}
		return uint32(h)
	}
	vals := []int16{HistNone, 0, 1, 'a', 0xFE, 0xFF}
	for _, h2 := range vals {
		for _, h1 := range vals {
			hist := fuseHist(h2, h1)
			if hist>>histLaneBits != lane(h2) || hist&histLaneMask != lane(h1) {
				t.Fatalf("fuse (%d,%d) -> lanes %#x, %#x", h2, h1, hist>>histLaneBits, hist&histLaneMask)
			}
			for _, c := range []int16{0, 'a', 0xFF} {
				if got := (hist<<histLaneBits | uint32(c)) & histMask; got != fuseHist(h1, c) {
					t.Fatalf("shifting %#x into (%d,%d) gives %#x, want (%d,%d)", c, h2, h1, got, h1, c)
				}
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
