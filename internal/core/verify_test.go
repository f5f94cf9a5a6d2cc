package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// corruption is one row of the corruption table: a machine of ruleset set
// built under opts, then either mutated or proved against the trie of
// ruleset against, and the parts of Verify that refuse it.
type corruption struct {
	name, set string
	opts      Options
	mutate    func(t *testing.T, m *Machine, trie *ac.Trie)
	against   string
	refused   string // verifyParts names, space-separated
}

// The corruption table is the negative half of every proof, one table for
// all of Verify's parts, its rows grouped by the test that runs them. Each
// row names a ruleset, Options, a mutation and the parts that refuse it,
// and every row is held to one rule: a fresh build is word for word one
// that passed Verify (each ruleset and Options is proved once); the
// mutation changes a word of the machine's tables (or the machine meets
// another ruleset's trie); then Verify and exactly the named parts refuse
// it, every other part accepts it, and no part panics — each runs alone,
// so each proves the indexes it follows before it follows them.
func TestVerifyRefusesCorruption(t *testing.T)            { refuseCorruption(t) }
func TestVerifyProgramDetectsCorruption(t *testing.T)     { refuseCorruption(t) }
func TestVerifyProofsRefuseSharedCorruption(t *testing.T) { refuseCorruption(t) }
func TestVerifyRefusesOutOfRangeTargets(t *testing.T)     { refuseCorruption(t) }
func TestVerifyOutputsDetectsCorruption(t *testing.T)     { refuseCorruption(t) }
func TestVerifySupersetDetectsCorruption(t *testing.T)    { refuseCorruption(t) }
func TestVerifyFoldDetectsAWrongDepth(t *testing.T)       { refuseCorruption(t) }
func TestVerifyFoldDetectsAMissingFactor(t *testing.T)    { refuseCorruption(t) }

// provedBuilds holds the tables of each build Verify has passed, keyed by
// ruleset and Options, across the tests of the corruption table.
var provedBuilds = map[string]string{}

// refuseCorruption runs the corruption table's rows of the calling test.
func refuseCorruption(t *testing.T) {
	// A row's machine is the paper's toy or twenty Snort-like strings with
	// the fast tier cut to 64 rows: every kind of row, promoted or not, is
	// there to corrupt, at a fraction of a larger machine's proof time.
	sets := map[string]*ruleset.Set{"toy": toySet(), "snort": ruleset.MustGenerate(ruleset.GenConfig{N: 30, Seed: 81})}
	dense := map[string]int{"snort": 64}
	tries := map[string]*ac.Trie{}
	for name, set := range sets {
		tries[name] = mustTrie(t, set)
	}
	const far = maxStates - 1
	// Both loop proofs step through what both loops read; verifyRanges,
	// which every part that runs a loop begins with, refuses a broken index.
	loops := "verifyTransitions verifyProgram"
	ranges := loops + " verifyScan verifyFold"
	// wideRow finds a fast row holding two different overrides in one
	// bitmap word, that word, and where the word's overrides start.
	wideRow := func(t *testing.T, m *Machine) (*fastRow, int, uint32) {
		for i := range m.fast {
			r := &m.fast[i]
			for w, word := range r.bits {
				at := r.base + uint32(r.cum[w])
				if bits.OnesCount64(word) >= 2 && m.over[at] != m.over[at+1] {
					return r, w, at
				}
			}
		}
		t.Fatal("no fast row overrides two bytes of one word differently")
		return nil, 0, 0
	}
	clearedBit := func(t *testing.T, m *Machine, _ *ac.Trie) {
		r, w, _ := wideRow(t, m)
		r.bits[w] &= r.bits[w] - 1
	}
	table := map[string][]corruption{
		"TestVerifyProgramDetectsCorruption": {
			{name: "fast row bit cleared", set: "snort", mutate: clearedBit, refused: ranges},
			{name: "fast row bit spurious", set: "snort", refused: ranges, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				r, w, _ := wideRow(t, m)
				r.bits[w] |= 1 << bits.TrailingZeros64(^r.bits[w])
			}},
			{name: "fast row overrides swapped", set: "snort", refused: "verifyProgram", mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				_, _, at := wideRow(t, m)
				m.over[at], m.over[at+1] = m.over[at+1], m.over[at]
			}},
			{name: "fast row base bumped", set: "snort", refused: ranges, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				r, _, _ := wideRow(t, m)
				r.base++
			}},
			// In the last row that overrides a byte of word 3: its last
			// override, moved one on, is the next row's first.
			{name: "fast row cum off by one in word 3", set: "snort", refused: ranges, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				for i := len(m.fast) - 1; i >= 0; i-- {
					if r := &m.fast[i]; r.bits[3] != 0 {
						r.cum[3]++
						return
					}
				}
				t.Fatal("no fast row overrides a byte of word 3")
			}},
			{name: "fast row override is the default", set: "snort", refused: "verifyProgram", mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				r, w, at := wideRow(t, m)
				m.over[at] = m.lut.d1[w<<6|bits.TrailingZeros64(r.bits[w])]
			}},
			{name: "fast row shared", set: "snort", refused: "verifyProgram", mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				*descriptor(t, m.rows, func(ref uint32) bool { return ref > rowDense }) -= 1
			}},
			// A slot a compressed state's move takes, its key one byte off: the
			// state falls through to d1. The key is also read back through
			// LookupRow, so its path is wrong too.
			{name: "depth-2 key", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, trie *ac.Trie) {
				*d2SlotTaken(t, m, trie) ^= 1 << pointerToBits
			}},
			// Every part refuses a trie of another ruleset, smaller or larger.
			{name: "another ruleset's trie", set: "snort", against: "toy", refused: "verifyOutputs verifySuperset " + ranges},
		},
		"TestVerifyProofsRefuseSharedCorruption": {
			{name: "arena row count", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				*descriptor(t, m.rows, isArenaRow) -= 1 << rowCountShift
			}},
			{name: "arena pointer target", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				retarget((*uint32)(&m.stored[*descriptor(t, m.rows, isArenaRow)&rowOffMask]), m.NumStates())
			}},
			{name: "one-pointer row character", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				ref := descriptor(t, m.rows, isInlineRow)
				*ref = uint32(newPointer(Pointer(*ref).Char()^1, Pointer(*ref).To()))
			}},
			{name: "one-pointer row target", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				retarget(descriptor(t, m.rows, isInlineRow), m.NumStates())
			}},
			{name: "depth-2 target", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, trie *ac.Trie) {
				slot := d2SlotTaken(t, m, trie)
				*slot = *slot&^(maxStates-1) | uint32(d2To(*slot)+1)%uint32(m.NumStates())
			}},
		},
		"TestVerifyRefusesOutOfRangeTargets": {
			// A target far past the last state, in every table a loop follows,
			// is an error, never an index past the end of a table.
			{name: "far arena pointer", set: "snort", refused: ranges, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				m.stored[0] = newPointer(m.stored[0].Char(), far)
			}},
			{name: "far one-pointer row", set: "snort", refused: ranges, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				ref := descriptor(t, m.rows, isInlineRow)
				*ref = uint32(newPointer(Pointer(*ref).Char(), far))
			}},
			{name: "far fast-row override", set: "snort", refused: ranges, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.over[0] = far }},
			{name: "far depth-1 default", set: "snort", refused: ranges, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.lut.d1['e'] = far }},
			{name: "far depth-2 default", set: "snort", refused: ranges, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.lut.d2['e'][0] |= far }},
			{name: "far depth-3 default", set: "snort", refused: ranges, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				m.lut.d3['e'] = m.lut.d3['e']&^0xFFFFFFFF | far
			}},
		},
		"TestVerifyOutputsDetectsCorruption": {
			{name: "a larger ruleset's trie", set: "toy", against: "snort", refused: "verifyOutputs verifySuperset " + ranges},
		},
		"TestVerifySupersetDetectsCorruption": {
			{name: "prefilter suspect flags erased", set: "snort", refused: "verifySuperset", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				for i, e := range m.pre.tab {
					if e == pfSuspect {
						m.pre.tab[i] = 0
					}
				}
			}},
			// A non-suspect entry one past the last stored row would send the
			// skim loop out of the table.
			{name: "prefilter entry past the table", set: "snort", refused: ranges + " verifySuperset", mutate: func(_ *testing.T, m *Machine, trie *ac.Trie) {
				m.pre.tab[m.pre.class[trie.Nodes[1].Char]] = uint8(len(m.pre.tab) >> pfStrideBits)
			}},
		},
		"TestVerifyFoldDetectsAWrongDepth": {
			{name: "fold one byte short", set: "snort", refused: "verifyFold", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.depth-- }},
		},
		"TestVerifyFoldDetectsAMissingFactor": {
			// The bit of a 3-byte window from the middle of the longest
			// pattern: a piece that opens one byte into that pattern ends its
			// prefix at the window and resumes without the pattern's match.
			{name: "window filter misses a factor", set: "snort", refused: "verifyFold", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				mid := longestPattern(sets["snort"])[m.depth/2:]
				w, bit := m.windows.slot(mid[0], mid[1], mid[2])
				m.windows.bits[w] &^= bit
			}},
		},
		"TestVerifyRefusesCorruption": {
			{name: "fast row bit cleared, reference-pinned", set: "snort", opts: Options{Backend: BackendReference}, mutate: clearedBit, refused: ranges},
			{name: "displaced arena row count", set: "snort", refused: loops, mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				*descriptor(t, m.displaced, isArenaRow) -= 1 << rowCountShift
			}},
			// The baked loop never reads displaced: only the reference loop's
			// proof sees a displaced target.
			{name: "displaced one-pointer target", set: "snort", refused: "verifyTransitions", mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				retarget(descriptor(t, m.displaced, isInlineRow), m.NumStates())
			}},
			// A depth-3 key off its state's path — row s's default "his"
			// re-keyed to "xy", or a row's key with its low bit flipped — is not
			// the path LookupRow spells, and the reference loop loses the
			// default where the path needed it. The baked loop reads a depth-3
			// default only from a compressed state, and no compressed state
			// here takes these.
			{name: "depth-3 key off its path", set: "toy", refused: "verifyTransitions", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				m.lut.d3['s'] = (uint64('x')<<histLaneBits|uint64('y'))<<32 | m.lut.d3['s']&0xFFFFFFFF
			}},
			{name: "depth-3 key low bit", set: "snort", refused: "verifyTransitions", mutate: func(t *testing.T, m *Machine, _ *ac.Trie) {
				c := slices.IndexFunc(m.lut.d3[:], func(e uint64) bool { return e != emptyD3Key })
				if c < 0 {
					t.Fatal("no lookup row has a depth-3 default")
				}
				m.lut.d3[c] ^= 1 << 32
			}},
			// In a row with no depth-3 default, one keyed on two bytes no
			// pattern holds: no state's static history is that key, so neither
			// loop proof takes it, but a stream at the start state after those
			// two bytes would.
			{name: "depth-3 key no state spells", set: "snort", refused: "verifyTransitions", mutate: func(t *testing.T, m *Machine, trie *ac.Trie) {
				var held [256]bool
				for _, nd := range trie.Nodes[1:] {
					held[nd.Char] = true
				}
				x, c := slices.Index(held[:], false), slices.Index(m.lut.d3[:], emptyD3Key)
				if x < 0 || c < 0 {
					t.Fatal("every byte is in a pattern, or every lookup row has a depth-3 default")
				}
				m.lut.d3[c] = uint64(x)<<(32+histLaneBits) | uint64(x)<<32 | 1
			}},
			// A middle word's prefix count one high: every rank stays inside
			// the table, so only the output proof sees the lists move.
			{name: "output rank word", set: "snort", refused: "verifyOutputs", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.out.rank[1]++ }},
			// The class of the first byte of state 1, a pattern's first byte.
			{name: "prefilter first byte in class 0", set: "snort", refused: "verifySuperset", mutate: func(_ *testing.T, m *Machine, trie *ac.Trie) {
				m.pre.class[trie.Nodes[1].Char] = 0
			}},
			{name: "prefilter first byte in another class", set: "snort", refused: "verifySuperset", mutate: func(_ *testing.T, m *Machine, trie *ac.Trie) {
				c := &m.pre.class[trie.Nodes[1].Char]
				*c = *c%uint8(m.pre.nClasses-1) + 1
			}},
			{name: "window filter cleared", set: "snort", refused: "verifyFold", mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
				clear(m.windows.bits)
			}},
		},
	}
	// A depth count one state off would let a skim resume from a byte its
	// state's path does not start at. One high at depth 0 or 1, the
	// prefiltered resume of a fold goes wrong too.
	for k := range prefK {
		for _, delta := range []int32{-1, 1} {
			refused := "verifySuperset"
			if delta > 0 && k < 2 {
				refused += " verifyFold"
			}
			table["TestVerifySupersetDetectsCorruption"] = append(table["TestVerifySupersetDetectsCorruption"], corruption{name: fmt.Sprintf("prefilter shallow[%d] %+d", k, delta), set: "snort", refused: refused,
				mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) { m.pre.shallow[k] += delta }})
		}
	}
	// The match memory, whichever backend the machine was built for. The
	// ID words are picked by content, not position: multi is the first
	// word without the last flag, so it and the next word are one list of
	// two or more IDs (the toy's she {0, 1}), and last is the first word
	// that ends a list. The toy's states fill one bitset word, so a stray
	// bit or a prefix count one high ranks its last output state past the
	// table's slots.
	flagged := func(m *Machine, last bool) int {
		return slices.IndexFunc(m.out.ids, func(id uint32) bool { return id&LastMatch != 0 == last })
	}
	for _, backend := range []string{BackendAuto, BackendReference} {
		for _, c := range []struct {
			name, refused string
			mutate        func(o *outputTable, multi, last int)
		}{
			{"swapped IDs", "", func(o *outputTable, i, _ int) { o.ids[i], o.ids[i+1] = o.ids[i+1], o.ids[i] }},
			{"clear bit", "", func(o *outputTable, _, _ int) { o.bits[0] &= o.bits[0] - 1 }},
			{"stray bit", ranges, func(o *outputTable, _, _ int) { o.bits[0] |= 1 }},
			{"prefix count", ranges, func(o *outputTable, _, _ int) { o.rank[0]++ }},
			{"shifted slot", "", func(o *outputTable, _, _ int) { o.off[1]++ }},
			{"trailing slot", "", func(o *outputTable, _, _ int) { o.off = append(o.off, o.off[len(o.off)-1]) }},
			{"missing last flag", "", func(o *outputTable, _, last int) { o.ids[last] &^= LastMatch }},
			{"extra last flag", "", func(o *outputTable, multi, _ int) { o.ids[multi] |= LastMatch }},
			{"another's list", "", func(o *outputTable, _, _ int) { o.off[1] = o.off[0] }},
		} {
			table["TestVerifyOutputsDetectsCorruption"] = append(table["TestVerifyOutputsDetectsCorruption"], corruption{name: fmt.Sprintf("output %s, %s", c.name, backend), set: "toy", opts: Options{Backend: backend},
				refused: "verifyOutputs " + c.refused, mutate: func(_ *testing.T, m *Machine, _ *ac.Trie) {
					c.mutate(&m.out, flagged(m, false), flagged(m, true))
				}})
		}
	}
	names := map[string]bool{}
	for _, part := range verifyParts {
		names[part.name] = true
	}
	rows := table[t.Name()]
	if len(rows) == 0 {
		t.Fatal("the corruption table has no rows for this test")
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			opts.denseStates = dense[row.set]
			m, trie := mustBuild(t, sets[row.set], opts), tries[row.set]
			before, build := tableWords(m), fmt.Sprint(row.set, opts)
			if provedBuilds[build] == "" {
				if err := m.Verify(trie, nil); err != nil {
					t.Fatal(err)
				}
				provedBuilds[build] = before
			} else if before != provedBuilds[build] {
				t.Fatal("a fresh build differs from the one Verify passed")
			}
			if row.against != "" {
				trie = tries[row.against]
			} else if row.mutate(t, m, trie); tableWords(m) == before {
				t.Fatal("the mutation changed no word")
			}
			refuses := func(part string, prove func(*Machine, *ac.Trie, [][]byte) error) (refused bool) {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panicked: %v", part, r)
					}
				}()
				return prove(m, trie, nil) != nil
			}
			if !refuses("Verify", (*Machine).Verify) {
				t.Error("Verify accepted the machine")
			}
			named := strings.Fields(row.refused)
			for _, part := range named {
				if !names[part] {
					t.Fatalf("Verify has no part %s", part)
				}
			}
			for _, part := range verifyParts {
				if got, want := refuses(part.name, part.prove), slices.Contains(named, part.name); got != want {
					t.Errorf("%s refuses it: %v, want %v", part.name, got, want)
				}
			}
		})
	}
}

// TestVerifyProvesEveryBuildsBakedLoop: every build bakes, whatever backend
// it pins, so Verify proves the baked loop of a reference-pinned machine
// too; TestVerifyRefusesCorruption's reference-pinned row shows it refuses
// one with a fast-row bit cleared.
func TestVerifyProvesEveryBuildsBakedLoop(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	m := mustBuild(t, set, Options{Backend: BackendReference})
	if len(m.fast) == 0 {
		t.Fatal("a reference-pinned build baked no fast tier")
	}
	if err := m.Verify(mustTrie(t, set), nil); err != nil {
		t.Fatal(err)
	}
}

// tableWords spells every table the machine's loops and proofs read.
func tableWords(m *Machine) string {
	var pre any
	if m.pre != nil {
		pre = []any{m.pre.class, m.pre.tab, m.pre.shallow}
	}
	return fmt.Sprint(m.lut, m.stored, m.rows, m.displaced, m.fast, m.over, m.out, m.depth, m.windows, pre)
}

// descriptor is the first stored-row descriptor in descs that is, failing
// the test when none is.
func descriptor(t *testing.T, descs []uint32, is func(uint32) bool) *uint32 {
	t.Helper()
	if i := slices.IndexFunc(descs, is); i >= 0 {
		return &descs[i]
	}
	t.Fatal("no row descriptor fits the case")
	return nil
}

// isArenaRow and isInlineRow tell a compressed state's descriptor of an
// arena row from that of a one-pointer row.
func isArenaRow(ref uint32) bool  { return ref < rowInline && ref>>rowCountShift != 0 }
func isInlineRow(ref uint32) bool { return ref >= rowInline && ref < rowDense }

// retarget moves the pointer at p on to the next of n states.
func retarget(p *uint32, n int) {
	*p = uint32(newPointer(Pointer(*p).Char(), (Pointer(*p).To()+1)%int32(n)))
}

// d2SlotTaken finds a depth-2 slot the move of a state the fast tier does
// not hold takes: on a byte the state stores no pointer for and the
// depth-3 default does not match its static history.
func d2SlotTaken(t *testing.T, m *Machine, trie *ac.Trie) *uint32 {
	for s := int32(0); s < int32(m.NumStates()); s++ {
		if m.rows[s] >= rowDense || trie.Nodes[s].Depth < 2 {
			continue
		}
		hist := fuseHist(staticHistory(trie, s))
		for c := 0; c < 256; c++ {
			if m.StoredAt(s, byte(c)) != ac.None || uint32(m.lut.d3[c]>>32) == hist {
				continue
			}
			for i, e := range m.lut.d2[c] {
				if e>>pointerToBits == hist&histLaneMask {
					return &m.lut.d2[c][i]
				}
			}
		}
	}
	t.Fatal("no compressed state's move takes a depth-2 default")
	return nil
}
