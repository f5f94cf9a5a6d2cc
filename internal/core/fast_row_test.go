package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// TestVerifyProgramProperty: at the paper's ruleset sizes the kernel's own
// step agrees with the full DFA on every (state, byte), whatever share of
// the states the fast tier holds. The random machines of
// FuzzBuildEquivalence, TestSparseBuildMatchesDenseOracle and
// FuzzBackendEquivalence are held to the same proof where they are built.
func TestVerifyProgramProperty(t *testing.T) {
	for _, n := range []int{634, 1204, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		trie := mustTrie(t, set)
		for _, dense := range []int{-1, 0, 16, 1 << 30} {
			t.Run(fmt.Sprintf("%d/dense=%d", n, dense), func(t *testing.T) {
				m := mustBuild(t, set, Options{denseStates: dense})
				if err := m.verifyProgram(trie); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestVerifyProgramDetectsCorruption: the proof must be able to fail, and
// Verify with it, without panicking. The ruleset has more states than the
// fast tier holds, so both kinds of row are there to corrupt. A fast row's
// cum bytes are range-checked, and a depth-2 slot's key read back through
// LookupRow, before either loop runs, so verifyTransitions must refuse
// those cases too. The oracle is a trie of the ruleset the machine never
// saw, and one of another ruleset is refused.
func TestVerifyProgramDetectsCorruption(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	trie := mustTrie(t, set)
	// wideRow finds a fast row holding two different overrides in one
	// bitmap word, that word, and where the word's overrides start.
	wideRow := func(m *Machine) (*fastRow, int, uint32) {
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
	cases := map[string]func(m *Machine){
		"cleared bit": func(m *Machine) {
			r, w, _ := wideRow(m)
			r.bits[w] &= r.bits[w] - 1
		},
		"spurious bit": func(m *Machine) {
			r, w, _ := wideRow(m)
			r.bits[w] |= 1 << bits.TrailingZeros64(^r.bits[w])
		},
		"swapped overrides": func(m *Machine) {
			_, _, at := wideRow(m)
			m.over[at], m.over[at+1] = m.over[at+1], m.over[at]
		},
		"bumped base": func(m *Machine) {
			r, _, _ := wideRow(m)
			r.base++
		},
		// In the last row that overrides a byte of word 3: its last
		// override, moved one on, is the next row's first.
		"cum off by one in word 3": func(m *Machine) {
			for i := len(m.fast) - 1; i >= 0; i-- {
				if r := &m.fast[i]; r.bits[3] != 0 {
					r.cum[3]++
					return
				}
			}
			t.Fatal("no fast row overrides a byte of word 3")
		},
		"default as override": func(m *Machine) {
			r, w, at := wideRow(m)
			m.over[at] = m.lut.d1[w<<6|bits.TrailingZeros64(r.bits[w])]
		},
		// A slot a compressed state's move takes, its key one byte off:
		// the state falls through to d1.
		"depth-2 key": func(m *Machine) {
			slot := d2SlotTaken(m, trie)
			if slot == nil {
				t.Fatal("no compressed state's move takes a depth-2 default")
			}
			*slot ^= 1 << pointerToBits
		},
		"shared fast row": func(m *Machine) {
			for s, ref := range m.rows {
				if ref > rowDense {
					m.rows[s]--
					return
				}
			}
		},
		"descriptor count": func(m *Machine) {
			for s, ref := range m.rows {
				if ref < rowInline && ref>>rowCountShift != 0 {
					m.rows[s] -= 1 << rowCountShift
					return
				}
			}
			t.Fatal("no compressed state keeps an arena row")
		},
	}
	proofs := map[string]func(m *Machine) error{
		"Verify":            func(m *Machine) error { return m.Verify(trie, nil) },
		"verifyTransitions": func(m *Machine) error { return m.verifyTransitions(trie) },
		"verifyProgram":     func(m *Machine) error { return m.verifyProgram(trie) },
	}
	everyProof := map[string]bool{"cum off by one in word 3": true, "depth-2 key": true}
	for name, corrupt := range cases {
		m := mustBuild(t, set, Options{})
		if err := m.Verify(trie, nil); err != nil {
			t.Fatal(err)
		}
		corrupt(m)
		for proof, run := range proofs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: %s panicked: %v", name, proof, r)
					}
				}()
				if err := run(m); err == nil && (proof != "verifyTransitions" || everyProof[name]) {
					t.Errorf("%s: %s accepted the corrupted kernel tables", name, proof)
				}
			}()
		}
	}
	if err := mustBuild(t, set, Options{}).verifyProgram(mustTrie(t, toySet())); err == nil {
		t.Error("a kernel was proved against another ruleset's trie")
	}
}

// TestVerifyProvesEveryBuildsBakedLoop: every build bakes, whatever backend
// it pins, so Verify proves the baked loop of a reference-pinned machine too
// and refuses one whose fast tier has one bitmap bit cleared.
func TestVerifyProvesEveryBuildsBakedLoop(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	trie := mustTrie(t, set)
	m := mustBuild(t, set, Options{Backend: BackendReference})
	if err := m.Verify(trie, nil); err != nil {
		t.Fatal(err)
	}
	for i := range m.fast {
		if r := &m.fast[i]; r.bits != [4]uint64{} {
			for w := range r.bits {
				if r.bits[w] != 0 {
					r.bits[w] &= r.bits[w] - 1
					break
				}
			}
			if err := m.Verify(trie, nil); err == nil {
				t.Fatalf("Verify accepted a reference-pinned machine with fast row %d corrupted", i)
			}
			return
		}
	}
	t.Fatal("no fast row overrides the depth-1 default row")
}

// TestVerifyProofsRefuseSharedCorruption: both loop proofs must refuse a
// corruption of what both interpreters read, on a state the fast tier does
// not hold — the target of one pointer in the shared arena, the length of
// one arena row, the character and the target of one pointer a one-pointer
// row keeps in its descriptor — and the target of one depth-2 default in
// the shared lookup table, on a slot a compressed state's move takes.
func TestVerifyProofsRefuseSharedCorruption(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 400, Seed: 2010})
	trie := mustTrie(t, set)
	// arenaRow and inlineRow find the descriptor of a compressed state's
	// arena row and of its one-pointer row.
	arenaRow := func(m *Machine) *uint32 {
		for s, ref := range m.rows {
			if ref < rowInline && ref>>rowCountShift != 0 {
				return &m.rows[s]
			}
		}
		return nil
	}
	inlineRow := func(m *Machine) *uint32 {
		for s, ref := range m.rows {
			if ref >= rowInline && ref < rowDense {
				return &m.rows[s]
			}
		}
		return nil
	}
	cases := map[string]func(m *Machine) bool{
		"arena pointer target": func(m *Machine) bool {
			ref := arenaRow(m)
			if ref == nil {
				return false
			}
			p := &m.stored[*ref&rowOffMask]
			*p = newPointer(p.Char(), (p.To()+1)%int32(m.NumStates()))
			return true
		},
		"arena row length": func(m *Machine) bool {
			ref := arenaRow(m)
			if ref == nil {
				return false
			}
			*ref -= 1 << rowCountShift
			return true
		},
		"inline pointer character": func(m *Machine) bool {
			ref := inlineRow(m)
			if ref == nil {
				return false
			}
			p := Pointer(*ref)
			*ref = uint32(newPointer(p.Char()^1, p.To()))
			return true
		},
		"inline pointer target": func(m *Machine) bool {
			ref := inlineRow(m)
			if ref == nil {
				return false
			}
			p := Pointer(*ref)
			*ref = uint32(newPointer(p.Char(), (p.To()+1)%int32(m.NumStates())))
			return true
		},
		"depth-2 default": func(m *Machine) bool {
			slot := d2SlotTaken(m, trie)
			if slot == nil {
				return false
			}
			*slot = *slot&^(maxStates-1) | uint32(d2To(*slot)+1)%uint32(m.NumStates())
			return true
		},
	}
	for name, corrupt := range cases {
		m := mustBuild(t, set, Options{})
		if !corrupt(m) {
			t.Fatalf("%s: nothing to corrupt", name)
		}
		if err := m.verifyTransitions(trie); err == nil {
			t.Errorf("%s: verifyTransitions accepted the corrupted machine", name)
		}
		if err := m.verifyProgram(trie); err == nil {
			t.Errorf("%s: verifyProgram accepted the corrupted machine", name)
		}
	}
}

// TestVerifyRefusesOutOfRangeTargets: a target far past the last state, in
// any table a scan loop follows — an arena pointer, a one-pointer row's
// descriptor, a fast-row override, a d1, d2 or d3 default — is an error
// from Verify and from both loop proofs on their own, never an index past
// the end of a table inside one of their loops.
func TestVerifyRefusesOutOfRangeTargets(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 200, Seed: 2010})
	trie := mustTrie(t, set)
	const far = maxStates - 1
	cases := map[string]func(m *Machine){
		"arena pointer": func(m *Machine) { m.stored[0] = newPointer(m.stored[0].Char(), far) },
		"inline pointer": func(m *Machine) {
			for s, ref := range m.rows {
				if ref >= rowInline && ref < rowDense {
					m.rows[s] = uint32(newPointer(Pointer(ref).Char(), far))
					return
				}
			}
			t.Fatal("no compressed state keeps a one-pointer row")
		},
		"fast-row override": func(m *Machine) { m.over[0] = far },
		"depth-1 default":   func(m *Machine) { m.lut.d1['e'] = far },
		"depth-2 default":   func(m *Machine) { m.lut.d2['e'][0] |= far },
		"depth-3 default":   func(m *Machine) { m.lut.d3['e'] = m.lut.d3['e']&^0xFFFFFFFF | far },
	}
	proofs := map[string]func(m *Machine) error{
		"Verify":            func(m *Machine) error { return m.Verify(trie, nil) },
		"verifyTransitions": func(m *Machine) error { return m.verifyTransitions(trie) },
		"verifyProgram":     func(m *Machine) error { return m.verifyProgram(trie) },
	}
	for name, corrupt := range cases {
		for proof, run := range proofs {
			m := mustBuild(t, set, Options{})
			corrupt(m)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: %s panicked: %v", name, proof, r)
					}
				}()
				if err := run(m); err == nil {
					t.Errorf("%s: %s accepted a target of state %d in a %d-state machine", name, proof, far, m.NumStates())
				}
			}()
		}
	}
}

// d2SlotTaken finds a depth-2 slot the move of a state the fast tier does
// not hold takes: on a byte the state stores no pointer for and the
// depth-3 default does not match its static history.
func d2SlotTaken(m *Machine, trie *ac.Trie) *uint32 {
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
	return nil
}

// TestFastRowWordEdges is the hand-made case for the bitmap arithmetic: the
// depth-1 state 'a' overrides the first and last byte of each of the four
// bitmap words — rank 0 and the last rank of the row, a set bit 0 (nothing
// below it to count) and a set bit 63 (everything below it) in every word.
// The depth-2 state "ba" falls back to it and, promoted, inherits the eight,
// replaces the one at 0x40 with its own deeper target and adds 0x41 between
// two inherited ones, which shifts the ranks behind it. The run of d's makes
// the machine larger than the middle budget, so that one is a real choice.
func TestFastRowWordEdges(t *testing.T) {
	edges := []byte{0x00, 0x3F, 0x40, 0x7F, 0x80, 0xBF, 0xC0, 0xFF}
	var patterns [][]byte
	for _, x := range edges {
		patterns = append(patterns, []byte{'a', x})
	}
	patterns = append(patterns, []byte{'b', 'a', 0x40, 'c'}, []byte{'b', 'a', 0x41}, []byte("dddddddddddd"))
	set := setOf(patterns, false)

	// Every edge byte and both its neighbours after 'a' and after "ba".
	var payload []byte
	for _, prefix := range []string{"a", "ba"} {
		for _, x := range edges {
			for _, c := range []byte{x - 1, x, x + 1} {
				payload = append(append(payload, prefix...), c, 'c')
			}
		}
	}

	states := 1 + set.CharCount()
	for _, dense := range []int{-1, 16, states} {
		m, trie := mustBuild(t, set, Options{denseStates: dense}), mustTrie(t, set)
		if err := m.verifyProgram(trie); err != nil {
			t.Fatalf("dense=%d: %v", dense, err)
		}
		if err := m.verifyScan(trie, [][]byte{payload}); err != nil {
			t.Fatalf("dense=%d: %v", dense, err)
		}
		rng := rand.New(rand.NewSource(int64(dense)))
		for trial := 0; trial < 20; trial++ {
			_, ops := lockstepInput(rng) // the edge bytes, not random ones
			driveLockstep(t, m, trie, payload, ops)
		}
		if dense < 0 {
			continue
		}
		a := m.LookupRow('a').D1
		ba := trie.Move(m.LookupRow('b').D1, 'a')
		for _, tc := range []struct {
			state int32
			bits  [4]uint64
		}{
			{a, [4]uint64{1 | 1<<63, 1 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
			{ba, [4]uint64{1 | 1<<63, 3 | 1<<63, 1 | 1<<63, 1 | 1<<63}},
		} {
			ref := m.rows[tc.state]
			if ref < rowDense {
				if tc.state == a || dense == states {
					t.Fatalf("dense=%d: state %d is not read through a fast row", dense, tc.state)
				}
				continue
			}
			if got := m.fast[ref-rowDense].bits; got != tc.bits {
				t.Fatalf("dense=%d: state %d's bitmap is %#x, want %#x", dense, tc.state, got, tc.bits)
			}
		}
	}
}
