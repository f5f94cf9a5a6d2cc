package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ruleset"
)

// TestStateMemoryLayout pins the state memory to the paper's word and the
// lookup table to one copy: a stored pointer is one 4-byte word, the Machine
// keeps one row index and one lookup table — no per-character default lists
// outlive Build — and promoting a state to the fast tier moves its
// stored-row descriptor aside without touching the row compress laid out or
// the table, which compress and selectDefaults, run here on a trie of the
// same ruleset, give unbaked. A stream's registers are the exact machine's
// and nothing more: position, state and fused history, 16 B on every
// backend.
func TestStateMemoryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Pointer(0)); got != 4 {
		t.Fatalf("a stored pointer takes %d B, want 4", got)
	}
	if got := unsafe.Sizeof(Regs{}); got != 16 {
		t.Fatalf("a stream's registers take %d B, want 16", got)
	}
	for _, c := range []byte{0, 'a', 0xFF} {
		for _, to := range []int32{0, 1, maxStates - 1} {
			if p := newPointer(c, to); p.Char() != c || p.To() != to {
				t.Fatalf("newPointer(%#02x, %d) reads back as (%#02x, %d)", c, to, p.Char(), p.To())
			}
		}
	}
	if _, ok := reflect.TypeOf(Machine{}).FieldByName("storedOff"); ok {
		t.Fatal("the Machine has a second row index, storedOff")
	}
	reached := typesReachable(t, reflect.TypeOf(Machine{}), "Machine")
	for _, lists := range []any{LookupRow{}, D2Entry{}, D3Entry{}} {
		if path, ok := reached[reflect.TypeOf(lists)]; ok {
			t.Fatalf("%s is a %T: the Machine keeps its lookup table twice", path, lists)
		}
	}

	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	m := mustBuild(t, set, Options{})
	trie := mustTrie(t, set)
	ft := newFailTree(trie)
	var lut lookupTable
	d := defaults{&lut, unsafe.Slice(&lut.d2[0][0], len(lut.d2)*d2PerChar)}
	var st BuildStats
	selectDefaults(trie, ft, d, &st)
	stored, rows, err := compress(trie, ft, d, &st)
	if err != nil {
		t.Fatal(err)
	}
	if m.lut != lut {
		t.Fatal("baking changed the lookup table")
	}
	if !slices.Equal(m.stored, stored) {
		t.Fatal("baking moved the arena")
	}
	promoted := 0
	for s, ref := range m.rows {
		want := rows[s]
		if ref >= rowDense {
			promoted++
			ref = m.displaced[ref-rowDense]
		}
		if ref != want {
			t.Fatalf("state %d's stored row is described by %#x, compress laid out %#x", s, ref, want)
		}
		if !slices.Equal(m.StoredRow(int32(s)), rowOf(stored, want)) {
			t.Fatalf("state %d's stored row reads differently once baked", s)
		}
	}
	if promoted != DefaultDenseStates || len(m.displaced) != promoted || len(m.fast) != promoted {
		t.Fatalf("%d promoted states, %d displaced descriptors, %d fast rows; want %d of each",
			promoted, len(m.displaced), len(m.fast), DefaultDenseStates)
	}
}

// TestBuildRejectsMachineBeyondWord: a machine whose states a 24-bit target
// cannot name, or whose arena a 22-bit row offset cannot reach, is a Build
// error (which Compile wraps in ErrBadConfig), not a silently truncated
// pointer. Building one takes gigabytes, so the bound is tested where
// compress applies it, and the paper's largest ruleset is shown to sit
// more than 20× inside it.
func TestBuildRejectsMachineBeyondWord(t *testing.T) {
	for _, tc := range []struct {
		states  int
		entries int64
		fits    bool
	}{
		{maxStates, rowOffMask, true},
		{maxStates + 1, 0, false},
		{1, rowOffMask + 1, false},
	} {
		if err := fitsWord(tc.states, tc.entries); (err == nil) != tc.fits {
			t.Errorf("%d states storing %d pointers: fitsWord says %v, want fits=%v", tc.states, tc.entries, err, tc.fits)
		}
	}
	m := mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: 6275, Seed: 2010}), Options{})
	if states, entries := m.NumStates(), len(m.stored); 20*states > maxStates || 20*entries > rowOffMask {
		t.Fatalf("at 6 275 strings the machine has %d states and %d stored pointers: within 20× of the word's range", states, entries)
	}
}
