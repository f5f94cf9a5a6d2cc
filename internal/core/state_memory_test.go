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
// outlive Build — and the baked kernel reads that table, that index and the
// arena themselves, and promoting a state to the fast tier moves its
// stored-row descriptor aside without touching the row compress laid out or
// the table — a reference-pinned build of the same ruleset, which never
// bakes, is that layout.
func TestStateMemoryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Pointer(0)); got != 4 {
		t.Fatalf("a stored pointer takes %d B, want 4", got)
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
	laid := mustBuild(t, set, Options{Backend: BackendReference})
	if laid.prog != nil || laid.displaced != nil {
		t.Fatal("a reference-pinned build baked")
	}
	if m.prog == nil || m.prog.lut != &m.lut || &m.prog.rows[0] != &m.rows[0] || &m.prog.stored[0] != &m.stored[0] {
		t.Fatal("the kernel does not read the machine's own lookup table, row index and arena")
	}
	if m.lut != laid.lut {
		t.Fatal("baking changed the lookup table")
	}
	own, copied := m.prog.lut, m.lut
	m.prog.lut = &copied
	if err := m.VerifyProgram(mustTrie(t, set)); err == nil {
		t.Fatal("VerifyProgram accepted a kernel reading a copy of the lookup table")
	}
	m.prog.lut = own
	if !slices.Equal(m.stored, laid.stored) {
		t.Fatal("baking moved the arena")
	}
	promoted := 0
	for s, ref := range m.rows {
		want := laid.rows[s]
		if ref >= rowDense {
			promoted++
			ref = m.displaced[ref-rowDense]
		}
		if ref != want {
			t.Fatalf("state %d's stored row is described by %#x, compress laid out %#x", s, ref, want)
		}
		if !slices.Equal(m.StoredRow(int32(s)), laid.StoredRow(int32(s))) {
			t.Fatalf("state %d's stored row reads differently once baked", s)
		}
	}
	if promoted != DefaultDenseStates || len(m.displaced) != promoted || len(m.prog.fast) != promoted {
		t.Fatalf("%d promoted states, %d displaced descriptors, %d fast rows; want %d of each",
			promoted, len(m.displaced), len(m.prog.fast), DefaultDenseStates)
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
