package core

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ruleset"
)

// TestStateMemoryLayout pins the state memory to the paper's word and the
// lookup table to one copy: a stored pointer is one 4-byte word, a row of
// one pointer is its own descriptor and has no arena entry, the arena holds
// exactly the longer rows, the Machine keeps one row index and one lookup
// table — no per-character default lists outlive Build — and promoting a
// state to the fast tier moves its stored-row descriptor aside without
// touching the row compress laid out or the table, which compress and
// selectDefaults, run here on a trie of the same ruleset, give unbaked;
// reading a row allocates nothing, as it aliases the state memory. Every
// kernel table is as wide as what it addresses: a fast row is 40 B, the
// lookup table 7 168 B with a 4-byte depth-2 slot, and a prefilter entry
// one byte, so a stored prefilter row is one 64 B cache line. A stream's
// registers are the exact machine's and nothing more: position, state and
// fused history, 16 B on every backend.
func TestStateMemoryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Pointer(0)); got != 4 {
		t.Fatalf("a stored pointer takes %d B, want 4", got)
	}
	var pf Prefilter
	for _, tc := range []struct {
		table      string
		got, bytes uintptr
	}{
		{"a fast row", unsafe.Sizeof(fastRow{}), 40},
		{"the lookup table", unsafe.Sizeof(lookupTable{}), 7168},
		{"a depth-2 slot", unsafe.Sizeof(lookupTable{}.d2[0][0]), 4},
		{"a stored prefilter row", pfStride * unsafe.Sizeof(pf.tab[0]), 64},
	} {
		if tc.got != tc.bytes {
			t.Fatalf("%s takes %d B, want %d", tc.table, tc.got, tc.bytes)
		}
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
	promoted, ones, arena := 0, 0, 0
	for s, ref := range m.rows {
		want := rows[s]
		if ref >= rowDense {
			promoted++
			ref = m.displaced[ref-rowDense]
		}
		if ref != want {
			t.Fatalf("state %d's stored row is described by %#x, compress laid out %#x", s, ref, want)
		}
		row := m.StoredRow(int32(s))
		if !slices.Equal(row, rowOf(stored, &want)) {
			t.Fatalf("state %d's stored row reads differently once baked", s)
		}
		if len(row) != 1 {
			arena += len(row)
			continue
		}
		if ones++; ref < rowInline || ref >= rowDense || Pointer(ref) != row[0] {
			t.Fatalf("state %d's one pointer %#x is described by %#x, not kept in its descriptor", s, row[0], ref)
		}
	}
	if len(m.stored) != arena {
		t.Fatalf("the arena holds %d pointers, the rows of two or more %d: a one-pointer row has an arena entry", len(m.stored), arena)
	}
	t.Logf("%d of %d states keep one pointer, in their descriptors; the arena holds %d", ones, len(m.rows), arena)
	read := 0
	if allocs := testing.AllocsPerRun(10, func() {
		for s := range m.rows {
			read += len(m.StoredRow(int32(s)))
		}
	}); allocs != 0 {
		t.Fatalf("reading every stored row allocates %v times: a row read must alias the state memory", allocs)
	}
	if promoted != defaultDenseStates || len(m.displaced) != promoted || len(m.fast) != promoted {
		t.Fatalf("%d promoted states, %d displaced descriptors, %d fast rows; want %d of each",
			promoted, len(m.displaced), len(m.fast), defaultDenseStates)
	}
}

// TestBuildRejectsMachineBeyondWord: a machine whose states a 22-bit target
// cannot name, or whose arena a 21-bit row offset cannot reach, is a Build
// error (which Compile wraps in ErrBadConfig), not a silently truncated
// pointer. Building one takes gigabytes, so the bound is tested where
// compress applies it, at both limits; the descriptor of the longest row
// at the last offset stays clear of the inline tag; and the paper's
// largest ruleset is shown to sit at least 10× inside both limits.
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
			t.Errorf("%d states whose arena holds %d pointers: fitsWord says %v, want fits=%v", tc.states, tc.entries, err, tc.fits)
		}
	}
	if last := uint32(256)<<rowCountShift | rowOffMask; last >= rowInline || last>>rowCountShift != 256 || last&rowOffMask != rowOffMask {
		t.Fatalf("a 256-pointer row at offset %d is described by %#x, which does not read back", rowOffMask, last)
	}
	m := mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: 6275, Seed: 2010}), Options{})
	if states, entries := m.NumStates(), len(m.stored); 10*states > maxStates || 10*entries > rowOffMask {
		t.Fatalf("at 6 275 strings the machine has %d states and an arena of %d pointers: within 10× of the word's range", states, entries)
	}
}
