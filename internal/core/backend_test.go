package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ac"
)

// TestRegsReopenInPlace: registers that served one stream are reset for the
// next without allocating (they have nothing to allocate), start at position
// zero, and carry no partial match across the reset.
func TestRegsReopenInPlace(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	var r Regs
	r.Reset()
	m.ScanAppend(&r, []byte("her"), nil)
	if allocs := testing.AllocsPerRun(10, r.Reset); allocs != 0 {
		t.Fatalf("Reset allocated %.1f times", allocs)
	}
	if r.Pos() != 0 {
		t.Fatalf("reset registers at %d", r.Pos())
	}
	if ms := m.ScanAppend(&r, []byte("s"), nil); len(ms) != 0 {
		t.Fatalf("match spans a reset: %v", ms)
	}
}

// TestRegsCopyIsIndependent: registers are plain data, so the struct copy
// is the clone — taken mid-pattern it completes the match on its own
// whatever the original is fed meanwhile.
func TestRegsCopyIsIndependent(t *testing.T) {
	m := mustBuild(t, toySet(), Options{})
	var r Regs
	r.Reset()
	got := m.ScanAppend(&r, []byte("her"), nil)
	cl := r
	m.ScanAppend(&r, []byte("x"), nil)
	if got = m.ScanAppend(&cl, []byte("s"), got); !slices.Equal(got, m.FindAll([]byte("hers"))) {
		t.Fatalf("copy found %v, want %v", got, m.FindAll([]byte("hers")))
	}
}

// TestAutoBackendResolution pins what BackendAuto resolves to for each set
// of kernels a build can end up with, which backends that machine offers,
// and that every offered backend still runs in lockstep.
func TestAutoBackendResolution(t *testing.T) {
	all := []string{BackendReference, BackendBaked, BackendPrefiltered}
	if got := RegisteredBackends(); !reflect.DeepEqual(got, all) {
		t.Fatalf("RegisteredBackends() = %v, want %v", got, all)
	}

	// rejectPrefilter does what compileBackends does when verifySuperset
	// refuses a table: the stage is dropped, never used.
	rejectPrefilter := func(t *testing.T, m *Machine, trie *ac.Trie) *Machine {
		for i := range m.pre.tab {
			m.pre.tab[i] &^= pfSuspect
		}
		if err := m.verifySuperset(trie); err == nil {
			t.Fatal("verifySuperset accepted a table with no suspect flags")
		}
		m.pre = nil
		m.kind = m.resolveKind()
		return m
	}

	for _, tc := range []struct {
		name     string
		opts     Options
		then     func(*testing.T, *Machine, *ac.Trie) *Machine // nil: use the built machine as is
		want     string
		backends []string
	}{
		{"built", Options{}, nil, BackendPrefiltered, all},
		{"prefilter-rejected", Options{}, rejectPrefilter, BackendBaked, all[:2]},
		{"reference-pinned", Options{Backend: BackendReference}, nil, BackendReference, all[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			set := randBakedSet(rng)
			m, trie := mustBuild(t, set, tc.opts), mustTrie(t, set)
			if tc.then != nil {
				m = tc.then(t, m, trie)
			}
			if got := m.DefaultBackend(); got != tc.want {
				t.Fatalf("auto resolves to %q, want %q", got, tc.want)
			}
			if got := m.NewScanner().Backend(); got != tc.want {
				t.Fatalf("NewScanner runs %q, want %q", got, tc.want)
			}
			// Availability follows the compiled artifacts, so this also
			// proves a reference-pinned build compiled no kernel.
			if got := m.Backends(); !reflect.DeepEqual(got, tc.backends) {
				t.Fatalf("Backends() = %v, want %v", got, tc.backends)
			}
			driveLockstep(t, m, trie, rng)
		})
	}
}
