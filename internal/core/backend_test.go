package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ac"
)

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
