package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/ruleset"
)

// transition is a stored pointer decoded back to its two fields: the form
// the state memory held before it was packed into a word, and the one the
// oracles compare.
type transition struct {
	Char byte
	To   int32
}

func decodeRow(row []Pointer) []transition {
	out := make([]transition, len(row))
	for i, p := range row {
		out[i] = transition{Char: p.Char(), To: p.To()}
	}
	return out
}

// buildFingerprint hashes every decision the builder makes for the
// benchmark's ruleset (GenerateSnortLike(634, 2010)): the lookup table, the
// state memory and every BuildStats field, floats included (%v prints a
// float64 in its shortest round-trip form, so no bit is lost). Both are
// hashed decoded, so the hash is of what the builder decided, not of how a
// word is packed: the lookup table as per-character lists — every row's
// depth-1 default, then every row's depth-2 list, then every row's
// depth-3 list — and the state memory as every state's (Char, To) pairs
// back to back, and where each state's begin, one more entry closing the
// last.
func buildFingerprint(t *testing.T) string {
	t.Helper()
	m := mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010}), Options{})
	var defaults struct {
		D1 [256]int32
		D2 [256][]D2Entry
		D3 [256][]D3Entry
	}
	for c := range 256 {
		row := m.LookupRow(byte(c))
		defaults.D1[c], defaults.D2[c], defaults.D3[c] = row.D1, row.D2, row.D3
	}
	stored, off := []transition{}, []uint32{0}
	for s := int32(0); s < int32(m.NumStates()); s++ {
		stored = append(stored, decodeRow(m.StoredRow(s))...)
		off = append(off, uint32(len(stored)))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%+v", defaults, stored, off, m.Stats)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildFingerprintPinned holds the builder to what it decided at the
// last commit that changed it, so a change that moves a default, a stored
// pointer or a Table II figure fails here first. The constant was last
// re-taken when states came to be numbered breadth-first, which moved
// choices the builder breaks by state number among equally popular states.
func TestBuildFingerprintPinned(t *testing.T) {
	const want = "22d486dc5cb09b396fb4900025847d67c535d21c8364461304780dc6910f5337"
	if got := buildFingerprint(t); got != want {
		t.Fatalf("the 634-string build hashes to %s, want %s", got, want)
	}
}
