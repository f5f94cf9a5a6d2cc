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
// benchmark's ruleset (GenerateSnortLike(634, 2010)) under opts: the lookup
// table, the state memory and every BuildStats field, floats included (%v
// prints a float64 in its shortest round-trip form, so no bit is lost). The
// state memory is hashed decoded — every state's (Char, To) pairs back to
// back, and where each state's begin, one more entry closing the last — so
// the hash is of what the builder decided, not of how a row is packed.
func buildFingerprint(t *testing.T, opts Options) string {
	t.Helper()
	m := mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010}), opts)
	stored, off := []transition{}, []uint32{0}
	for s := int32(0); s < int32(m.NumStates()); s++ {
		stored = append(stored, decodeRow(m.StoredRow(s))...)
		off = append(off, uint32(len(stored)))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v|%v|%+v", m.Defaults, stored, off, m.Stats)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildFingerprintPinned holds the builder to what it decided at the
// last commit that changed it: the constant was taken by running this body
// against the parent of the commit that added it, so a change that moves a
// default, a stored pointer or a Table II figure fails here first.
func TestBuildFingerprintPinned(t *testing.T) {
	const want = "9ab99ba8ac17a8b7bdc787e97b01b57ce0642282e24b81c8d5093ce863082b1c"
	if got := buildFingerprint(t, Options{}); got != want {
		t.Fatalf("the 634-string build hashes to %s, want %s", got, want)
	}
	// The ablation options reach the builder: each depth limit is its own image.
	d1, d2 := buildFingerprint(t, Options{MaxDepth: 1}), buildFingerprint(t, Options{MaxDepth: 2})
	if d1 == d2 || d1 == want || d2 == want {
		t.Fatalf("MaxDepth 1, 2 and 3 build %s, %s and %s: two are the same image", d1, d2, want)
	}
}
