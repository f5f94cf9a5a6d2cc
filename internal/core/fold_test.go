package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ruleset"
)

// TestFoldResumeEqualsScan: at the paper's ruleset sizes, on every
// registered backend, a piece folded on its own and resumed from a stream's
// registers leaves exactly the registers, and appends exactly the matches,
// that scanning the piece on from those registers does. The pieces are D and
// D+1 bytes long, and the longest pattern at every offset from the piece's
// start to the fold point and past it, so it ends inside the prefix, straddles
// the fold point or lies wholly after it; the streams before them end in the
// start state, on random bytes, or part-way through that same pattern, so one
// straddles the piece's start too. Depth is the longest pattern's length, and
// Fold keeps only forms shorter than their piece, in one allocation.
func TestFoldResumeEqualsScan(t *testing.T) {
	for _, n := range []int{634, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		m := mustBuild(t, set, Options{})
		var longest []byte
		for _, p := range set.Patterns {
			if len(p.Data) > len(longest) {
				longest = p.Data
			}
		}
		d := m.Depth()
		if d != len(longest) {
			t.Fatalf("%d strings: Depth is %d, the longest pattern has %d bytes", n, d, len(longest))
		}
		rng := rand.New(rand.NewSource(int64(n)))
		noise := func(k int) []byte {
			b := make([]byte, k)
			rng.Read(b)
			return b
		}
		befores := [][]byte{nil, noise(3 * d), longest[:d-1], longest[:d/2]}
		pieces := [][]byte{noise(d), noise(d + 1), longest, append(slices.Clone(longest[d/2:]), noise(2*d)...)}
		for at := 0; at <= d; at++ { // the longest pattern at [at, at+d): ends at D when at == 0
			pieces = append(pieces, slices.Concat(noise(at), longest, noise(d)))
		}
		for _, name := range RegisteredBackends() {
			t.Run(fmt.Sprintf("%d/%s", n, name), func(t *testing.T) {
				k := kindOf(t, m, name)
				folded := 0
				for i, p := range pieces {
					form, _ := m.foldAs(k, p, nil, math.MaxInt)
					if len(p) <= d {
						if form != nil {
							t.Fatalf("piece %d of %d bytes folded: it is no longer than D = %d", i, len(p), d)
						}
						continue
					}
					if len(form) == len(p) {
						continue // it would read as the piece itself; Fold never keeps one
					}
					folded++
					for j, before := range befores {
						var from Regs
						from.Reset()
						m.scanAs(k, &from, before, nil)
						want, got := from, from
						wantM := m.scanAs(k, &want, p, nil)
						gotM := m.resumeAs(k, &got, form, len(p), nil)
						if got != want {
							t.Fatalf("piece %d after stream %d: resumed to %+v, scanned to %+v", i, j, got.registers(), want.registers())
						}
						if !slices.Equal(gotM, wantM) {
							t.Fatalf("piece %d after stream %d: resumed with matches %v, scanned with %v", i, j, gotM, wantM)
						}
					}
				}
				if folded < len(pieces)-3 {
					t.Fatalf("only %d of %d pieces proved", folded, len(pieces))
				}
			})
		}

		// Fold's own rule: a form only when it is shorter than its piece.
		sparse := slices.Concat(longest, noise(4*d))
		form, scratch := m.Fold(sparse, nil)
		if form == nil || len(form) >= len(sparse) {
			t.Fatalf("%d strings: a %d-byte piece with one pattern in it folds to %d bytes", n, len(sparse), len(form))
		}
		if form, _ := m.Fold(longest, scratch); form != nil {
			t.Fatalf("%d strings: a D-byte piece folds", n)
		}
		if form, _ := m.Fold(slices.Concat(longest, []byte{0}), scratch); form != nil {
			t.Fatalf("%d strings: a D+1-byte piece folds to %d bytes", n, len(form))
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { form, scratch = m.Fold(sparse, scratch) }); allocs != 1 {
				t.Errorf("%d strings: a fold allocated %.0f times, want the form alone", n, allocs)
			}
		}
	}
}

// kindOf is the registry kind a backend name names, failing when the machine
// does not support it.
func kindOf(t *testing.T, m *Machine, name string) backendKind {
	t.Helper()
	for k, spec := range scanBackends {
		if spec.name == name {
			if !spec.available(m) {
				t.Fatalf("backend %s is not available on this machine", name)
			}
			return backendKind(k)
		}
	}
	t.Fatalf("unknown backend %s", name)
	return 0
}

// TestVerifyFoldDetectsAWrongDepth: the fold's premise is proved, not
// assumed: a machine that would fold a byte early fails Verify.
func TestVerifyFoldDetectsAWrongDepth(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 120, Seed: 7})
	m := mustBuild(t, set, Options{})
	trie := mustTrie(t, set)
	if err := m.verifyFold(trie, nil); err != nil {
		t.Fatal(err)
	}
	m.depth--
	if err := m.verifyFold(trie, nil); err == nil {
		t.Fatal("Verify proved a fold one byte short of the longest pattern")
	}
}
