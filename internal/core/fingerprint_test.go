package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
	return fingerprint(mustBuild(t, ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010}), Options{}))
}

// fingerprint is buildFingerprint's hash of the machine m.
func fingerprint(m *Machine) string {
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

// pinnedFingerprint is buildFingerprint at the last commit that changed the
// builder's decisions.
const pinnedFingerprint = "22d486dc5cb09b396fb4900025847d67c535d21c8364461304780dc6910f5337"

// TestBuildFingerprintPinned holds the builder to what it decided at the
// last commit that changed it, so a change that moves a default, a stored
// pointer or a Table II figure fails here first. The constant was last
// re-taken when states came to be numbered breadth-first, which moved
// choices the builder breaks by state number among equally popular states.
func TestBuildFingerprintPinned(t *testing.T) {
	if got := buildFingerprint(t); got != pinnedFingerprint {
		t.Fatalf("the 634-string build hashes to %s, want %s", got, pinnedFingerprint)
	}
}

// TestConcurrentCompilesMatchFingerprint: Builds running at once, each with
// its own second goroutine, share nothing they write — every machine hashes
// to the pinned fingerprint. Under -race it is also the race check of
// Build's two goroutines.
func TestConcurrentCompilesMatchFingerprint(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	got, errs := make([]string, 8), make([]error, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Build(set, Options{})
			if errs[i] = err; err == nil {
				got[i] = fingerprint(m)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if got[i] != pinnedFingerprint {
			t.Errorf("compile %d hashes to %s, want %s", i, got[i], pinnedFingerprint)
		}
	}
}

// TestBuildLeavesNoGoroutine: Build joins its second goroutine on every
// return — after a successful build, after a reference-pinned one, which
// builds every stage as the default does and only resolves another loop,
// and after a pinned prefiltered
// build whose prefilter is refused once the goroutine has started. Build
// hands the goroutine the fail tree on a buffered channel before compress,
// so a compress error — the fitsWord refusal, too large a machine to build
// here — finds the goroutine past its wait and joins it like any other
// return. The goroutine sends its results on an unbuffered channel, so a
// return that skipped the join would leave it blocked for good; one that
// joined may still be leaving when Build returns, so the count is given a
// moment to settle.
func TestBuildLeavesNoGoroutine(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	refuse := func(t *testing.T) {
		saved := pfMaxRows
		pfMaxRows = 0 // no prefilter fits: the stage is refused
		t.Cleanup(func() { pfMaxRows = saved })
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		prepare func(*testing.T)
		wantErr bool
	}{
		{"built", Options{}, func(*testing.T) {}, false},
		{"reference", Options{Backend: BackendReference}, func(*testing.T) {}, false},
		{"prefiltered-refused", Options{Backend: BackendPrefiltered}, refuse, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.prepare(t)
			before := runtime.NumGoroutine()
			for range 10 {
				if _, err := Build(set, tc.opts); (err != nil) != tc.wantErr {
					t.Fatalf("Build error %v, want one: %v", err, tc.wantErr)
				}
			}
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Fatalf("%d goroutines before 10 builds, %d after", before, after)
			}
		})
	}
}
