package core

import (
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// TestMachineEmitsCanonicalOrder: on attack traffic, where several strings
// end on one byte in most packets, what each backend appends is already in
// (End, PatternID) order — equal, as emitted, to the uncompressed DFA's
// matches sorted. Nothing downstream of one machine sorts.
func TestMachineEmitsCanonicalOrder(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	m := mustBuild(t, set, Options{})
	trie := mustTrie(t, set)
	pkts, err := traffic.Generate(set, traffic.Config{Packets: 100, Bytes: 1460, Seed: 2010, AttackDensity: 60, Profile: traffic.Textual})
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, name := range m.Backends() {
		mk := mustBuild(t, set, Options{Backend: name})
		for _, p := range pkts {
			want := trie.FindAll(p.Payload)
			ac.SortMatches(want)
			got := mk.FindAll(p.Payload)
			if !slices.Equal(got, want) {
				t.Fatalf("backend %s, packet %d: the scan's own order is not (End, PatternID)", name, p.ID)
			}
			for i := 1; i < len(got); i++ {
				if got[i].End == got[i-1].End {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two matches shared an End: the workload does not exercise the tie-break")
	}
}
