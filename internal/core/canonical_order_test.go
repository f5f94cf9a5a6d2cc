package core_test

// An external test package: internal/traffic reaches core through
// internal/nids, so the attack workload cannot be imported from inside it.

import (
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// TestMachineEmitsCanonicalOrder: on attack traffic, where several strings
// end on one byte in most packets, what each backend appends is already in
// (End, PatternID) order — equal, as emitted, to the uncompressed DFA's
// matches sorted. Nothing downstream of one machine sorts.
func TestMachineEmitsCanonicalOrder(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := traffic.Generate(set, traffic.Config{Packets: 100, Bytes: 1460, Seed: 2010, AttackDensity: 60, Profile: traffic.Textual})
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, name := range m.Backends() {
		sc, err := m.NewScannerFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			want := trie.FindAll(p.Payload)
			ac.SortMatches(want)
			sc.Reset()
			got := sc.ScanAppend(p.Payload, nil)
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
