package core

import (
	"fmt"

	"repro/internal/ac"
	"repro/internal/ruleset"
)

// Grouped is a ruleset split across several independent machines, one per
// string matching block (§IV.B): "For large rulesets containing many
// thousands of strings the search structures can be split across the memory
// of multiple engines with the engines working together to scan a packet."
// Every group scans the same packet; matches carry global string numbers so
// results merge trivially. The split exists so each machine fits a block's
// state memory: it is the hardware model's type (package fpga, hwsim, the
// paper's tables in internal/experiments). Software scans one Machine.
type Grouped struct {
	Machines []*Machine
	// Sets[i] is the share of the ruleset Machines[i] matches, and what a
	// verifier rebuilds its oracle trie from. With one group it is the
	// caller's own set, not a copy: Build neither mutates a set nor retains
	// its pattern bytes, so nothing is kept alive on the machine's behalf.
	Sets []*ruleset.Set
	// Generation is the process-unique compile generation shared by every
	// machine in the group. See generation.go.
	Generation uint64
}

// BuildGrouped splits set into groups lexicographic-contiguous groups of
// balanced character count and compresses each independently.
func BuildGrouped(set *ruleset.Set, groups int, opts Options) (*Grouped, error) {
	if groups < 1 {
		return nil, fmt.Errorf("core: groups must be >= 1, got %d", groups)
	}
	if groups > set.Len() {
		return nil, fmt.Errorf("core: %d groups for %d patterns", groups, set.Len())
	}
	parts := []*ruleset.Set{set}
	if groups > 1 {
		parts = set.SplitChars(groups)
	}
	g := &Grouped{Sets: parts}
	for i, part := range parts {
		if part.Len() == 0 {
			return nil, fmt.Errorf("core: group %d is empty; too many groups for this set", i)
		}
		m, err := Build(part, opts)
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", i, err)
		}
		g.Machines = append(g.Machines, m)
	}
	// One generation for the whole group: the machines were compiled
	// together and are swapped together, so they share one identity.
	g.Generation = nextGeneration()
	for _, m := range g.Machines {
		m.generation = g.Generation
	}
	return g, nil
}

// FindAll scans data with every group machine and merges the matches in
// canonical (End, PatternID) order — each machine emits in that order, but
// several machines' runs interleave, so this merge is the one place outside
// the oracles that sorts.
func (g *Grouped) FindAll(data []byte) []ac.Match {
	var out []ac.Match
	for _, m := range g.Machines {
		var r Regs
		r.Reset()
		out = m.ScanAppend(&r, data, out)
	}
	ac.SortMatches(out)
	return out
}

// CombinedStats aggregates Table II quantities across groups: state counts
// and pointer counts add (each block holds its own state machine and lookup
// table), averages weight by state count.
func (g *Grouped) CombinedStats() BuildStats {
	var st BuildStats
	maxStored := 0
	for _, m := range g.Machines {
		s := m.Stats
		st.States += s.States
		st.OriginalPointers += s.OriginalPointers
		st.D1Count += s.D1Count
		st.D2Count += s.D2Count
		st.D3Count += s.D3Count
		st.StoredAfterD1 += s.StoredAfterD1
		st.StoredAfterD12 += s.StoredAfterD12
		st.StoredAfterD123 += s.StoredAfterD123
		st.StoredPointers += s.StoredPointers
		if s.MaxStoredPerState > maxStored {
			maxStored = s.MaxStoredPerState
		}
	}
	fn := float64(st.States)
	st.OriginalAvg = float64(st.OriginalPointers) / fn
	st.AvgAfterD1 = float64(st.StoredAfterD1) / fn
	st.AvgAfterD12 = float64(st.StoredAfterD12) / fn
	st.AvgAfterD123 = float64(st.StoredAfterD123) / fn
	st.AvgStored = float64(st.StoredPointers) / fn
	st.MaxStoredPerState = maxStored
	if st.OriginalPointers > 0 {
		st.Reduction = 1 - float64(st.StoredPointers)/float64(st.OriginalPointers)
	}
	return st
}
