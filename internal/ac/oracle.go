package ac

import (
	"bytes"
	"sort"

	"repro/internal/ruleset"
)

// Oracle is a deliberately naive multi-pattern matcher used as the ground
// truth in tests: no automaton, no shared state, just byte comparisons.
// It is quadratic and must only be used on test-sized inputs.
type Oracle struct {
	patterns []ruleset.Pattern
}

// NewOracle builds an oracle over set.
func NewOracle(set *ruleset.Set) *Oracle {
	o := &Oracle{patterns: make([]ruleset.Pattern, len(set.Patterns))}
	for i, p := range set.Patterns {
		o.patterns[i] = p.Clone()
	}
	return o
}

// FindAll returns every occurrence of every pattern in data, sorted by
// (End, PatternID) so results are directly comparable after normalization.
func (o *Oracle) FindAll(data []byte) []Match {
	var out []Match
	for _, p := range o.patterns {
		for i := 0; i+len(p.Data) <= len(data); i++ {
			if bytes.Equal(data[i:i+len(p.Data)], p.Data) {
				out = append(out, Match{PatternID: int32(p.ID), End: i + len(p.Data)})
			}
		}
	}
	SortMatches(out)
	return out
}

// SortMatches orders matches by (End, PatternID), the canonical order used
// to compare matcher outputs.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].PatternID < ms[j].PatternID
	})
}

// maxRecycledMatches bounds the capacity RecycleMatches hands back: 4 KB of
// matches, a few hundred times what an ordinary chunk produces.
const maxRecycledMatches = 256

// RecycleMatches readies a handle's match buffer for its next scan: the
// same storage, emptied — unless one match-dense chunk grew it past
// maxRecycledMatches, in which case it is let go, so a handle held for the
// life of a connection does not pin its worst chunk's high-water mark.
func RecycleMatches(buf []Match) []Match {
	if cap(buf) > maxRecycledMatches {
		return nil
	}
	return buf[:0]
}

// MatchesEqual reports whether two match sets are identical after
// canonical sorting. Both slices are sorted in place.
func MatchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	SortMatches(a)
	SortMatches(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
