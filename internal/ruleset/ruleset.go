// Package ruleset models the fixed-string content of DPI rulesets.
//
// The paper evaluates on 6,275 unique content strings extracted from the
// Snort ruleset, plus five reduced sets (500, 634, 1204, 1603 and 2588
// strings) produced by "randomly extracting strings while keeping the same
// character distribution" (§V.A). The real Snort strings are not
// redistributable, so this package provides:
//
//   - a deterministic synthetic generator (Generate) whose string-length
//     histogram reproduces Figure 6 and whose byte content mimics the three
//     dominant Snort content classes (ASCII keywords/URI fragments, binary
//     shellcode bytes, and mixed text), including the saturating growth of
//     first-character diversity that drives the original-AC pointer counts;
//   - the paper's distribution-preserving reducer (Reduce, ReduceToChars);
//   - a parser for Snort-style content strings with |hex| escapes.
package ruleset

import (
	"fmt"
	"sort"
)

// IDSpace bounds pattern IDs to [0, IDSpace). The hardware stores string
// numbers in 13-bit fields, two per 27-bit match-memory word; the all-ones
// value 8191 pads the unused half of an odd final word, so it cannot name a
// pattern.
const IDSpace = 1<<13 - 1

// Pattern is one fixed string to be matched. ID is the string number
// reported on a match; the hardware stores it as a 13-bit value.
type Pattern struct {
	ID   int
	Data []byte
	Name string // optional source rule name
}

// Clone returns a deep copy of the pattern.
func (p Pattern) Clone() Pattern {
	d := make([]byte, len(p.Data))
	copy(d, p.Data)
	return Pattern{ID: p.ID, Data: d, Name: p.Name}
}

// Set is an ordered collection of unique patterns.
type Set struct {
	Patterns []Pattern
}

// Len returns the number of patterns.
func (s *Set) Len() int { return len(s.Patterns) }

// CharCount returns the total number of characters across all patterns,
// the size metric used by Table III (19,124 characters).
func (s *Set) CharCount() int {
	n := 0
	for _, p := range s.Patterns {
		n += len(p.Data)
	}
	return n
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Patterns: make([]Pattern, len(s.Patterns))}
	for i, p := range s.Patterns {
		out.Patterns[i] = p.Clone()
	}
	return out
}

// FirstCharCount returns the number of distinct first bytes across the set.
// This equals the number of depth-1 states in the Aho-Corasick machine and
// hence the number of non-start depth-1 default transition pointers
// (Table II row "d1" for single-group machines).
func (s *Set) FirstCharCount() int {
	var seen [256]bool
	n := 0
	for _, p := range s.Patterns {
		if len(p.Data) > 0 && !seen[p.Data[0]] {
			seen[p.Data[0]] = true
			n++
		}
	}
	return n
}

// Dedup returns a new set with byte-identical patterns removed (first
// occurrence wins) and IDs renumbered densely from 0.
func (s *Set) Dedup() *Set {
	seen := make(map[string]bool, len(s.Patterns))
	out := &Set{}
	for _, p := range s.Patterns {
		k := string(p.Data)
		if seen[k] {
			continue
		}
		seen[k] = true
		q := p.Clone()
		q.ID = len(out.Patterns)
		out.Patterns = append(out.Patterns, q)
	}
	return out
}

// Validate checks set invariants: non-empty patterns, unique IDs, unique
// content, and IDs small enough for the 13-bit hardware string-number field.
func (s *Set) Validate() error {
	ids := make(map[int]bool, len(s.Patterns))
	content := make(map[string]bool, len(s.Patterns))
	for i, p := range s.Patterns {
		if len(p.Data) == 0 {
			return fmt.Errorf("ruleset: pattern %d is empty", i)
		}
		if ids[p.ID] {
			return fmt.Errorf("ruleset: duplicate pattern ID %d", p.ID)
		}
		ids[p.ID] = true
		if p.ID < 0 || p.ID >= IDSpace {
			return fmt.Errorf("ruleset: pattern ID %d outside the usable 13-bit range [0,%d]", p.ID, IDSpace-1)
		}
		k := string(p.Data)
		if content[k] {
			return fmt.Errorf("ruleset: duplicate pattern content %q", p.Data)
		}
		content[k] = true
	}
	return nil
}

// SortLex sorts patterns lexicographically by content, in place. The group
// splitter uses lexicographic order so that strings sharing prefixes land in
// the same group, minimizing duplicated trie states across groups.
func (s *Set) SortLex() {
	sort.Slice(s.Patterns, func(i, j int) bool {
		return string(s.Patterns[i].Data) < string(s.Patterns[j].Data)
	})
}

// SplitChars splits the set into n groups of roughly equal character count,
// taking contiguous runs in lexicographic order so shared prefixes stay
// together. This mirrors the paper's splitting of large rulesets across
// string matching blocks (§IV.B). IDs are preserved so matches from any
// group report the global string number.
func (s *Set) SplitChars(n int) []*Set {
	if n <= 1 {
		return []*Set{s.Clone()}
	}
	sorted := s.Clone()
	sorted.SortLex()
	total := sorted.CharCount()
	groups := make([]*Set, 0, n)
	cur := &Set{}
	curChars := 0
	remaining := total
	for i := 0; i < len(sorted.Patterns); i++ {
		p := sorted.Patterns[i]
		target := remaining / (n - len(groups))
		if curChars > 0 && curChars+len(p.Data) > target && len(groups) < n-1 {
			groups = append(groups, cur)
			remaining -= curChars
			cur = &Set{}
			curChars = 0
		}
		cur.Patterns = append(cur.Patterns, p.Clone())
		curChars += len(p.Data)
	}
	groups = append(groups, cur)
	for len(groups) < n {
		groups = append(groups, &Set{})
	}
	return groups
}
