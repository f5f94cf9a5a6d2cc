package core

import (
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// TestTierCountsPerByte counts where the baked loop's transitions come
// from on dpibench -kernel's payloads — 64 KiB, seed 2010, attack
// (textual, three plants) and clean (uniform) — at 634 and 6 275 strings:
// for each byte, which tier resolved it and how many arena words the state's
// stored row cost. These are exact counts, so one run decides. The
// production scanAppend takes every step, one byte at a time, and each is
// classified from the tables at the state it left: a fast row; else the
// state's stored row when it holds the byte — its descriptor for a
// one-pointer row, which reads no arena word (TestStateMemoryLayout), or an
// arena row, read up to the pointer; else the lookup table, after the whole
// row was read.
func TestTierCountsPerByte(t *testing.T) {
	profiles := []struct {
		name    string
		plants  float64
		profile traffic.Profile
	}{
		{"attack", 3, traffic.Textual},
		{"clean", 0, traffic.Uniform},
	}
	for _, n := range []int{634, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		m := mustBuild(t, set, Options{})
		for _, p := range profiles {
			pkts, err := traffic.Generate(set, traffic.Config{Packets: 1, Bytes: 64 << 10, Seed: 2010, AttackDensity: p.plants, Profile: p.profile})
			if err != nil {
				t.Fatal(err)
			}
			payload := pkts[0].Payload
			var fast, inline, arena, lookup, atInline, words int
			state, hist, pos := ac.Root, histUnknown, 0
			var out []ac.Match
			for i, c := range payload {
				if ref := m.rows[state]; ref >= rowDense {
					fast++
				} else if row := m.StoredRow(state); ref >= rowInline {
					atInline++
					if row[0].Char() == c {
						inline++
					} else {
						lookup++
					}
				} else if at := slices.IndexFunc(row, func(p Pointer) bool { return p.Char() == c }); at >= 0 {
					arena, words = arena+1, words+at+1
				} else {
					lookup, words = lookup+1, words+len(row)
				}
				state, hist, pos, out = m.scanAppend(state, hist, pos, payload[i:i+1], out[:0])
			}
			t.Logf("%d strings, %s, %d B: resolved by a fast row %d, an inline row %d, an arena row %d, the lookup table %d; "+
				"%d taken at one-pointer rows; %d arena words read, %.4f a byte",
				n, p.name, len(payload), fast, inline, arena, lookup, atInline, words, float64(words)/float64(len(payload)))
		}
	}
}
