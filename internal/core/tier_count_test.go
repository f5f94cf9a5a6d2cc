package core

import (
	"testing"
	"unsafe"

	"repro/internal/ac"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// byteTier is the part of the baked loop's tables that resolved one byte.
type byteTier int

const (
	tierFast   byteTier = iota // a fast row
	tierInline                 // the pointer a one-pointer row keeps in its descriptor
	tierArena                  // a pointer in an arena row
	tierLookup                 // the lookup table, after the state's stored row missed
	numTiers
)

// countedStep is the baked loop's transition on c from state under hist,
// with what it read: the tier that resolved the byte and the arena words it
// read first. A stored pointer counts as an arena word when it lies in the
// arena's memory, so a row kept anywhere else reads none.
func (m *Machine) countedStep(state int32, hist uint32, c byte) (int32, byteTier, int) {
	ref := m.rows[state]
	if ref >= rowDense {
		return m.fast[ref-rowDense].move(c, &m.lut.d1, m.over), tierFast, 0
	}
	tier := tierArena
	if ref >= rowInline {
		tier = tierInline
	}
	row, words := rowOf(m.stored, &m.rows[state]), 0
	for i := range row {
		if inArena(m.stored, &row[i]) {
			words++
		}
		if row[i].Char() == c {
			return row[i].To(), tier, words
		}
	}
	return m.lut.resolve(c, hist), tierLookup, words
}

// inArena reports whether p points into arena's memory.
func inArena(arena []Pointer, p *Pointer) bool {
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(arena))), uintptr(unsafe.Pointer(p))
	return len(arena) > 0 && at >= lo && at < lo+uintptr(len(arena))*unsafe.Sizeof(Pointer(0))
}

// TestTierCountsPerByte counts where the baked loop's transitions come
// from on dpibench -kernel's payloads — 64 KiB, seed 2010, attack
// (textual, three plants) and clean (uniform) — at 634 and 6 275 strings:
// for each byte, which tier resolved it and how many arena words the state's
// stored row cost. These are exact counts, so one run decides. Every step
// of the count is held to scanAppend's own, byte by byte, and a byte taken
// at a state whose row is one pointer must read no arena word: that row is
// its descriptor.
func TestTierCountsPerByte(t *testing.T) {
	profiles := []struct {
		name    string
		plants  float64
		profile traffic.Profile
	}{
		{"attack", 3, traffic.Textual},
		{"clean", 0, traffic.Uniform},
	}
	inlineBytes := 0
	for _, n := range []int{634, 6275} {
		set := ruleset.MustGenerate(ruleset.GenConfig{N: n, Seed: 2010})
		m := mustBuild(t, set, Options{})
		for _, p := range profiles {
			pkts, err := traffic.Generate(set, traffic.Config{Packets: 1, Bytes: 64 << 10, Seed: 2010, AttackDensity: p.plants, Profile: p.profile})
			if err != nil {
				t.Fatal(err)
			}
			payload := pkts[0].Payload
			var tiers [numTiers]int
			words, atInline := 0, 0
			state, hist, pos := ac.Root, histUnknown, 0
			var out []ac.Match
			for i, c := range payload {
				next, tier, w := m.countedStep(state, hist, c)
				if ref := m.rows[state]; ref >= rowInline && ref < rowDense {
					if atInline++; w != 0 {
						t.Fatalf("%d/%s: byte %d at state %d, whose row is one pointer, read %d arena words", n, p.name, i, state, w)
					}
				}
				if state, hist, pos, out = m.scanAppend(state, hist, pos, payload[i:i+1], out[:0]); state != next {
					t.Fatalf("%d/%s: byte %d: the count steps to %d, scanAppend to %d", n, p.name, i, next, state)
				}
				tiers[tier]++
				words += w
			}
			inlineBytes += atInline
			t.Logf("%d strings, %s, %d B: resolved by a fast row %d, an inline row %d, an arena row %d, the lookup table %d; "+
				"%d taken at one-pointer rows; %d arena words read, %.4f a byte",
				n, p.name, len(payload), tiers[tierFast], tiers[tierInline], tiers[tierArena], tiers[tierLookup],
				atInline, words, float64(words)/float64(len(payload)))
		}
	}
	if inlineBytes == 0 {
		t.Fatal("no byte was taken at a one-pointer row's state: the count proves nothing about them")
	}
}
