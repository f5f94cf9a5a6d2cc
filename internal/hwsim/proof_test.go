package hwsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ac"
	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ruleset"
)

// verifyImage proves a packed image against t, a trie of the ruleset its
// machine was built from, the way core's Machine.Verify proves the baked
// kernel: from every state's location, under the state's static history
// (the last two characters of its path, unknown where the path is
// shorter), Engine.Step on every byte must land on the location of the
// DFA's move target; and every state's match field must address a list
// equal to the trie's output chain in ascending order — ended by a last
// flag, inside the match memory — or be clear when nothing ends there.
// Together these cover all three memories: the state words' pointers, the
// lookup table's packed rows and slot targets, and the match words.
func verifyImage(img *Image, t *ac.Trie) error {
	if len(img.Loc) != t.NumStates() {
		return fmt.Errorf("the image places %d states, the trie has %d", len(img.Loc), t.NumStates())
	}
	e := NewEngine(img)
	var want []ac.Match
	var err error
	t.ForEachMoveRow(func(s int32, row []int32) {
		if err != nil {
			return
		}
		h2, h1 := int16(-1), int16(-1)
		if nd := &t.Nodes[s]; nd.Depth >= 1 {
			h1 = int16(nd.Char)
			if nd.Depth >= 2 {
				h2 = int16(t.Nodes[nd.Parent].Char)
			}
		}
		for c := 0; c < 256; c++ {
			e.cur, e.h2, e.h1 = img.Loc[s], h2, h1
			if got := e.Step(byte(c)).Loc; got != img.Loc[row[c]] {
				err = fmt.Errorf("state %d (depth %d) byte %#02x: the engine lands on %+v, the DFA's target %d is at %+v",
					s, t.Nodes[s].Depth, c, got, row[c], img.Loc[row[c]])
				return
			}
		}
		want = t.AppendOutputs(s, 0, want[:0])
		ac.SortMatches(want)
		valid, addr := img.readMatchField(img.Loc[s])
		if !valid {
			if len(want) != 0 {
				err = fmt.Errorf("state %d ends %d strings but its match field is clear", s, len(want))
			}
			return
		}
		got, lerr := img.matchList(addr)
		if lerr != nil {
			err = fmt.Errorf("state %d: %w", s, lerr)
			return
		}
		if !slices.Equal(got, matchIDs(want)) {
			err = fmt.Errorf("state %d: its match field addresses %v, the trie's output chain is %v", s, got, matchIDs(want))
		}
	})
	return err
}

// matchList decodes the string-number list at match-memory word addr, as
// the match scheduler reads it: two numbers a word, pads skipped, up to the
// word carrying the last flag.
func (img *Image) matchList(addr uint16) ([]int32, error) {
	var ids []int32
	for a := int(addr); ; a++ {
		if a >= len(img.Match) {
			return nil, fmt.Errorf("the list at word %d runs past the %d match words with no last flag", addr, len(img.Match))
		}
		w := img.Match[a]
		ids = append(ids, int32(w&(1<<matchIDBits-1)))
		if id2 := int32(w >> matchIDBits & (1<<matchIDBits - 1)); id2 != MatchPadID {
			ids = append(ids, id2)
		}
		if w>>(2*matchIDBits)&1 == 1 {
			return ids, nil
		}
	}
}

func matchIDs(ms []ac.Match) []int32 {
	ids := make([]int32, len(ms))
	for i, m := range ms {
		ids[i] = m.PatternID
	}
	return ids
}

// imageProofConfigs are the paper's ruleset sizes split the way Table II
// places them: every group image of each is proved.
var imageProofConfigs = []struct {
	strings int
	dev     device.Device
	groups  int
}{
	{634, device.Stratix3, 1},
	{1603, device.Stratix3, 2},
	{2588, device.Stratix3, 3},
	{2588, device.Cyclone3, 4},
}

// TestPackedImageProof runs verifyImage on every group image at 634, 1 603
// and 2 588 strings — every (state, byte) of each, ~22 M engine steps. Under
// the race detector only the 634-string image is proved.
func TestPackedImageProof(t *testing.T) {
	for _, tc := range imageProofConfigs {
		name := fmt.Sprintf("%d/%s/%d", tc.strings, tc.dev.Name, tc.groups)
		t.Run(name, func(t *testing.T) {
			if raceEnabled && tc.strings != 634 {
				t.Skip("proved at 634 strings under -race")
			}
			set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
			g, err := core.BuildGrouped(set, tc.groups, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := NewAccelerator(tc.dev, g)
			if err != nil {
				t.Fatal(err)
			}
			for gi, img := range a.Images {
				trie, err := ac.New(g.Sets[gi])
				if err != nil {
					t.Fatal(err)
				}
				if err := verifyImage(img, trie); err != nil {
					t.Fatalf("group %d: %v", gi, err)
				}
			}
		})
	}
}

// cloneImage copies every memory of img, so a case can corrupt its copy.
func cloneImage(img *Image) *Image {
	c := *img
	c.Words = make([]*bitpack.Vector, len(img.Words))
	for i, w := range img.Words {
		c.Words[i] = w.Clone()
	}
	c.Match = slices.Clone(img.Match)
	for i := range c.LUT {
		c.LUT[i].Packed = img.LUT[i].Packed.Clone()
	}
	return &c
}

// TestPackedImageProofDetectsCorruption: the proof must be able to fail, on
// each memory. Every case corrupts a clone of one image, which the proof
// accepts first.
func TestPackedImageProofDetectsCorruption(t *testing.T) {
	set := ruleset.MustGenerate(ruleset.GenConfig{N: 300, Seed: 81})
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	img := mustPack(t, set, core.Options{})
	if err := verifyImage(img, trie); err != nil {
		t.Fatal(err)
	}
	m := img.Machine
	// stored finds a state that keeps a pointer; output one that ends a
	// string.
	find := func(what string, ok func(s int32) bool) int32 {
		for s := int32(0); s < int32(len(img.Loc)); s++ {
			if ok(s) {
				return s
			}
		}
		t.Fatalf("no state %s", what)
		return 0
	}
	stored := find("keeps a pointer", func(s int32) bool { return len(m.StoredRow(s)) > 0 })
	output := find("ends a string", func(s int32) bool { return m.MatchList(s) >= 0 })
	d2Row := func(img *Image) *LUTRow {
		for c := range img.LUT {
			row := &img.LUT[c]
			if row.Packed.Bit(lutD1Valid) == 1 && row.Packed.Bit(lutD2Valid) == 1 && row.Target[lutD1Slot] != row.Target[lutD2Slot] {
				return row
			}
		}
		t.Fatal("no row has a depth-1 and a depth-2 default")
		return nil
	}
	cases := map[string]func(img *Image){
		"swapped LUT targets": func(img *Image) {
			row := d2Row(img)
			row.Target[lutD1Slot], row.Target[lutD2Slot] = row.Target[lutD2Slot], row.Target[lutD1Slot]
		},
		"cleared depth-2 validity bit": func(img *Image) {
			d2Row(img).Packed.SetBit(lutD2Valid, 0)
		},
		"wrong pointer type nibble": func(img *Image) {
			loc := img.Loc[stored]
			word, off := img.Words[loc.Word], loc.bitOffset()+MatchFieldBits+ptrTypeOff
			word.SetField(off, ptrTypeBits, word.Field(off, ptrTypeBits)%15+1)
		},
		"match field off by one word": func(img *Image) {
			loc := img.Loc[output]
			_, addr := img.readMatchField(loc)
			img.Words[loc.Word].SetField(loc.bitOffset()+1, matchAddrBits, uint64(addr)+1)
		},
	}
	for name, corrupt := range cases {
		c := cloneImage(img)
		corrupt(c)
		if err := verifyImage(c, trie); err == nil {
			t.Errorf("%s: corrupted image accepted", name)
		}
	}
	if err := verifyImage(img, trie); err != nil {
		t.Fatalf("a corruption reached the original image: %v", err)
	}
}
