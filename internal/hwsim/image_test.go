package hwsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/ruleset"
)

// pinnedImages are the hardware images TestExportMIFsPinned pins: the
// paper's 634-string set in one Stratix III block and a 2 588-string set
// split over the four Cyclone III blocks.
var pinnedImages = []struct {
	strings int
	dev     device.Device
	groups  int
	want    string
}{
	{634, device.Stratix3, 1, "49318f0b52a6c23ee84c90473c7637088551f5cf155ff9f56621542aaa69e956"},
	{2588, device.Cyclone3, 4, "db5f429ea43b920b66c16360b290df32fcc84d6f1a838cecfb9011a41d75be22"},
}

// mifHash is one hash over every group's state, match and lookup-table
// MIF, as cmd/mifgen writes them, of set's image on dev.
func mifHash(t *testing.T, dev device.Device, set *ruleset.Set, groups int) string {
	t.Helper()
	a, err := BuildAccelerator(dev, set, groups)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for gi, img := range a.Images {
		mifs, err := img.ExportMIFs(dev.StateWordsPerBlock)
		if err != nil {
			t.Fatalf("group %d: %v", gi, err)
		}
		for _, f := range [][]byte{mifs.State, mifs.Match, mifs.LUT} {
			h.Write(f)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestExportMIFsPinned pins the hardware image byte for byte. A change to
// placement, to the match-list layout or to the row format moves it; a
// refactor of how Pack derives the image must not.
func TestExportMIFsPinned(t *testing.T) {
	for _, tc := range pinnedImages {
		t.Run(fmt.Sprintf("%d/%s", tc.strings, tc.dev.Name), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
			if got := mifHash(t, tc.dev, set, tc.groups); got != tc.want {
				t.Fatalf("the MIFs hash to %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestExportMIFsIndependentOfRuleOrder: the pinned images are functions of
// the rule set. Listed in reverse or shuffled, each rule keeping its ID,
// the same rules give the same MIF bytes.
func TestExportMIFsIndependentOfRuleOrder(t *testing.T) {
	for _, tc := range pinnedImages {
		t.Run(fmt.Sprintf("%d/%s", tc.strings, tc.dev.Name), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
			want := mifHash(t, tc.dev, set, tc.groups)
			reversed, shuffled := set.Clone(), set.Clone()
			slices.Reverse(reversed.Patterns)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Patterns), func(i, j int) {
				shuffled.Patterns[i], shuffled.Patterns[j] = shuffled.Patterns[j], shuffled.Patterns[i]
			})
			for name, s := range map[string]*ruleset.Set{"reversed": reversed, "shuffled": shuffled} {
				if got := mifHash(t, tc.dev, s, tc.groups); got != want {
					t.Fatalf("%s: the MIFs hash to %s, in generated order %s", name, got, want)
				}
			}
		})
	}
}
