package hwsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/ruleset"
)

// TestExportMIFsPinned pins the hardware image byte for byte: one hash over
// every group's state, match and lookup-table MIF, as cmd/mifgen writes
// them, for the paper's 634-string set in one Stratix III block and a
// 2 588-string set split over the four Cyclone III blocks. A change to
// placement, to the match-list layout or to the row format moves it; a
// refactor of how Pack derives the image must not.
func TestExportMIFsPinned(t *testing.T) {
	for _, tc := range []struct {
		strings int
		dev     device.Device
		groups  int
		want    string
	}{
		{634, device.Stratix3, 1, "89f5957216ce7ff3aec8ce2f1b82b3c971eb269fd8a51d6fa65988523fe7de64"},
		{2588, device.Cyclone3, 4, "08a10cee420c634e4540b595a337d6f1db992cc60d11f7d7eeda3234c45c450c"},
	} {
		t.Run(fmt.Sprintf("%d/%s", tc.strings, tc.dev.Name), func(t *testing.T) {
			set := ruleset.MustGenerate(ruleset.GenConfig{N: tc.strings, Seed: 2010})
			a, err := BuildAccelerator(tc.dev, set, tc.groups)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for gi, img := range a.Images {
				mifs, err := img.ExportMIFs(tc.dev.StateWordsPerBlock)
				if err != nil {
					t.Fatalf("group %d: %v", gi, err)
				}
				for _, f := range [][]byte{mifs.State, mifs.Match, mifs.LUT} {
					h.Write(f)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("the MIFs hash to %s, pinned %s", got, tc.want)
			}
		})
	}
}
