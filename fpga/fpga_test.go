package fpga_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	dpi "repro"
	"repro/fpga"
	"repro/internal/traffic"
)

func TestAcceleratorEndToEnd(t *testing.T) {
	rs, err := dpi.GenerateSnortLike(600, 31)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fpga.New(m, fpga.Stratix3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three packets, the second carrying a known pattern.
	target := rs.Content(17)
	payloads := [][]byte{
		bytes.Repeat([]byte("clean traffic "), 40),
		append(append(bytes.Repeat([]byte{0xAB}, 100), target...), bytes.Repeat([]byte{0xCD}, 100)...),
		bytes.Repeat([]byte("more clean bytes"), 30),
	}
	matches, err := a.ScanPackets(payloads)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mt := range matches {
		if mt.PacketID == 1 && mt.PatternID == 17 {
			if mt.Start != 100 || mt.End != 100+len(target) {
				t.Fatalf("match offsets %+v", mt)
			}
			found = true
		}
		if mt.PacketID < 0 || mt.PacketID > 2 {
			t.Fatalf("bad packet ID %+v", mt)
		}
	}
	if !found {
		t.Fatal("pattern 17 not found in packet 1")
	}

	rep := a.Report()
	if rep.Device != "Stratix III" || rep.Blocks != 6 || rep.Groups != 2 || rep.ConcurrentSets != 3 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.ThroughputGbps < 22 || rep.ThroughputGbps > 22.2 {
		t.Fatalf("throughput %.2f, want 22.1 (Table II)", rep.ThroughputGbps)
	}
	if rep.MaxPowerW != 13.28 {
		t.Fatalf("max power %.2f, want 13.28", rep.MaxPowerW)
	}
}

func TestAcceleratorPowerSweep(t *testing.T) {
	rs, err := dpi.GenerateSnortLike(200, 41)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fpga.New(m, fpga.Cyclone3, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := a.PowerSweep(10)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if last[0] < 14.8 || last[0] > 15.0 {
		t.Fatalf("top throughput %.2f Gbps, want 14.9", last[0])
	}
	if last[1] != 2.78 {
		t.Fatalf("top power %.2f W, want 2.78", last[1])
	}
}

func TestDeviceString(t *testing.T) {
	for d, want := range map[fpga.Device]string{
		fpga.Cyclone3:        "Cyclone III",
		fpga.Stratix3:        "Stratix III",
		fpga.Stratix3Doubled: "Stratix III (+M144K)",
	} {
		if got := d.String(); got != want {
			t.Errorf("Device(%d).String() = %q, want %q", d, got, want)
		}
	}
	if !strings.Contains(fpga.Device(99).String(), "unknown") {
		t.Error("unknown device not reported")
	}
}

func TestAcceleratorRejectsOversizedGroups(t *testing.T) {
	rs, err := dpi.GenerateSnortLike(800, 51)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpga.New(m, fpga.Cyclone3, 6); err == nil {
		t.Fatal("6 groups accepted on a 4-block device")
	}
	if _, err := fpga.New(m, fpga.Cyclone3, -1); err == nil {
		t.Fatal("a negative group count accepted")
	}
}

// TestAcceleratorChoosesSmallestFit: groups == 0 splits the ruleset into the
// fewest groups whose images fit the device's blocks — two on the Cyclone
// III for the 1 603-string set, which one of its blocks cannot hold and one
// Stratix III block can.
func TestAcceleratorChoosesSmallestFit(t *testing.T) {
	rs, err := dpi.GenerateSnortLike(1603, 2010)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rs, dpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpga.New(m, fpga.Cyclone3, 1); err == nil {
		t.Fatal("1 603 strings fit one Cyclone III block; the fit case tests nothing")
	}
	a, err := fpga.New(m, fpga.Cyclone3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := a.Report(); rep.Groups != 2 || rep.ConcurrentSets != 2 || rep.StateWordsMax > rep.StateWordsCap {
		t.Fatalf("auto fit: %+v, want 2 groups in 2 sets within the block", rep)
	}
	if a, err = fpga.New(m, fpga.Stratix3, 0); err != nil || a.Report().Groups != 1 {
		t.Fatalf("the same set fits one Stratix III block: %v", err)
	}
}

// attackPayloads builds a deterministic attack-laden workload over rules.
func attackPayloads(t *testing.T, rules *dpi.Ruleset, cfg traffic.Config) [][]byte {
	t.Helper()
	pkts, err := traffic.Generate(rules.InternalSet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(pkts))
	for i, p := range pkts {
		payloads[i] = p.Payload
	}
	return payloads
}

// checkAgainstFindAll packs m's ruleset for dev, split across groups blocks,
// and requires the hardware model's scan-out of payloads to be the software
// oracle's exactly: FindAll — one machine, whatever the split — per payload
// stamped with the packet index, same matches in the same canonical
// (PacketID, End, PatternID) order. At groups > 1 this is the
// grouped-equals-ungrouped proof.
func checkAgainstFindAll(t *testing.T, m *dpi.Matcher, dev fpga.Device, groups int, payloads [][]byte) {
	t.Helper()
	a, err := fpga.New(m, dev, groups)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := a.ScanPackets(payloads)
	if err != nil {
		t.Fatal(err)
	}
	var want []dpi.Match
	for pid, p := range payloads {
		for _, mt := range m.FindAll(p) {
			mt.PacketID = pid
			want = append(want, mt)
		}
	}
	if len(want) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	if len(hw) != len(want) {
		t.Fatalf("accelerator found %d matches, FindAll %d", len(hw), len(want))
	}
	for i := range hw {
		if hw[i] != want[i] {
			t.Fatalf("match %d: accelerator %+v, FindAll %+v", i, hw[i], want[i])
		}
	}
}

// TestAcceleratorAgreesWithFindAll pins the cross-layer guarantee: the
// hardware-model accelerator and the software matcher return the same
// matches in the same canonical order, on both devices — an empty payload
// among the packets included, which matches nothing on either side.
func TestAcceleratorAgreesWithFindAll(t *testing.T) {
	for _, tc := range []struct {
		strings int
		seed    int64
		dev     fpga.Device
		traffic traffic.Config
	}{
		{600, 31, fpga.Stratix3, traffic.Config{Packets: 12, Bytes: 900, Seed: 17, AttackDensity: 2, Profile: traffic.Textual}},
		{1204, 2010, fpga.Cyclone3, traffic.Config{Packets: 16, Bytes: 1200, Seed: 99, AttackDensity: 1.5, Profile: traffic.Textual}},
	} {
		t.Run(tc.dev.String(), func(t *testing.T) {
			rules, err := dpi.GenerateSnortLike(tc.strings, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dpi.Compile(rules, dpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			payloads := attackPayloads(t, rules, tc.traffic)
			payloads = slices.Insert(payloads, 1, []byte{})
			checkAgainstFindAll(t, m, tc.dev, 2, payloads)
		})
	}
}

// TestAcceleratorEquivalenceProperty is the hardware leg of the root
// package's TestScanAPIEquivalenceProperty, over the same randomized
// rulesets and traffic profiles, split across 1, 2 and 3 blocks.
func TestAcceleratorEquivalenceProperty(t *testing.T) {
	profiles := []traffic.Profile{traffic.Uniform, traffic.Textual, traffic.Zeroish}
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			seed := int64(1000 + 37*trial)
			rules, err := dpi.GenerateSnortLike(80+40*trial, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dpi.Compile(rules, dpi.Config{})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFindAll(t, m, fpga.Stratix3, 1+trial%3, attackPayloads(t, rules, traffic.Config{
				Packets: 10, Bytes: 300 + 50*trial, Seed: seed,
				AttackDensity: 1.5, Profile: profiles[trial%len(profiles)],
			}))
		})
	}
}

// TestPipelineAdversarialParity: on a worst-case stream (every byte a
// failed deep match) the accelerator and the software matcher still agree.
// The stream ends in one whole pattern, so the parity covers a match
// whatever deep-but-failing paths Adversarial picks.
func TestPipelineAdversarialParity(t *testing.T) {
	rules, err := dpi.GenerateSnortLike(300, 55)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := rules.InternalSet()
	payload, err := traffic.Adversarial(set, 6000, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, set.Patterns[0].Data...)
	checkAgainstFindAll(t, m, fpga.Stratix3, 1, [][]byte{payload})
}
