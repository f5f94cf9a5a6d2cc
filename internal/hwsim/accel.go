package hwsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ruleset"
)

// Accelerator simulates the full FPGA design: device.Blocks string matching
// blocks organized into sets. A ruleset split into G groups occupies G
// blocks per set, every block of a set scanning the same packets for its
// group's strings; blocks/G independent sets scan distinct packets
// concurrently (§IV.B: "For rulesets containing fewer strings, the entire
// search structure can be placed on a single memory block, with the search
// engines working separately on individual packets, achieving maximum
// throughput").
type Accelerator struct {
	Device device.Device
	Images []*Image // one per group
	Groups int
	Sets   int
	Blocks []*Block // Sets × Groups blocks; block i serves group i%Groups
}

// NewAccelerator packs each group machine and validates it against the
// device's per-block memory.
func NewAccelerator(dev device.Device, grouped *core.Grouped) (*Accelerator, error) {
	groups := len(grouped.Machines)
	if groups == 0 {
		return nil, fmt.Errorf("hwsim: no group machines")
	}
	if groups > dev.Blocks {
		return nil, fmt.Errorf("hwsim: ruleset needs %d groups but %s has %d blocks",
			groups, dev.Name, dev.Blocks)
	}
	a := &Accelerator{Device: dev, Groups: groups, Sets: dev.Blocks / groups}
	for gi, m := range grouped.Machines {
		img, err := Pack(m)
		if err != nil {
			return nil, fmt.Errorf("hwsim: group %d: %w", gi, err)
		}
		if img.Stats.StateWords > dev.StateWordsPerBlock {
			return nil, fmt.Errorf(
				"hwsim: group %d needs %d state words, a %s block holds %d (split into more groups)",
				gi, img.Stats.StateWords, dev.Name, dev.StateWordsPerBlock)
		}
		a.Images = append(a.Images, img)
	}
	for set := 0; set < a.Sets; set++ {
		for g := 0; g < groups; g++ {
			a.Blocks = append(a.Blocks, NewBlock(a.Images[g]))
		}
	}
	return a, nil
}

// BuildAccelerator compiles set for dev, split across groups blocks — the
// split exists so each machine fits a block's state memory (§IV.B).
// groups == 0 picks the smallest count whose every image fits a dev block.
func BuildAccelerator(dev device.Device, set *ruleset.Set, groups int) (*Accelerator, error) {
	lo, hi := groups, groups
	if groups == 0 {
		lo, hi = 1, dev.Blocks
	}
	var misfit error
	for n := lo; n <= hi; n++ {
		grouped, err := core.BuildGrouped(set, n, core.Options{})
		if err != nil {
			return nil, err
		}
		a, err := NewAccelerator(dev, grouped)
		if err == nil {
			return a, nil
		}
		misfit = err
	}
	return nil, fmt.Errorf("hwsim: ruleset does not fit %s in %d groups: %w", dev.Name, hi, misfit)
}

// ScanPackets distributes packets round-robin over the sets, broadcasts
// each set's share to all blocks of the set, and merges the outputs. An
// empty packet matches nothing, so it takes no engine and no cycle.
func (a *Accelerator) ScanPackets(packets []Packet) ([]Output, error) {
	shares := make([][]Packet, a.Sets)
	next := 0
	for _, p := range packets {
		if len(p.Payload) == 0 {
			continue
		}
		shares[next%a.Sets] = append(shares[next%a.Sets], p)
		next++
	}
	var outputs []Output
	for set := 0; set < a.Sets; set++ {
		for g := 0; g < a.Groups; g++ {
			block := a.Blocks[set*a.Groups+g]
			out, err := block.ScanPackets(shares[set])
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, out...)
		}
	}
	sortOutputs(outputs)
	return outputs, nil
}

// Stats aggregates block statistics.
type AccelStats struct {
	Blocks        int
	Groups        int
	Sets          int
	MemCycles     int64 // max over blocks: wall-clock in memory ticks
	BytesScanned  int64 // unique payload bytes scanned (one set's share each)
	Matches       int64
	ThroughputBps float64 // modeled steady-state rate at the device clock
	StateWords    int     // max words over group images
	MatchWords    int
	TotalBytes    int // paper-metric memory across groups
	FillRatio     float64
}

// Stats summarizes the accelerator after one or more ScanPackets calls.
func (a *Accelerator) Stats() AccelStats {
	st := AccelStats{Blocks: len(a.Blocks), Groups: a.Groups, Sets: a.Sets}
	var usedBits, capBits int
	for _, img := range a.Images {
		if img.Stats.StateWords > st.StateWords {
			st.StateWords = img.Stats.StateWords
		}
		st.MatchWords += img.Stats.MatchWordsUsed
		st.TotalBytes += img.Stats.TotalBytesPaper
		usedBits += img.Stats.UsedStateBits
		capBits += img.Stats.StateWords * WordBits
	}
	if capBits > 0 {
		st.FillRatio = float64(usedBits) / float64(capBits)
	}
	for i, b := range a.Blocks {
		if b.Stats.MemCycles > st.MemCycles {
			st.MemCycles = b.Stats.MemCycles
		}
		st.Matches += b.Stats.Matches
		// Count each set's bytes once (group 0 of each set).
		if i%a.Groups == 0 {
			st.BytesScanned += b.Stats.BytesScanned
		}
	}
	if t, err := a.Device.AggregateThroughputBps(a.Groups); err == nil {
		st.ThroughputBps = t
	}
	return st
}
