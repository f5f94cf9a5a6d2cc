// Package fpga is the functional model of the paper's FPGA design: a
// dpi.Matcher's ruleset, split into as many groups as the device's block
// memory needs, packed into bit-packed block memory images and scanned by 6
// engines per string matching block, with the modeled
// resource, throughput and power figures of Tables I-II and Figures 7-8.
// It is the hardware half of the reproduction; the software sensor (package
// dpi: Matcher, Stream, Gateway) does not depend on it.
package fpga

import (
	"fmt"

	dpi "repro"
	"repro/internal/device"
	"repro/internal/hwsim"
	"repro/internal/power"
)

// Device selects an FPGA target for the hardware model.
type Device int

// The two devices the paper implements (§V.B, Table I).
const (
	// Cyclone3 is the low-power Altera Cyclone III EP3C120F484C7:
	// 4 string matching blocks, 233.15 MHz, up to 14.9 Gbps.
	Cyclone3 Device = iota
	// Stratix3 is the Altera Stratix III EP3SE260H780C2: 6 blocks,
	// 460.19 MHz, up to 44.2 Gbps (OC-768).
	Stratix3
	// Stratix3Doubled models §V.D's headroom observation: repurposing the
	// unused M144K RAM doubles each block's state memory.
	Stratix3Doubled
)

func (d Device) model() (device.Device, error) {
	switch d {
	case Cyclone3:
		return device.Cyclone3, nil
	case Stratix3:
		return device.Stratix3, nil
	case Stratix3Doubled:
		return device.Stratix3.WithDoubledBlockMemory(), nil
	}
	return device.Device{}, fmt.Errorf("fpga: unknown device %d", d)
}

// String returns the device name.
func (d Device) String() string {
	m, err := d.model()
	if err != nil {
		return "unknown"
	}
	return m.Name
}

// Accelerator is a functional model of the paper's FPGA design built from
// a compiled matcher: bit-packed block memory images, 6 engines per block,
// group replication or splitting across blocks.
type Accelerator struct {
	dev    device.Device
	hw     *hwsim.Accelerator
	patLen map[int32]int // pattern ID to byte length, for Match.Start
}

// New compiles the matcher's ruleset, with the options the matcher was
// compiled with, for the device: split across groups string matching blocks
// (the paper's answer to a machine that outgrows a block's state memory,
// §IV.B) and packed into block memory images. groups == 0 chooses the
// smallest split whose every image fits a block. It fails when an image does
// not fit (ask for more groups), when the device has fewer blocks than
// groups, or when the ruleset cannot be split that many ways. The software
// matcher itself is always one machine; the split is this model's alone.
func New(m *dpi.Matcher, d Device, groups int) (*Accelerator, error) {
	dev, err := d.model()
	if err != nil {
		return nil, err
	}
	hw, err := hwsim.BuildAccelerator(dev, m.Rules().InternalSet(), groups, m.InternalMachine().Opts)
	if err != nil {
		return nil, err
	}
	patterns := m.Rules().InternalSet().Patterns
	patLen := make(map[int32]int, len(patterns))
	for _, p := range patterns {
		patLen[int32(p.ID)] = len(p.Data)
	}
	return &Accelerator{dev: dev, hw: hw, patLen: patLen}, nil
}

// ScanPackets scans each payload as an independent packet across the
// accelerator's block sets and returns all matches with PacketID set to the
// payload index, in canonical (PacketID, End, PatternID) order: the matches
// for packet i are exactly Matcher.FindAll(payloads[i]) with PacketID set to
// i, so the hardware model and the software matcher are byte-for-byte
// comparable.
func (a *Accelerator) ScanPackets(payloads [][]byte) ([]dpi.Match, error) {
	packets := make([]hwsim.Packet, len(payloads))
	for i, p := range payloads {
		packets[i] = hwsim.Packet{ID: i, Payload: p}
	}
	outs, err := a.hw.ScanPackets(packets)
	if err != nil {
		return nil, err
	}
	matches := make([]dpi.Match, len(outs))
	for i, o := range outs {
		matches[i] = dpi.Match{
			PatternID: int(o.PatternID),
			Start:     o.End - a.patLen[o.PatternID],
			End:       o.End,
			PacketID:  o.PacketID,
		}
	}
	return matches, nil
}

// Report summarizes the accelerator's modeled implementation.
type Report struct {
	Device         string
	Blocks         int
	Groups         int
	ConcurrentSets int
	StateWordsMax  int // widest group image, per block (capacity check)
	StateWordsCap  int
	MatchWords     int
	MemoryBytes    int // paper-metric total across groups
	FillRatio      float64
	ThroughputGbps float64
	M9KBlocks      int
	LogicElements  int
	MaxPowerW      float64
	PowerAtIdleW   float64
}

// Report returns the modeled resource/performance summary (Tables I-II).
func (a *Accelerator) Report() Report {
	st := a.hw.Stats()
	r := Report{
		Device:         a.dev.Name,
		Blocks:         a.dev.Blocks,
		Groups:         st.Groups,
		ConcurrentSets: st.Sets,
		StateWordsMax:  st.StateWords,
		StateWordsCap:  a.dev.StateWordsPerBlock,
		MatchWords:     st.MatchWords,
		MemoryBytes:    st.TotalBytes,
		FillRatio:      st.FillRatio,
		ThroughputGbps: st.ThroughputBps / 1e9,
		M9KBlocks:      a.dev.M9KEstimate(),
		LogicElements:  a.dev.LogicEstimate(a.dev.Blocks),
	}
	if pm, err := power.ModelFor(a.dev); err == nil {
		r.MaxPowerW = pm.MaxPower()
		r.PowerAtIdleW = pm.PowerAt(0, a.dev.Blocks)
	}
	return r
}

// PowerSweep returns (throughput Gbps, power W) samples across the clock
// range, the series plotted in Figures 7 and 8.
func (a *Accelerator) PowerSweep(steps int) ([][2]float64, error) {
	pm, err := power.ModelFor(a.dev)
	if err != nil {
		return nil, err
	}
	pts, err := pm.Sweep(a.hw.Groups, steps)
	if err != nil {
		return nil, err
	}
	out := make([][2]float64, len(pts))
	for i, p := range pts {
		out[i] = [2]float64{p.ThroughputGbps, p.PowerW}
	}
	return out, nil
}
