// Package device models the two FPGAs the paper targets (§V.B, Table I):
// the low-power Altera Cyclone III EP3C120F484C7 and the high-performance
// Stratix III EP3SE260H780C2, both 65 nm TSMC parts. The model covers what
// the architecture-level evaluation needs:
//
//   - M9K block-RAM allocation for the three memories of a string matching
//     block (state memory, match-number memory, lookup table);
//   - a logic-element estimate calibrated to the paper's synthesis results;
//   - throughput arithmetic: a block's 6 engines each consume 1 byte per
//     engine cycle at one third of the memory clock, so a block's
//     throughput is 16 × fmax bits/s, and an accelerator's aggregate
//     throughput is blockThroughput × blocks / groupsPerPacket.
//
// fmax and the logic-element coefficients are calibration constants taken
// from Table I — they come from Quartus II synthesis, which a functional
// model cannot re-derive. Everything else is computed.
package device

import (
	"fmt"
	"math"
)

// M9K geometry: a 9-kbit block RAM usable in the aspect ratios below
// (width in bits × depth in words), true dual port.
const M9KBits = 9216

// m9kDepthFor maps a column width to the deepest supported configuration.
var m9kAspects = []struct {
	Width int
	Depth int
}{
	{36, 256},
	{18, 512},
	{9, 1024},
	{4, 2048},
	{2, 4096},
	{1, 8192},
}

// Device describes one FPGA target.
type Device struct {
	Name      string
	Part      string
	VoltageV  float64
	ProcessNm int

	// Capacity.
	LogicCells int // LEs (Cyclone) / ALUTs (Stratix)
	M9Ks       int
	M144Ks     int // Stratix III also carries 144-kbit blocks (§V.D headroom)

	// Calibrated synthesis results from Table I.
	FmaxHz float64 // maximum memory clock of the paper's implementation

	// Paper configuration of the accelerator on this device.
	Blocks             int // string matching blocks instantiated
	StateWordsPerBlock int // 324-bit words of state memory per block

	// Logic-element cost model, calibrated so that the paper configuration
	// reproduces Table I's usage (see LogicEstimate).
	leFixed    int // dispatch, clocking, I/O glue
	lePerBlock int // 6 engines + comparators + match scheduler + muxing
}

// Cyclone3 is the low-power target: 4 blocks of 2,560 words, 233.15 MHz.
var Cyclone3 = Device{
	Name:      "Cyclone III",
	Part:      "EP3C120F484C7",
	VoltageV:  1.2,
	ProcessNm: 65,

	LogicCells: 119088,
	M9Ks:       432,

	FmaxHz: 233.15e6,

	Blocks:             4,
	StateWordsPerBlock: 2560,

	leFixed:    671, // 35,511 = 671 + 4 × 8,710
	lePerBlock: 8710,
}

// Stratix3 is the high-throughput target: 6 blocks of 3,584 words,
// 460.19 MHz.
var Stratix3 = Device{
	Name:      "Stratix III",
	Part:      "EP3SE260H780C2",
	VoltageV:  1.1,
	ProcessNm: 65,

	LogicCells: 254400,
	M9Ks:       864,
	M144Ks:     48,

	FmaxHz: 460.19e6,

	Blocks:             6,
	StateWordsPerBlock: 3584,

	leFixed:    585, // 69,585 = 585 + 6 × 11,500
	lePerBlock: 11500,
}

// MemoryConfig describes the three memories of one string matching block.
type MemoryConfig struct {
	StateWords int // 324-bit words
	MatchWords int // 27-bit words (paper: 2,048)
	LUTRows    int // 49-bit rows (paper: 256)
}

// PaperMemoryConfig returns the block memory configuration the paper
// implements on d.
func (d Device) PaperMemoryConfig() MemoryConfig {
	return MemoryConfig{
		StateWords: d.StateWordsPerBlock,
		MatchWords: 2048,
		LUTRows:    256,
	}
}

// m9ksFor computes the minimum number of M9Ks implementing a depth×width
// memory, choosing column widths by exact cover over the supported aspect
// ratios.
func m9ksFor(depth, width int) int {
	if depth <= 0 || width <= 0 {
		return 0
	}
	// best[w] = fewest blocks to cover w bits of width at this depth.
	best := make([]int, width+1)
	for w := 1; w <= width; w++ {
		best[w] = math.MaxInt32
		for _, a := range m9kAspects {
			cols := 1
			blocksPerCol := (depth + a.Depth - 1) / a.Depth
			rem := w - a.Width
			if rem < 0 {
				rem = 0
			}
			if best[rem] != math.MaxInt32 {
				if v := cols*blocksPerCol + best[rem]; v < best[w] {
					best[w] = v
				}
			}
		}
	}
	return best[width]
}

// BlockM9Ks returns the number of M9Ks one string matching block needs
// under cfg.
func (d Device) BlockM9Ks(cfg MemoryConfig) int {
	state := m9ksFor(cfg.StateWords, 324)
	match := m9ksFor(cfg.MatchWords, 27)
	lut := m9ksFor(cfg.LUTRows, 49)
	return state + match + lut
}

// M9KEstimate returns the total M9K usage for the paper configuration:
// per-block memories only (the paper: "our hardware implementation only
// used the M9K block RAM on the FPGA and none of the M144K").
func (d Device) M9KEstimate() int {
	return d.Blocks * d.BlockM9Ks(d.PaperMemoryConfig())
}

// LogicEstimate returns the logic-cell usage for n blocks under the
// calibrated cost model.
func (d Device) LogicEstimate(blocks int) int {
	return d.leFixed + blocks*d.lePerBlock
}

// BlockThroughputBps is the scan rate of one string matching block:
// 6 engines × 8 bits × fmax/3 = 16 × fmax (§IV.B).
func (d Device) BlockThroughputBps() float64 {
	return 16 * d.FmaxHz
}

// AggregateThroughputBps is the accelerator's scan rate when each packet
// must be scanned by `groups` blocks (the ruleset was split into that many
// groups). blocks/groups packet sets run concurrently; blocks that cannot
// form a complete set idle.
func (d Device) AggregateThroughputBps(groups int) (float64, error) {
	if groups < 1 {
		return 0, fmt.Errorf("device: groups must be >= 1, got %d", groups)
	}
	if groups > d.Blocks {
		return 0, fmt.Errorf("device: ruleset needs %d groups but %s has only %d blocks",
			groups, d.Name, d.Blocks)
	}
	sets := d.Blocks / groups
	return float64(sets) * d.BlockThroughputBps(), nil
}

// ThroughputAtClock scales AggregateThroughputBps to an arbitrary memory
// clock (used by the power figures, which sweep the clock).
func (d Device) ThroughputAtClock(groups int, clockHz float64) (float64, error) {
	full, err := d.AggregateThroughputBps(groups)
	if err != nil {
		return 0, err
	}
	return full * clockHz / d.FmaxHz, nil
}

// GroupsNeeded returns how many blocks a machine occupying stateWords
// 324-bit words (total across groups — callers pass per-group fit checks
// separately) requires, i.e. the smallest number of groups such that each
// group fits a block's state memory. It is a convenience for sizing; exact
// packing is validated by the hwsim packer.
func (d Device) GroupsNeeded(totalStateWords int) int {
	g := (totalStateWords + d.StateWordsPerBlock - 1) / d.StateWordsPerBlock
	if g < 1 {
		g = 1
	}
	return g
}

// WithDoubledBlockMemory returns a copy of d with twice the state words per
// block, modelling §V.D's observation that the unused M144K blocks could
// double the memory available to the string matching blocks.
func (d Device) WithDoubledBlockMemory() Device {
	d2 := d
	d2.Name = d.Name + " (+M144K)"
	d2.StateWordsPerBlock *= 2
	return d2
}
