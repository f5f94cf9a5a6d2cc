// Package experiments implements the paper-reproduction harness shared by
// cmd/dpibench and the top-level benchmarks: one entry point per table and
// figure of the evaluation section (§V), each returning structured rows so
// callers can render, benchmark or assert on them.
//
// Workloads follow §V.A: a 6,275-string Snort-like ruleset (synthetic — see
// internal/ruleset's generator) plus reductions to 500, 634, 1204, 1603 and 2588 strings
// preserving the length distribution. Grouping follows Table II: on
// Stratix III, 634→1, 1603→2, 2588→3, 6275→6 blocks; on Cyclone III,
// 500→1, 1204→2, 2588→4.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hwsim"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/ruleset"
	"repro/internal/tuck"
)

// DefaultSeed is the workload seed of the reproduction's published figures:
// what go run ./cmd/dpibench -all prints, and what the golden tests pin.
const DefaultSeed = 2010

// FullSetSize is the Snort ruleset size the paper evaluates.
const FullSetSize = 6275

// Context carries the generated workloads.
type Context struct {
	Seed int64
	Full *ruleset.Set
	sub  map[int]*ruleset.Set
}

// NewContext generates the full synthetic ruleset and its reductions.
func NewContext(seed int64) (*Context, error) {
	full, err := ruleset.Generate(ruleset.GenConfig{N: FullSetSize, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Context{Seed: seed, Full: full, sub: map[int]*ruleset.Set{FullSetSize: full}}, nil
}

// SetOf returns the n-string reduction (cached).
func (c *Context) SetOf(n int) (*ruleset.Set, error) {
	if s, ok := c.sub[n]; ok {
		return s, nil
	}
	s, err := c.Full.Reduce(n, c.Seed+int64(n))
	if err != nil {
		return nil, err
	}
	c.sub[n] = s
	return s, nil
}

// --- Table I ---

// Table1Row compares modeled resource usage against the paper's synthesis
// results for one device.
type Table1Row struct {
	Device     string
	LogicModel int
	LogicPaper int
	LogicCap   int
	M9KModel   int
	M9KPaper   int
	M9KCap     int
	FmaxMHz    float64 // calibration constant from the paper
}

// Table1 reproduces Table I (resource utilization).
func Table1() []Table1Row {
	paper := map[string]struct{ le, m9k int }{
		device.Cyclone3.Part: {35511, 404},
		device.Stratix3.Part: {69585, 822},
	}
	var rows []Table1Row
	for _, d := range []device.Device{device.Cyclone3, device.Stratix3} {
		p := paper[d.Part]
		rows = append(rows, Table1Row{
			Device:     d.Name,
			LogicModel: d.LogicEstimate(d.Blocks),
			LogicPaper: p.le,
			LogicCap:   d.LogicCells,
			M9KModel:   d.M9KEstimate(),
			M9KPaper:   p.m9k,
			M9KCap:     d.M9Ks,
			FmaxMHz:    d.FmaxHz / 1e6,
		})
	}
	return rows
}

// --- Table II ---

// Table2Config is one column of Table II.
type Table2Config struct {
	Device device.Device
	N      int
	Groups int
}

// Table2Configs returns the paper's seven columns.
func Table2Configs() []Table2Config {
	return []Table2Config{
		{device.Stratix3, 634, 1},
		{device.Stratix3, 1603, 2},
		{device.Stratix3, 2588, 3},
		{device.Stratix3, 6275, 6},
		{device.Cyclone3, 500, 1},
		{device.Cyclone3, 1204, 2},
		{device.Cyclone3, 2588, 4},
	}
}

// Table2Row holds every quantity of one Table II column.
type Table2Row struct {
	Device string
	N      int
	Blocks int // groups the ruleset splits into

	// Original Aho-Corasick (ungrouped machine).
	OrigStates int
	OrigAvg    float64

	// Our method (grouped machines; counts summed over groups).
	States       int
	D1           int
	AvgAfterD1   float64
	D1D2         int
	AvgAfterD12  float64
	D1D2D3       int
	AvgAfterD123 float64
	ReductionPct float64
	MemoryBytes  int // packed: state words + match words + LUT rows
	SpeedGbps    float64
}

// Table2One computes one Table II column.
func (c *Context) Table2One(cfg Table2Config) (Table2Row, error) {
	set, err := c.SetOf(cfg.N)
	if err != nil {
		return Table2Row{}, err
	}
	// Original Aho-Corasick stats come from the ungrouped machine.
	single, err := core.Build(set, core.Options{})
	if err != nil {
		return Table2Row{}, err
	}
	grouped, err := core.BuildGrouped(set, cfg.Groups, core.Options{})
	if err != nil {
		return Table2Row{}, err
	}
	gs := grouped.CombinedStats()
	row := Table2Row{
		Device:       cfg.Device.Name,
		N:            cfg.N,
		Blocks:       cfg.Groups,
		OrigStates:   single.Stats.States,
		OrigAvg:      single.Stats.OriginalAvg,
		States:       gs.States,
		D1:           gs.D1Count,
		AvgAfterD1:   gs.AvgAfterD1,
		D1D2:         gs.D1Count + gs.D2Count,
		AvgAfterD12:  gs.AvgAfterD12,
		D1D2D3:       gs.D1Count + gs.D2Count + gs.D3Count,
		AvgAfterD123: gs.AvgAfterD123,
		// Reduction vs the ungrouped original, as the paper reports it.
		ReductionPct: 100 * (1 - float64(gs.StoredPointers)/float64(single.Stats.OriginalPointers)),
	}
	// The device packs each group, refuses one that overflows a block, and
	// reports the paper-metric memory and the modelled rate.
	acc, err := hwsim.NewAccelerator(cfg.Device, grouped)
	if err != nil {
		return Table2Row{}, err
	}
	st := acc.Stats()
	row.MemoryBytes = st.TotalBytes
	row.SpeedGbps = st.ThroughputBps / 1e9
	return row, nil
}

// Table2 computes all columns.
func (c *Context) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range Table2Configs() {
		row, err := c.Table2One(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table III ---

// Table3Row is one comparison entry.
type Table3Row struct {
	Approach    string
	Device      string
	MemoryBytes int
	Throughput  float64 // Gbps
	Source      string  // "measured" or "reported in [13]"
}

// Table3 reproduces the performance comparison on a 19,124-character
// subset: our method (measured, packed), the paper's citations of [13]
// (reported constants), and our reimplementations of [13] (measured), so
// both the paper's exact comparison and an independently reproduced one
// are visible.
func (c *Context) Table3() ([]Table3Row, error) {
	sub, err := c.Full.ReduceToChars(19124, c.Seed+3)
	if err != nil {
		return nil, err
	}
	grouped, err := core.BuildGrouped(sub, 2, core.Options{})
	if err != nil {
		return nil, err
	}
	ours := 0
	for _, m := range grouped.Machines {
		img, err := hwsim.Pack(m)
		if err != nil {
			return nil, err
		}
		ours += img.Stats.TotalBytesPaper
	}
	cyc, err := device.Cyclone3.AggregateThroughputBps(2)
	if err != nil {
		return nil, err
	}
	str, err := device.Stratix3.AggregateThroughputBps(2)
	if err != nil {
		return nil, err
	}

	bm, err := tuck.BuildBitmap(sub)
	if err != nil {
		return nil, err
	}
	pc, err := tuck.BuildPath(sub)
	if err != nil {
		return nil, err
	}
	return []Table3Row{
		{"Our method", "Cyclone 3", ours, cyc / 1e9, "measured"},
		{"Our method", "Stratix 3", ours, str / 1e9, "measured"},
		{"Bitmap [13]", "ASIC", 2800000, 7.8, "reported in [13]"},
		{"Path compression [13]", "ASIC", 1100000, 7.8, "reported in [13]"},
		{"Bitmap (reimplemented)", "model", bm.MemoryBytes(true), 7.8, "measured"},
		{"Path compression (reimplemented)", "model", pc.MemoryBytes(), 7.8, "measured"},
	}, nil
}

// --- Figure 2 (§III.B walkthrough) ---

// Figure2Row is the toy-example compression trace.
type Figure2Row struct {
	Stage      string
	AvgStored  float64
	PaperValue float64
}

// Figure2 reproduces the he/she/his/hers example: average stored pointers
// 1.1 → 0.5 → 0.1 as default depths are added.
func Figure2() ([]Figure2Row, error) {
	toy := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("he")},
		{ID: 1, Data: []byte("she")},
		{ID: 2, Data: []byte("his")},
		{ID: 3, Data: []byte("hers")},
	}}
	m, err := core.Build(toy, core.Options{})
	if err != nil {
		return nil, err
	}
	st := m.Stats
	return []Figure2Row{
		{"original (Figure 1)", st.OriginalAvg, 2.5},
		{"+ depth-1 defaults (Figure 2A)", st.AvgAfterD1, 1.1},
		{"+ depth-2 defaults (Figure 2B)", st.AvgAfterD12, 0.5},
		{"+ depth-3 defaults (Figure 2C)", st.AvgAfterD123, 0.1},
	}, nil
}

// --- Figure 6 ---

// Figure6 returns one series per ruleset size: x = string length (50 means
// 50+), y = number of strings.
func (c *Context) Figure6() ([]report.Series, error) {
	var out []report.Series
	for _, n := range []int{500, 634, 1204, 1603, 2588, 6275} {
		set, err := c.SetOf(n)
		if err != nil {
			return nil, err
		}
		s := report.Series{Name: fmt.Sprintf("%d Rules", n)}
		for _, b := range ruleset.LengthHistogram(set) {
			s.Points = append(s.Points, [2]float64{float64(b.Length), float64(b.Count)})
		}
		out = append(out, s)
	}
	return out, nil
}

// --- Figures 7 and 8 ---

// powerFigure builds the power-vs-throughput series for one device.
func powerFigure(d device.Device, curves []struct {
	n      int
	groups int
}, steps int) ([]report.Series, error) {
	model, err := power.ModelFor(d)
	if err != nil {
		return nil, err
	}
	var out []report.Series
	for _, cv := range curves {
		pts, err := model.Sweep(cv.groups, steps)
		if err != nil {
			return nil, err
		}
		s := report.Series{Name: fmt.Sprintf("%d Strings", cv.n)}
		for _, p := range pts {
			s.Points = append(s.Points, [2]float64{p.PowerW, p.ThroughputGbps})
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure7 is the Cyclone III power sweep (x = power W, y = throughput
// Gbps) for the 500/1204/2588-string rulesets.
func Figure7(steps int) ([]report.Series, error) {
	return powerFigure(device.Cyclone3, []struct {
		n      int
		groups int
	}{{500, 1}, {1204, 2}, {2588, 4}}, steps)
}

// Figure8 is the Stratix III power sweep for 634/1603/2588/6275 strings.
func Figure8(steps int) ([]report.Series, error) {
	return powerFigure(device.Stratix3, []struct {
		n      int
		groups int
	}{{634, 1}, {1603, 2}, {2588, 3}, {6275, 6}}, steps)
}
