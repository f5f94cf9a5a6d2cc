package experiments

import (
	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/traffic"
	"repro/internal/tuck"
)

// --- Depth-2 default count ablation (§III.B: "We found through testing of
// strings used in the Snort ruleset that 4 was the optimum value.") ---

// D2SweepRow reports the memory trade-off at one depth-2 defaults-per-
// character setting.
type D2SweepRow struct {
	D2PerChar      int
	StoredPointers int64
	AvgStored      float64
	// StateBytes is the analytic state-machine size: 12 bits per state +
	// 24 per stored pointer (packing granularity excluded so the trend is
	// not quantized by word fill).
	StateBytes int
	// LUTBytes grows with the per-row entry count: 1 + 8k + 16 bits × 256.
	LUTBytes int
	// TotalBytes is what the optimum minimizes.
	TotalBytes int
}

// D2Sweep varies the depth-2 default count on the n-string set. The paper's
// claim reproduces as a memory-vs-k curve that flattens at k ≈ 4: beyond
// that, each added lookup-table column buys almost no pointer removals.
func (c *Context) D2Sweep(n int, ks []int) ([]D2SweepRow, error) {
	set, err := c.SetOf(n)
	if err != nil {
		return nil, err
	}
	var rows []D2SweepRow
	for _, k := range ks {
		st, err := core.CompressionStats(set, k)
		if err != nil {
			return nil, err
		}
		stateBits := 12*st.States + 24*int(st.StoredPointers)
		lutBits := 256 * (1 + 8*k + 16)
		rows = append(rows, D2SweepRow{
			D2PerChar:      k,
			StoredPointers: st.StoredPointers,
			AvgStored:      st.AvgStored,
			StateBytes:     (stateBits + 7) / 8,
			LUTBytes:       (lutBits + 7) / 8,
			TotalBytes:     (stateBits+lutBits+7)/8 + 1,
		})
	}
	return rows, nil
}

// --- Worst-case throughput (the fail-pointer contrast of §III.A) ---

// AdversarialRow compares matching disciplines on a worst-case stream.
type AdversarialRow struct {
	Approach     string
	StepsPerChar float64
	// ThroughputFraction is the worst-case fraction of nominal line rate a
	// hardware engine taking one memory access per automaton step would
	// sustain: 1/StepsPerChar.
	ThroughputFraction float64
}

// Adversarial scans a fail-chain-stressing payload with the paper's
// machine (guaranteed 1 transition/char), the classic goto/fail automaton
// and the two [13] baselines, which all use fail pointers.
func (c *Context) Adversarial(n, payloadBytes int) ([]AdversarialRow, error) {
	set, err := c.SetOf(n)
	if err != nil {
		return nil, err
	}
	payload, err := traffic.Adversarial(set, payloadBytes, c.Seed)
	if err != nil {
		return nil, err
	}

	trie, err := ac.New(set)
	if err != nil {
		return nil, err
	}
	fm := ac.NewFailMatcher(trie)
	fm.FindAll(payload)

	bm, err := tuck.BuildBitmap(set)
	if err != nil {
		return nil, err
	}
	bm.FindAll(payload)

	pc, err := tuck.BuildPath(set)
	if err != nil {
		return nil, err
	}
	pc.FindAll(payload)

	// The paper's machine takes exactly one transition per character by
	// construction; assert it anyway via the scanner position accounting.
	m, err := core.Build(set, core.Options{})
	if err != nil {
		return nil, err
	}
	sc := m.NewScanner()
	sc.Scan(payload, func(ac.Match) {})
	oursSteps := float64(sc.Pos()) / float64(len(payload))

	rows := []AdversarialRow{
		{"Our method (move function + DTP)", oursSteps, 1 / oursSteps},
		{"Aho-Corasick goto/fail", fm.StepsPerChar(), 1 / fm.StepsPerChar()},
		{"Bitmap [13]", bm.StepsPerChar(), 1 / bm.StepsPerChar()},
		{"Path compression [13]", pc.StepsPerChar(), 1 / pc.StepsPerChar()},
	}
	return rows, nil
}
