package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
)

// Golden regression values for the default seed (2010): the exact numbers
// go run ./cmd/dpibench -table 2 prints. The test freezes them so that
// accidental changes to the generator, reducer, grouping or compression
// pipeline are caught immediately. If you change any of those components
// deliberately, update this table from that command's output.
func TestGoldenTable2Seed2010(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II build")
	}
	rows, err := ctx(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		n          int
		origStates int
		states     int
		d1         int
		d1d2       int
		d1d2d3     int
		memBytes   int
	}{
		{634, 7664, 7664, 72, 244, 364, 43884},
		{1603, 18600, 18605, 105, 399, 610, 108704},
		{2588, 29347, 29355, 114, 451, 743, 178194},
		{6275, 68274, 68296, 129, 663, 1147, 377269},
		{500, 6154, 6154, 69, 233, 346, 34967},
		{1204, 14142, 14148, 90, 338, 536, 83422},
		{2588, 29347, 29362, 115, 482, 818, 167774},
	}
	if len(rows) != len(golden) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, g := range golden {
		r := rows[i]
		if r.N != g.n {
			t.Fatalf("col %d: n = %d, want %d", i, r.N, g.n)
		}
		if r.OrigStates != g.origStates || r.States != g.states {
			t.Errorf("col %d (%d strings): states %d/%d, golden %d/%d",
				i, g.n, r.OrigStates, r.States, g.origStates, g.states)
		}
		if r.D1 != g.d1 || r.D1D2 != g.d1d2 || r.D1D2D3 != g.d1d2d3 {
			t.Errorf("col %d (%d strings): defaults %d/%d/%d, golden %d/%d/%d",
				i, g.n, r.D1, r.D1D2, r.D1D2D3, g.d1, g.d1d2, g.d1d2d3)
		}
		if r.MemoryBytes != g.memBytes {
			t.Errorf("col %d (%d strings): memory %d, golden %d", i, g.n, r.MemoryBytes, g.memBytes)
		}
	}
}

// TestGoldenD2SweepSeed2010 freezes the depth-2 ablation the same way — the
// stored pointers go run ./cmd/dpibench -ablation prints for 1 to 8 depth-2
// defaults per lookup-table row at 634 strings — and holds its k = 4 row to
// the machine Build makes, whose rows hold the paper's 4.
func TestGoldenD2SweepSeed2010(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep build")
	}
	golden := []int64{13410, 9968, 8400, 7784, 7513, 7455, 7451, 7451}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	rows, err := ctx(t).D2Sweep(634, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.D2PerChar != ks[i] || r.StoredPointers != golden[i] {
			t.Errorf("k=%d: %d stored pointers, golden %d at k=%d", r.D2PerChar, r.StoredPointers, golden[i], ks[i])
		}
	}
	set, err := ctx(t).SetOf(634)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.CompressionStats(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st != m.Stats || rows[3].StoredPointers != m.Stats.StoredPointers || rows[3].AvgStored != m.Stats.AvgStored {
		t.Fatalf("the k=4 sweep row (%d stored, %+v) is not Build's %+v", rows[3].StoredPointers, st, m.Stats)
	}
}

// The toy example's numbers are structural, not workload-dependent: they
// must hold under any seed and any refactor.
func TestGoldenFigure2(t *testing.T) {
	rows, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.6, 1.1, 0.5, 0.1}
	for i, r := range rows {
		if math.Abs(r.AvgStored-want[i]) > 1e-9 {
			t.Errorf("stage %d: %.3f, golden %.1f", i, r.AvgStored, want[i])
		}
	}
}
