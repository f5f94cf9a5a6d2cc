package dpi

// Two facts about what a ruleset build costs that hold on any runner, where
// milliseconds do not: how many allocations it makes, and how its time
// compares with one dense sweep of the same trie's move table in the same
// process. The dense-sweep builder this one replaced made about 19 000
// allocations at 634 strings and took about nine sweeps.

import (
	"testing"
	"time"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/ruleset"
)

// buildAllocCeiling bounds core.Build's allocations at 634 strings: 36
// measured (one of them the fold's window filter), plus four. None of them
// is per trie state, per pattern or per lookup-table row — the trie is a
// node table and an output arena (a state's children are consecutive, so
// there is no edge arena), and ac.Layout's scratch is one flat copy of the
// pattern bytes and one index array; ac.New checks patterns as it inserts
// them (an ID bitset, not maps of IDs and contents) and numbers states
// breadth-first, so no later pass sorts or queues them again; the defaults
// are written straight into the machine's packed lookup table, with no
// per-character lists; and the prefilter's collapsed trie is one class-row
// arena. What is left is the builder's and the machine's flat tables, a handful
// each, and the second goroutine Build starts with the channels that tell
// it Link is done, hand it the fail tree and join it.
const buildAllocCeiling = 40

func benchmarkRuleset() *ruleset.Set {
	return ruleset.MustGenerate(ruleset.GenConfig{N: 634, Seed: 2010})
}

func TestBuildAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	set := benchmarkRuleset()
	got := testing.AllocsPerRun(5, func() {
		if _, err := core.Build(set, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > buildAllocCeiling {
		t.Fatalf("core.Build makes %.0f allocations at 634 strings, ceiling %d", got, buildAllocCeiling)
	}
}

func TestBuildCostWithinFourMoveSweeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the two sides unequally")
	}
	set := benchmarkRuleset()
	trie, err := ac.New(set)
	if err != nil {
		t.Fatal(err)
	}
	best := func(f func()) time.Duration {
		d := time.Duration(1<<63 - 1)
		for range 20 {
			start := time.Now()
			f()
			d = min(d, time.Since(start))
		}
		return d
	}
	sweep := best(func() { trie.ComputeMoveStats() })
	build := best(func() {
		if _, err := core.Build(set, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if build > 4*sweep {
		t.Fatalf("core.Build takes %v, more than four dense sweeps of its own move table (%v each): "+
			"something on the build path is visiting states × 256 again", build, sweep)
	}
}
