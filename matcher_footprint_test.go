package dpi

import (
	"runtime"
	"testing"
)

// What one compiled generation of the 634-string benchmark ruleset may hold
// live — the largest term of every workload's heap_live_mb, paid once per
// generation in flight during a hot reload. Measured 575 680 B in 146
// objects: the trie's node table (237 KB) and edge arena (59 KB), the
// stored-pointer arena the Machine and the kernel share (69 KB) with their
// two descriptor tables (30 KB each), the prefilter table (61 KB), the fast
// tier (23 KB: 384 bitmap rows and their 1 251 overrides), and the lookup,
// output and pattern-length tables; nine in ten of the objects are the
// lookup table's per-character default lists. OPERATIONS.md's "Sizing
// memory" quotes the measured figures; these are the gates, at +5 %.
const (
	matcherHeapCeiling    = 604_500
	matcherObjectsCeiling = 152
)

// kernelTablesCeiling is a 256 KiB L2 slice: everything the production
// kernel reads while scanning — Kernel().TotalBytes plus the prefilter's
// table, 196 248 B measured — has to fit in it together.
const kernelTablesCeiling = 256 << 10

// TestMatcherFootprint compiles the benchmark ruleset and charges the
// Matcher with everything the heap gained: bytes, and objects — a compiled
// automaton is a handful of flat arenas, and a count that grows with the
// state count means a per-state allocation has come back.
func TestMatcherFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under the race detector")
	}
	rules, err := GenerateSnortLike(634, 2010)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	liveHeap()
	runtime.ReadMemStats(&before)
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	liveHeap()
	runtime.ReadMemStats(&after)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	tables := m.Kernel().TotalBytes + m.Kernel().PrefilterBytes
	t.Logf("Compile at 634 strings holds %d B in %d objects (kernel tables %d B)", bytes, objects, tables)
	if tables > kernelTablesCeiling {
		t.Errorf("the kernel's tables take %d B at 634 strings, more than an L2 slice (%d)", tables, kernelTablesCeiling)
	}
	if bytes > matcherHeapCeiling {
		t.Errorf("a compiled 634-string matcher holds %d B live, ceiling %d", bytes, matcherHeapCeiling)
	}
	if objects > matcherObjectsCeiling {
		t.Errorf("a compiled 634-string matcher holds %d heap objects, ceiling %d", objects, matcherObjectsCeiling)
	}
	runtime.KeepAlive(m)
}
