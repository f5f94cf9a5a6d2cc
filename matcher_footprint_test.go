package dpi

import (
	"runtime"
	"testing"
)

// What one compiled generation of the 634-string benchmark ruleset may hold
// live — the largest term of every workload's heap_live_mb, paid once per
// generation in flight during a hot reload. Measured 945 072 B in 145
// objects: the dense tier (393 KB), the trie's node table (237 KB) and edge
// arena (59 KB), the stored-pointer arena the Machine and the kernel share
// (69 KB) with their two descriptor tables (30 KB each), the prefilter
// table (61 KB), and the lookup, output and pattern-length tables; nine in
// ten of the objects are the lookup table's per-character default lists.
// OPERATIONS.md's "Sizing memory" quotes the measured figures; these are
// the gates, at +5 %.
const (
	matcherHeapCeiling    = 992_000
	matcherObjectsCeiling = 152
)

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
	t.Logf("Compile at 634 strings holds %d B in %d objects (kernel tables %d B)",
		bytes, objects, m.Kernel().TotalBytes+m.Kernel().PrefilterBytes)
	if bytes > matcherHeapCeiling {
		t.Errorf("a compiled 634-string matcher holds %d B live, ceiling %d", bytes, matcherHeapCeiling)
	}
	if objects > matcherObjectsCeiling {
		t.Errorf("a compiled 634-string matcher holds %d heap objects, ceiling %d", objects, matcherObjectsCeiling)
	}
	runtime.KeepAlive(m)
}
