package dpi

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
)

// What one compiled generation may hold live — the largest term of every
// workload's heap_live_mb, paid once per generation in flight during a hot
// reload — at three of the paper's ruleset sizes. At 634 strings, the
// benchmark's, it is 136 288 B in 15 objects: the state memory the Machine
// and the kernel share — 7 449 stored pointers of 4 B (30 KB) and its one
// row index, a 4-byte descriptor per state (30 KB) — the fast tier (23 KB:
// 384 bitmap rows and their 1 257 overrides, plus the 1.5 KB of stored-row
// descriptors promotion displaced), the prefilter table (19 KB: a row for
// each of the 155 states the skim loop steps from, of 480 collapsed
// states), the one lookup table both interpreters read (11 KB, inside the
// Machine's own object) and the output table, each distinct match list
// stored once. No trie and no per-character default lists: Build lets its
// scaffolding go. The gate is per automaton state, because that is how a
// regression would arrive — a structure with an entry per state, 4 B of it
// a fifth of the budget — and because at 6 275 strings it is megabytes;
// and on objects, because a count that moves at all means a per-row or
// per-state allocation has come back. OPERATIONS.md's "What the budget
// buys" quotes the measured figures; these are the gates, at +5 %.
var matcherFootprints = []struct {
	strings       int
	bytesPerState float64 // measured 18.43, 15.16, 15.88
	objects       int64   // measured 15, 15, 15
}{
	{634, 19.35, 16},
	{1204, 15.92, 16},
	{6275, 16.67, 16},
}

// kernelTablesCeiling is a 256 KiB L2 slice: everything the production
// kernel reads while scanning — Kernel().TotalBytes plus the prefilter's
// table, 122 464 B measured at the benchmark's 634 strings and 197 664 B at
// 1 204 — has to fit in it together, at both sizes.
const kernelTablesCeiling = 256 << 10

// TestMatcherFootprint compiles each ruleset and charges the Matcher with
// everything the heap gained: bytes, and objects — a compiled automaton is
// a handful of flat arenas, and a count that grows with the state count
// means a per-state allocation has come back. Each size is compiled three
// times and the least gain kept: an allocation of the runtime's own that
// lands between the two heap reads only ever adds.
func TestMatcherFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under the race detector")
	}
	for _, tc := range matcherFootprints {
		rules, err := GenerateSnortLike(tc.strings, 2010)
		if err != nil {
			t.Fatal(err)
		}
		var m *Matcher
		bytes, objects := int64(math.MaxInt64), int64(math.MaxInt64)
		for range 3 {
			var before, after runtime.MemStats
			liveHeap()
			runtime.ReadMemStats(&before)
			if m, err = Compile(rules, Config{}); err != nil {
				t.Fatal(err)
			}
			liveHeap()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, int64(after.HeapAlloc)-int64(before.HeapAlloc))
			objects = min(objects, int64(after.HeapObjects)-int64(before.HeapObjects))
			runtime.KeepAlive(m)
		}
		states := m.Stats().States
		tables := m.Kernel().TotalBytes + m.Kernel().PrefilterBytes
		t.Logf("Compile at %d strings holds %d B in %d objects: %.2f B for each of %d states (kernel tables %d B)",
			tc.strings, bytes, objects, float64(bytes)/float64(states), states, tables)
		if tc.strings <= 1204 && tables > kernelTablesCeiling {
			t.Errorf("the kernel's tables take %d B at %d strings, more than an L2 slice (%d)", tables, tc.strings, kernelTablesCeiling)
		}
		if per := float64(bytes) / float64(states); per > tc.bytesPerState {
			t.Errorf("a compiled %d-string matcher holds %.2f B live per state (%d B), ceiling %.2f",
				tc.strings, per, bytes, tc.bytesPerState)
		}
		if objects > tc.objects {
			t.Errorf("a compiled %d-string matcher holds %d heap objects, ceiling %d", tc.strings, objects, tc.objects)
		}
	}
}

// TestMatcherAndGatewayHoldNoTrie is the claim above as a fact about types:
// nothing a *Matcher or a *Gateway can reach through its fields — pointers,
// slices, arrays, maps, channels, nested structs, exported or not — is a
// trie or a piece of one, so no generation, current or draining, can keep
// its build scaffolding alive. (Funcs and interfaces hide what they hold
// from a type walk; the measured gates cover those.)
func TestMatcherAndGatewayHoldNoTrie(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(ac.Trie{}): true,
		reflect.TypeOf(ac.Node{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if banned[ty] {
			t.Errorf("%s is an %s", path, ty)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Matcher{}), "Matcher")
	walk(reflect.TypeOf(Gateway{}), "Gateway")
	for _, reached := range []any{core.Machine{}, core.Program{}, gwGeneration{}, gwFlow{}, gwLane{}} {
		if !seen[reflect.TypeOf(reached)] {
			t.Errorf("the walk did not reach %T", reached)
		}
	}
}
