package flowtable

// Tests for the single-writer flow table: LRU and idle eviction over the
// whole table, the clean-state guarantee for evicted-then-recreated flows,
// callbacks that panic, and the one cross-goroutine method, Has, against a
// churning owner. Run with -race (CI does).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/nids"
)

// fakeFlow records writes and guards against use-after-evict: every table
// bug of interest (double close, write racing close, resurrection after
// eviction) trips one of its atomic checks.
type fakeFlow struct {
	key    Key
	data   []byte
	inUse  atomic.Bool
	closed atomic.Bool
}

type harness struct {
	t       *testing.T
	table   *Table[*fakeFlow]
	mu      sync.Mutex
	evicted []*fakeFlow
}

func newHarness(t *testing.T, maxFlows int, idleTicks uint64) *harness {
	h := &harness{t: t}
	h.table = New(Config[*fakeFlow]{
		New: func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict: func(k Key, f *fakeFlow) {
			if f.inUse.Load() {
				t.Error("flow evicted while a write was in flight")
			}
			if f.closed.Swap(true) {
				t.Error("flow evicted twice")
			}
			h.mu.Lock()
			h.evicted = append(h.evicted, f)
			h.mu.Unlock()
		},
		MaxFlows:  maxFlows,
		IdleTicks: idleTicks,
	})
	return h
}

// write appends p to the keyed flow through the table, with the
// use-after-evict tripwires armed.
func (h *harness) write(k Key, p []byte) bool {
	return h.table.Do(k, func(f *fakeFlow) {
		if f.closed.Load() {
			h.t.Error("write reached a closed flow")
		}
		if f.inUse.Swap(true) {
			h.t.Error("two writes on one flow at once")
		}
		f.data = append(f.data, p...)
		f.inUse.Store(false)
	})
}

func tuple(i int) Key {
	return Key{
		SrcIP:   nids.IPv4(10, byte(i>>16), byte(i>>8), byte(i)),
		DstIP:   nids.IPv4(192, 168, 0, 1),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 80,
		Proto:   nids.ProtoTCP,
	}
}

func TestDoCreatesThenReuses(t *testing.T) {
	h := newHarness(t, 0, 0)
	if created := h.write(tuple(1), []byte("ab")); !created {
		t.Fatal("first Do did not create")
	}
	if created := h.write(tuple(1), []byte("cd")); created {
		t.Fatal("second Do recreated the flow")
	}
	h.table.Do(tuple(1), func(f *fakeFlow) {
		if string(f.data) != "abcd" {
			t.Fatalf("flow data = %q", f.data)
		}
	})
	if h.table.Len() != 1 {
		t.Fatalf("Len = %d", h.table.Len())
	}
}

func TestCapacityEvictionIsLRU(t *testing.T) {
	h := newHarness(t, 3, 0)
	for i := 0; i < 3; i++ {
		h.write(tuple(i), []byte("x"))
	}
	h.write(tuple(0), nil) // touch 0: LRU order is now 1, 2, 0
	h.write(tuple(3), nil) // over cap: evicts 1
	h.write(tuple(4), nil) // over cap: evicts 2
	if h.table.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.table.Len())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.evicted) != 2 || h.evicted[0].key != tuple(1) || h.evicted[1].key != tuple(2) {
		keys := make([]Key, len(h.evicted))
		for i, f := range h.evicted {
			keys[i] = f.key
		}
		t.Fatalf("evicted %v, want tuples 1 then 2", keys)
	}
	st := h.table.Stats()
	if st.EvictedCap != 2 || st.EvictedIdle != 0 || st.Created != 5 || st.Live != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIdleEviction(t *testing.T) {
	h := newHarness(t, 0, 4)
	h.write(tuple(0), nil) // tick 1
	for i := 0; i < 6; i++ {
		h.write(tuple(1), nil) // ticks 2..7; tuple 0 idle for >4 by tick 6
	}
	if h.table.Len() != 1 {
		t.Fatalf("opportunistic idle eviction missed: Len = %d", h.table.Len())
	}
	if st := h.table.Stats(); st.EvictedIdle != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// EvictIdle sweeps everything left once the clock has moved on.
	for i := 0; i < 10; i++ {
		h.write(tuple(2), nil)
	}
	live := h.table.Len()
	h.table.clock += 100
	if n := h.table.EvictIdle(); n != live {
		t.Fatalf("EvictIdle = %d, want %d", n, live)
	}
	if h.table.Len() != 0 {
		t.Fatalf("Len = %d after sweep", h.table.Len())
	}
}

func TestEvictedThenRecreatedStartsClean(t *testing.T) {
	h := newHarness(t, 2, 0)
	h.write(tuple(0), []byte("xy")) // partial state in flow 0
	h.write(tuple(1), nil)
	h.write(tuple(2), nil) // evicts 0 (LRU)
	created := h.write(tuple(0), []byte("z"))
	if !created {
		t.Fatal("evicted flow was not recreated")
	}
	h.table.Do(tuple(0), func(f *fakeFlow) {
		if string(f.data) != "z" {
			t.Fatalf("recreated flow carried stale state: %q", f.data)
		}
	})
}

func TestCloseEvictsEverything(t *testing.T) {
	h := newHarness(t, 0, 0)
	for i := 0; i < 100; i++ {
		h.write(tuple(i), []byte("p"))
	}
	h.table.Close()
	if h.table.Len() != 0 {
		t.Fatalf("Len = %d after Close", h.table.Len())
	}
	h.mu.Lock()
	n := len(h.evicted)
	h.mu.Unlock()
	if n != 100 {
		t.Fatalf("evicted %d flows, want 100", n)
	}
	// The table stays usable: a Do after Close recreates.
	if !h.write(tuple(7), nil) {
		t.Fatal("Do after Close did not create")
	}
}

// TestEntryFootprint pins what a flow costs the table beyond its map slot:
// key, flow pointer, last-activity tick and the two LRU links, and no lock.
func TestEntryFootprint(t *testing.T) {
	if size := unsafe.Sizeof(entry[*fakeFlow]{}); size != 48 {
		t.Fatalf("entry is %d B, want 48", size)
	}
}

func TestHash64Spreads(t *testing.T) {
	// Sanity: tuples differing in one field land on many gateway lanes.
	seen := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		k := tuple(0)
		k.SrcPort = uint16(i)
		seen[k.Hash64()&63] = true
	}
	if len(seen) < 32 {
		t.Fatalf("256 port-varied tuples hit only %d of 64 buckets", len(seen))
	}
}

func BenchmarkDoHit(b *testing.B) {
	tb := New(Config[*fakeFlow]{
		New:   func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict: func(Key, *fakeFlow) {},
	})
	k := tuple(1)
	tb.Do(k, func(*fakeFlow) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Do(k, func(*fakeFlow) {})
	}
}

func BenchmarkDoChurn(b *testing.B) {
	tb := New(Config[*fakeFlow]{
		New:      func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict:    func(Key, *fakeFlow) {},
		MaxFlows: 1024,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Do(tuple(i%8192), func(*fakeFlow) {})
	}
}

func ExampleTable() {
	tb := New(Config[*fakeFlow]{
		New:      func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict:    func(Key, *fakeFlow) {},
		MaxFlows: 2,
	})
	for i := 0; i < 3; i++ {
		tb.Do(tuple(i), func(*fakeFlow) {})
	}
	fmt.Println(tb.Len(), tb.Stats().EvictedCap)
	// Output: 2 1
}

func TestRemoveEvictsImmediately(t *testing.T) {
	h := newHarness(t, 0, 0)
	h.write(tuple(1), []byte("a"))
	h.write(tuple(2), []byte("b"))
	if !h.table.Remove(tuple(1)) {
		t.Fatal("Remove missed a live flow")
	}
	if h.table.Remove(tuple(1)) {
		t.Fatal("Remove found an already-removed flow")
	}
	if h.table.Len() != 1 {
		t.Fatalf("Len = %d after Remove", h.table.Len())
	}
	st := h.table.Stats()
	if st.Removed != 1 || st.Created != 2 {
		t.Fatalf("stats = %+v", st)
	}
	h.mu.Lock()
	evicted := len(h.evicted)
	h.mu.Unlock()
	if evicted != 1 {
		t.Fatalf("Evict ran %d times", evicted)
	}
	// A recreated flow after Remove starts clean.
	h.write(tuple(1), []byte("x"))
	h.table.Do(tuple(1), func(f *fakeFlow) {
		if string(f.data) != "x" {
			t.Fatalf("recreated flow data = %q", f.data)
		}
	})
}

// TestCapacityEvictionIsWholeTableLRU: whatever the keys hash to, the victim
// of an insert over the cap is the least recently active flow of the whole
// table — a live flow is never taken while a staler one exists anywhere.
func TestCapacityEvictionIsWholeTableLRU(t *testing.T) {
	const max, total = 64, 1024
	h := newHarness(t, max, 0)
	for i := 0; i < total; i++ {
		h.write(tuple(i), nil)
		// Keep the oldest surviving flow hot: it must outlive every insert.
		h.write(tuple(0), nil)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.evicted) != total-max {
		t.Fatalf("%d evictions, want %d", len(h.evicted), total-max)
	}
	for i, f := range h.evicted {
		if f.key != tuple(i+1) {
			t.Fatalf("eviction %d took %v, want tuple %d: not least-recently-active order", i, f.key, i+1)
		}
	}
	if st := h.table.Stats(); st.Live != max || st.EvictedCap != total-max {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIdleCollectionIsBoundedPerTouch: a Do collects at most two idle flows,
// however many have expired; EvictIdle takes the rest.
func TestIdleCollectionIsBoundedPerTouch(t *testing.T) {
	h := newHarness(t, 0, 50)
	for i := 0; i < 10; i++ {
		h.write(tuple(i), nil)
	}
	h.table.clock += 100 // all ten are long idle
	for touch, want := 1, 8; want >= 0; touch, want = touch+1, want-2 {
		h.write(tuple(10), nil)
		if got := h.table.Len() - 1; got != want {
			t.Fatalf("after touch %d: %d of the idle flows left, want %d", touch, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		h.write(tuple(20+i), nil)
	}
	h.table.clock += 100
	if n := h.table.EvictIdle(); n != 11 {
		t.Fatalf("EvictIdle = %d, want 11", n)
	}
	if st := h.table.Stats(); st.EvictedIdle != 21 || st.Live != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTickScalesTheClock: a table that is one of N sharing a stream advances
// N per Do, so IdleTicks keeps meaning packets of the whole stream.
func TestTickScalesTheClock(t *testing.T) {
	tb := New(Config[*fakeFlow]{
		New:       func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict:     func(Key, *fakeFlow) {},
		IdleTicks: 8,
		Tick:      4,
	})
	nop := func(*fakeFlow) {}
	tb.Do(tuple(0), nop)
	tb.Do(tuple(1), nop)
	tb.Do(tuple(1), nop) // tuple 0 idle for 8: not yet more than IdleTicks
	if tb.Len() != 2 || tb.Clock() != 12 {
		t.Fatalf("Len = %d, Clock = %d", tb.Len(), tb.Clock())
	}
	tb.Do(tuple(1), nop) // idle for 12
	if st := tb.Stats(); st.Live != 1 || st.EvictedIdle != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHasFromAnotherGoroutine: Has is the one method a foreign goroutine may
// call, at any time. Against an owner churning flows through a small table it
// must be race-clean and exact for a key the owner never evicts or creates.
func TestHasFromAnotherGoroutine(t *testing.T) {
	h := newHarness(t, 16, 0)
	pinned, absent := tuple(1<<20), tuple(1<<21)
	h.write(pinned, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !h.table.Has(pinned) {
					t.Error("Has missed a live flow")
					return
				}
				if h.table.Has(absent) {
					t.Error("Has found a flow that was never created")
					return
				}
				h.table.Has(tuple(7)) // churning: either answer is right
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		h.write(tuple(i%64), nil)
		h.write(pinned, nil) // stays off the LRU tail
		if i%7 == 0 {
			h.table.Remove(tuple(i % 64))
		}
	}
	close(stop)
	wg.Wait()
	if st := h.table.Stats(); st.EvictedCap == 0 || st.Removed == 0 {
		t.Fatalf("owner did not churn; test is vacuous: %+v", st)
	}
}

// TestPanickingCallbacksLeaveTableUsable: New runs before the entry exists
// and Evict after it is gone and counted, so a panic in either unwinds
// through a consistent table.
func TestPanickingCallbacksLeaveTableUsable(t *testing.T) {
	var failNew, failEvict bool
	evicted := 0
	tb := New(Config[*fakeFlow]{
		New: func(k Key) *fakeFlow {
			if failNew {
				panic("New")
			}
			return &fakeFlow{key: k}
		},
		Evict: func(Key, *fakeFlow) {
			evicted++
			if failEvict {
				panic("Evict")
			}
		},
		MaxFlows: 2,
	})
	nop := func(*fakeFlow) {}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	tb.Do(tuple(0), nop)
	tb.Do(tuple(1), nop)

	failNew = true
	if !panics(func() { tb.Do(tuple(2), nop) }) {
		t.Fatal("New's panic did not propagate")
	}
	failNew = false
	if tb.Has(tuple(2)) || tb.Len() != 2 {
		t.Fatalf("a flow whose New panicked is in the table (Len %d)", tb.Len())
	}

	failEvict = true
	if !panics(func() { tb.Do(tuple(2), nop) }) { // over the cap: evicts tuple 0
		t.Fatal("Evict's panic did not propagate")
	}
	failEvict = false
	if tb.Has(tuple(0)) || !tb.Has(tuple(1)) || !tb.Has(tuple(2)) {
		t.Fatal("table contents wrong after Evict panicked")
	}
	if st := tb.Stats(); st.Live != 2 || st.Created != 3 || st.EvictedCap != 1 || evicted != 1 {
		t.Fatalf("stats = %+v, %d Evict calls", st, evicted)
	}
	// Usable: LRU order, eviction and lookup all still work.
	if tb.Do(tuple(1), nop) {
		t.Fatal("live flow recreated")
	}
	tb.Do(tuple(3), nop) // evicts tuple 2, the LRU tail
	if tb.Has(tuple(2)) || !tb.Has(tuple(1)) || !tb.Has(tuple(3)) || evicted != 2 {
		t.Fatalf("eviction after the panics took the wrong flow (%d Evict calls)", evicted)
	}
	tb.Close()
	if tb.Len() != 0 || evicted != 4 {
		t.Fatalf("Close left %d flows, %d Evict calls", tb.Len(), evicted)
	}
}
