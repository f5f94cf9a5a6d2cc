package flowtable

// Tests for the single-writer flow table: LRU and idle eviction over the
// whole table, the clean-state guarantee for evicted-then-recreated flows,
// callbacks that panic, the one cross-goroutine method, Has, against a
// churning owner, and the open-addressed index against a plain Go map and a
// Hash64 collision flood. Run with -race (CI does).

import (
	"fmt"
	"reflect"
	"slices"
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
	return h.table.Do(k, func(pf **fakeFlow) {
		f := *pf
		if f.closed.Load() {
			h.t.Error("write reached a closed flow")
		}
		if f.inUse.Swap(true) {
			h.t.Error("two writes on one flow at once")
		}
		f.data = append(f.data, p...)
		f.inUse.Store(false)
	}, nil)
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
	h.table.Do(tuple(1), func(pf **fakeFlow) {
		f := *pf
		if string(f.data) != "abcd" {
			t.Fatalf("flow data = %q", f.data)
		}
	}, nil)
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
	h.table.Do(tuple(0), func(pf **fakeFlow) {
		f := *pf
		if string(f.data) != "z" {
			t.Fatalf("recreated flow carried stale state: %q", f.data)
		}
	}, nil)
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

// TestEntryFootprint pins what a flow costs the table: one slab entry holding
// a 28 B header — key, last-activity stamp and the two LRU links, all 32-bit,
// no lock — and the record by value, plus its index slot, a 4-byte entry
// number. With the gateway's record (48 B, gated by TestFlowRecordFootprint)
// a connection's entry is 80 B; a husk's holds a one-byte mark and is 32 B.
// A slab chunk of either fills the 4 096 B size class to within one entry,
// counting the 8 B header Go puts on a pointerful object that size: 51
// connection entries, or 127 husk entries — as many as a slot number holds.
func TestEntryFootprint(t *testing.T) {
	if off := unsafe.Offsetof(entry[uint8]{}.rec); off != 28 {
		t.Fatalf("entry header is %d B, want 28", off)
	}
	type record struct { // the gateway's record: 48 B, holding pointers
		p *byte
		_ [5]uint64
	}
	if size := unsafe.Sizeof(entry[record]{}); size != 80 {
		t.Fatalf("entry of a 48 B record is %d B, want 80", size)
	}
	if size := unsafe.Sizeof(entry[uint8]{}); size != 32 {
		t.Fatalf("husk entry is %d B, want 32", size)
	}
	if size := unsafe.Sizeof(ref(0)); size != 4 {
		t.Fatalf("an index slot is %d B, want 4", size)
	}
	conns, husks := newSet[record](), newSet[uint8]()
	if conns.perChunk != 51 || husks.perChunk != chunkMax {
		t.Fatalf("chunks of %d connection and %d husk entries, want 51 and %d", conns.perChunk, husks.perChunk, chunkMax)
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
	tb.Do(k, func(**fakeFlow) {}, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Do(k, func(**fakeFlow) {}, nil)
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
		tb.Do(tuple(i%8192), func(**fakeFlow) {}, nil)
	}
}

func ExampleTable() {
	tb := New(Config[*fakeFlow]{
		New:      func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict:    func(Key, *fakeFlow) {},
		MaxFlows: 2,
	})
	for i := 0; i < 3; i++ {
		tb.Do(tuple(i), func(**fakeFlow) {}, nil)
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
	h.table.Do(tuple(1), func(pf **fakeFlow) {
		f := *pf
		if string(f.data) != "x" {
			t.Fatalf("recreated flow data = %q", f.data)
		}
	}, nil)
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
	nop := func(**fakeFlow) {}
	tb.Do(tuple(0), nop, nil)
	tb.Do(tuple(1), nop, nil)
	tb.Do(tuple(1), nop, nil) // tuple 0 idle for 8: not yet more than IdleTicks
	if tb.Len() != 2 || tb.Clock() != 12 {
		t.Fatalf("Len = %d, Clock = %d", tb.Len(), tb.Clock())
	}
	tb.Do(tuple(1), nop, nil) // idle for 12
	if st := tb.Stats(); st.Live != 1 || st.EvictedIdle != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHasFromAnotherGoroutine: Has is the one method a foreign goroutine may
// call, at any time. Against an owner churning flows through a small table it
// must be race-clean and exact for a key the owner never evicts or creates,
// and for a key it keeps turning from husk to connection and back: Settle and
// a revive each move a key from one index to the other under one lock, so
// the key is never missing in between.
func TestHasFromAnotherGoroutine(t *testing.T) {
	h := newHarness(t, 16, 0)
	pinned, cycled, absent := tuple(1<<20), tuple(1<<22), tuple(1<<21)
	h.write(pinned, nil)
	nop := func(**fakeFlow) {}
	revive := func(uint8) Action { return Revive }
	h.table.Do(cycled, nop, revive)
	h.table.Settle(cycled, 1)
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
				if !h.table.Has(cycled) {
					t.Error("Has missed a flow between husk and connection")
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
		// Every churn connection ends at once, so capacity eviction takes
		// the oldest husk; cycled settles after each churn key and is never
		// the oldest.
		h.table.Do(tuple(i%64), nop, revive)
		h.table.Settle(tuple(i%64), 1)
		h.write(pinned, nil) // stays off the LRU tail
		h.table.Do(cycled, nop, revive)
		h.table.Settle(cycled, 1)
		if i%7 == 0 {
			h.table.Remove(tuple(i % 64))
		}
	}
	close(stop)
	wg.Wait()
	if st := h.table.Stats(); st.EvictedCap == 0 || st.Removed == 0 || st.Husks == 0 {
		t.Fatalf("owner did not churn; test is vacuous: %+v", st)
	}
}

// TestCapacityEvictsHusksBeforeConnections: a table at its cap whose oldest
// entry is a live connection, and which also holds newer husks, loses the
// oldest husk on the next insert — a husk costs nothing to lose unless a
// straggler comes, a connection would lose its scan state mid-stream. Only
// once no husk is left does a connection go: the least recently active one,
// never the one just touched.
func TestCapacityEvictsHusksBeforeConnections(t *testing.T) {
	h := newHarness(t, 4, 0)
	h.write(tuple(0), nil) // the oldest entry, and a live connection
	for i := 1; i < 4; i++ {
		h.write(tuple(i), nil)
		if !h.table.Settle(tuple(i), 1) {
			t.Fatalf("Settle missed connection %d", i)
		}
	}
	h.write(tuple(4), nil) // over the cap
	if !h.table.Has(tuple(0)) {
		t.Fatal("capacity eviction took a live connection while husks remained")
	}
	if h.table.Has(tuple(1)) {
		t.Fatal("capacity eviction spared the oldest husk")
	}
	if st := h.table.Stats(); st.Live != 4 || st.Husks != 2 || st.EvictedCap != 1 {
		t.Fatalf("stats = %+v", st)
	}
	h.write(tuple(5), nil) // takes husk 2
	h.write(tuple(6), nil) // takes husk 3, the last
	h.write(tuple(7), nil) // no husk left: takes connection 0
	for i, want := range []bool{false, false, false, false, true, true, true, true} {
		if h.table.Has(tuple(i)) != want {
			t.Fatalf("tuple %d present = %v, want %v", i, !want, want)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Evict saw the three settled records, then connection 0.
	if n := len(h.evicted); n != 4 || h.evicted[3].key != tuple(0) {
		t.Fatalf("%d records evicted; want 4, the last tuple 0", n)
	}
	if st := h.table.Stats(); st.Live != 4 || st.Husks != 0 || st.EvictedCap != 4 {
		t.Fatalf("stats = %+v", st)
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
	nop := func(**fakeFlow) {}
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	tb.Do(tuple(0), nop, nil)
	tb.Do(tuple(1), nop, nil)

	failNew = true
	if !panics(func() { tb.Do(tuple(2), nop, nil) }) {
		t.Fatal("New's panic did not propagate")
	}
	failNew = false
	if tb.Has(tuple(2)) || tb.Len() != 2 {
		t.Fatalf("a flow whose New panicked is in the table (Len %d)", tb.Len())
	}

	failEvict = true
	if !panics(func() { tb.Do(tuple(2), nop, nil) }) { // over the cap: evicts tuple 0
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
	if tb.Do(tuple(1), nop, nil) {
		t.Fatal("live flow recreated")
	}
	tb.Do(tuple(3), nop, nil) // evicts tuple 2, the LRU tail
	if tb.Has(tuple(2)) || !tb.Has(tuple(1)) || !tb.Has(tuple(3)) || evicted != 2 {
		t.Fatalf("eviction after the panics took the wrong flow (%d Evict calls)", evicted)
	}
	tb.Close()
	if tb.Len() != 0 || evicted != 4 {
		t.Fatalf("Close left %d flows, %d Evict calls", tb.Len(), evicted)
	}
}

// valueFlow is a record held by value in its entry, as the gateway holds its
// own: the table owns it, Do reaches it in place, Evict gets a copy.
type valueFlow struct {
	key Key
	n   int // Do calls on this incarnation of the flow
}

// probeLen returns the longest probe run in a set's index: how many slots a
// lookup of the worst-placed key reads. wrapped reports whether some run
// crosses the end of the array.
func probeLen[R any](s *set[R]) (longest int, wrapped bool) {
	mask := len(s.slots) - 1
	for i, r := range s.slots {
		if r == 0 {
			continue
		}
		h := s.home(s.at(r).key)
		longest = max(longest, (i-h)&mask+1)
		wrapped = wrapped || h > i
	}
	return longest, wrapped
}

// checkIndex fails unless a set's index holds exactly its n entries, each
// where a lookup of its key finds it, with every probe run sorted by home
// slot: an entry sits at most one slot further from its home than the entry
// before it.
func checkIndex[R any](t *testing.T, s *set[R]) {
	t.Helper()
	if len(s.slots)&(len(s.slots)-1) != 0 || 4*s.n > 3*len(s.slots) {
		t.Fatalf("index of %d slots holding %d entries", len(s.slots), s.n)
	}
	mask := len(s.slots) - 1
	n := 0
	for i, r := range s.slots {
		if r == 0 {
			continue
		}
		n++
		e := s.at(r)
		if j := s.slot(e.key); j != i {
			t.Fatalf("%v sits in slot %d, a lookup stops at %d", e.key, i, j)
		}
		if next := s.slots[(i+1)&mask]; next != 0 {
			if d, dn := (i-s.home(e.key))&mask, (i+1-s.home(s.at(next).key))&mask; dn > d+1 {
				t.Fatalf("slot %d is %d from its home after slot %d at %d: run not sorted by home", i+1, dn, i, d)
			}
		}
	}
	if n != s.n {
		t.Fatalf("index holds %d entries, set counts %d", n, s.n)
	}
}

// checkSlab fails unless every entry of a set's slab is either one of its n
// indexed entries or on its free list, zeroed but for the free-list link: a
// freed slot pins nothing its record referenced.
func checkSlab[R any](t *testing.T, s *set[R]) {
	t.Helper()
	free := 0
	for r := s.free; r != 0; r = s.at(r).next {
		free++
		e := *s.at(r)
		e.next = 0
		if !reflect.ValueOf(e).IsZero() {
			t.Fatalf("free entry %d holds %+v", r, e)
		}
		if free > len(s.chunks)*s.perChunk {
			t.Fatal("free list loops")
		}
	}
	if free+s.n != len(s.chunks)*s.perChunk {
		t.Fatalf("%d chunks hold %d indexed and %d free entries: %d lost",
			len(s.chunks), s.n, free, len(s.chunks)*s.perChunk-free-s.n)
	}
}

// TestIndexMatchesModel drives random Do, Settle, Remove, EvictIdle and
// capacity eviction — Do reaching husks among them, whose callback keeps,
// revives or removes them — through tables of several shapes: one that grows
// from 8 slots to hundreds, one held at its cap, one under idle eviction, and
// a tiny one under heavy removal whose keys half share the last slot as their
// home, so probe runs wrap around the end of the array and backward-shift
// deletion does too. The model is one Go map and one age-ordered list of
// keys, each entry tagged connection or husk, and it evicts as the table
// promises: the oldest entry of either kind when idle, the oldest husk —
// and only without one, the oldest connection but the one just touched —
// over the cap. After every step both LRU lists equal the model's order,
// kind and marks, Has over the whole key universe, Len, Stats, Range
// (connections only, with their records) and every record Evict received
// agree with it, both indexes hold exactly their entries, and every slab
// entry is either indexed or zeroed on the free list.
func TestIndexMatchesModel(t *testing.T) {
	for _, tc := range []modelCase{
		{"growth", 300, 0, 0, 10, 10, 1500, false},
		{"capacity", 160, 60, 0, 5, 30, 1500, false},
		{"idle", 160, 0, 120, 5, 30, 1500, false},
		{"tiny-heavy-removal", 12, 5, 0, 45, 20, 3000, true},
	} {
		t.Run(tc.name, func(t *testing.T) { checkModel(t, tc, 1) })
	}
}

// modelCase is one table shape checkModel drives.
type modelCase struct {
	name     string
	keys     int
	maxFlows int
	idle     uint64
	remove   int // in 100: share of steps that Remove
	settle   int // in 100: share of steps whose Do ends the connection
	steps    int
	wrap     bool // every other key's home is the index's last slot
}

// checkModel is TestIndexMatchesModel's run of one table shape, its clock
// advancing tick per Do.
func checkModel(t *testing.T, tc modelCase, tick uint64) *Table[valueFlow] {
	rnd := uint64(len(tc.name))
	next := func(n int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % n
	}
	type modelEntry struct {
		n    int   // Do calls on the connection's record
		mark uint8 // 0 for a connection
		last uint64
	}
	type evicted struct {
		key Key
		n   int
	}
	model := map[Key]*modelEntry{}
	var (
		order            []Key // oldest first
		clock            uint64
		want             Stats
		wantEv, gotEv    []evicted
		step             int
		wrapped, husked  bool
		revived, removed int
	)
	tb := New(Config[valueFlow]{
		New: func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(k Key, f valueFlow) {
			if f.key != k {
				t.Fatalf("step %d: evicted %v holding %v's record", step, k, f.key)
			}
			gotEv = append(gotEv, evicted{k, f.n})
		},
		MaxFlows:  tc.maxFlows,
		IdleTicks: tc.idle,
		Tick:      tick,
	})
	touch := func(k Key) {
		order = slices.DeleteFunc(order, func(o Key) bool { return o == k })
		order = append(order, k)
		model[k].last = clock
	}
	drop := func(k Key, reason *uint64) {
		if m := model[k]; m.mark == 0 {
			wantEv = append(wantEv, evicted{k, m.n})
		} else {
			want.Husks--
		}
		delete(model, k)
		order = slices.DeleteFunc(order, func(o Key) bool { return o == k })
		want.Live--
		*reason++
	}
	dropIdle := func() bool {
		if len(order) == 0 || clock-model[order[0]].last <= tc.idle {
			return false
		}
		drop(order[0], &want.EvictedIdle)
		return true
	}
	universe := make([]Key, 0, tc.keys)
	for i := 0; len(universe) < tc.keys; i++ {
		if k := tuple(i); !tc.wrap || (tb.conns.home(k) == len(tb.conns.slots)-1) == (len(universe)%2 == 0) {
			universe = append(universe, k)
		}
	}
	for step = 1; step <= tc.steps; step++ {
		k := universe[next(len(universe))]
		switch op := next(100); {
		case op < tc.remove:
			_, live := model[k]
			if got := tb.Remove(k); got != live {
				t.Fatalf("step %d: Remove(%v) = %v, model present %v", step, k, got, live)
			}
			if live {
				drop(k, &want.Removed)
			}
		case op < tc.remove+2:
			n := tb.EvictIdle()
			wantN := 0
			for tc.idle > 0 && dropIdle() {
				wantN++
			}
			if n != wantN {
				t.Fatalf("step %d: EvictIdle = %d, model %d", step, n, wantN)
			}
		default:
			act := []Action{Keep, Keep, Revive, Remove}[next(4)]
			var ran, asked bool
			created := tb.Do(k, func(f *valueFlow) {
				if f.key != k {
					t.Fatalf("step %d: Do(%v) reached %v's record", step, k, f.key)
				}
				ran = true
				f.n++
			}, func(mark uint8) Action {
				if m := model[k]; m == nil || m.mark != mark {
					t.Fatalf("step %d: husk callback for %v with mark %d, model has %+v", step, k, mark, m)
				}
				asked = true
				return act
			})
			clock += tick
			m := model[k]
			husk := m != nil && m.mark != 0
			if asked != husk || created != (m == nil) {
				t.Fatalf("step %d: Do(%v) asked the husk callback %v, created %v; model has %+v", step, k, asked, created, m)
			}
			conn := !husk || act == Revive // Do touched a connection
			switch {
			case m == nil:
				m = &modelEntry{}
				model[k] = m
				want.Live++
				want.Created++
			case husk && act == Revive:
				m.mark = 0
				want.Husks--
				revived++
			case husk && act == Remove:
				drop(k, &want.Removed)
				removed++
			}
			if model[k] != nil {
				touch(k)
			}
			for tc.maxFlows > 0 && want.Live > tc.maxFlows {
				oldest := order[0]
				for _, o := range order {
					if model[o].mark != 0 {
						oldest = o
						break
					}
				}
				if model[oldest].mark == 0 && conn && oldest == k {
					break
				}
				drop(oldest, &want.EvictedCap)
			}
			for i := 0; i < 2 && tc.idle > 0 && dropIdle(); i++ {
			}
			if ran != conn {
				t.Fatalf("step %d: Do(%v) ran fn %v, model touched a connection %v", step, k, ran, conn)
			}
			if conn {
				m.n++
			}
			if op < tc.remove+2+tc.settle {
				mark := uint8(1 + next(2))
				settled := tb.Settle(k, mark)
				if m := model[k]; settled != (m != nil && m.mark == 0) {
					t.Fatalf("step %d: Settle(%v) = %v, model has %+v", step, k, settled, m)
				}
				if settled {
					wantEv = append(wantEv, evicted{k, m.n})
					*m = modelEntry{mark: mark}
					touch(k)
					want.Husks++
					husked = true
				}
			}
		}
		if !slices.Equal(gotEv, wantEv) {
			t.Fatalf("step %d: Evict received %v, model %v", step, gotEv, wantEv)
		}
		gotEv, wantEv = gotEv[:0], wantEv[:0]
		checkIndex(t, &tb.conns)
		checkIndex(t, &tb.husks)
		checkSlab(t, &tb.conns)
		checkSlab(t, &tb.husks)
		_, wc := probeLen(&tb.conns)
		_, wh := probeLen(&tb.husks)
		wrapped = wrapped || wc || wh
		if st := tb.Stats(); st != want || tb.Len() != len(model) {
			t.Fatalf("step %d: stats %+v, Len %d; model %+v, %d entries", step, st, tb.Len(), want, len(model))
		}
		// Each list, walked from its tail, is the model's order of
		// that kind.
		var conns, husks []Key
		for _, o := range order {
			if model[o].mark == 0 {
				conns = append(conns, o)
			} else {
				husks = append(husks, o)
			}
		}
		i := 0
		for r := tb.conns.tail; r != 0; r, i = tb.conns.at(r).prev, i+1 {
			e := tb.conns.at(r)
			if i >= len(conns) || e.key != conns[i] || e.last != uint32(model[e.key].last) || e.rec.n != model[e.key].n {
				t.Fatalf("step %d: connection %d from the tail is %v (last %d, %d Do calls), model order %v", step, i, e.key, e.last, e.rec.n, conns)
			}
		}
		i = 0
		for r := tb.husks.tail; r != 0; r, i = tb.husks.at(r).prev, i+1 {
			e := tb.husks.at(r)
			if i >= len(husks) || e.key != husks[i] || e.last != uint32(model[e.key].last) || e.rec != model[e.key].mark {
				t.Fatalf("step %d: husk %d from the tail is %v (last %d, mark %d), model order %v", step, i, e.key, e.last, e.rec, husks)
			}
		}
		if tb.conns.n != len(conns) || tb.husks.n != len(husks) {
			t.Fatalf("step %d: sets hold %d connections, %d husks; model %d, %d", step, tb.conns.n, tb.husks.n, len(conns), len(husks))
		}
		for _, k := range universe {
			if _, live := model[k]; tb.Has(k) != live {
				t.Fatalf("step %d: Has(%v) = %v, model present %v", step, k, !live, live)
			}
		}
		seen := 0
		tb.Range(func(k Key, f *valueFlow) {
			seen++
			if m := model[k]; m == nil || m.mark != 0 || f.n != m.n {
				t.Fatalf("step %d: Range found %v with %d Do calls, model has %+v", step, k, f.n, m)
			}
		})
		if seen != len(conns) {
			t.Fatalf("step %d: Range saw %d connections, model has %d", step, seen, len(conns))
		}
	}
	st := tb.Stats()
	t.Logf("%d + %d slots, %+v, %d revived, %d husks removed by Do, probe runs wrapped: %v",
		len(tb.conns.slots), len(tb.husks.slots), st, revived, removed, wrapped)
	if tc.maxFlows == 0 && tc.idle == 0 && len(tb.conns.slots) < 256 {
		t.Fatalf("connection index only grew to %d slots", len(tb.conns.slots))
	}
	if tc.wrap && (len(tb.conns.slots) != 8 || len(tb.husks.slots) != 8 || !wrapped || st.Removed < 300) {
		t.Fatalf("tiny table never wrapped under removal: %d + %d slots, wrapped %v, %+v",
			len(tb.conns.slots), len(tb.husks.slots), wrapped, st)
	}
	if tc.maxFlows > 0 && st.EvictedCap == 0 || tc.idle > 0 && st.EvictedIdle == 0 {
		t.Fatalf("the eviction under test never ran: %+v", st)
	}
	if !husked || revived == 0 || removed == 0 {
		t.Fatalf("no settle, revive or husk removal: %d revived, %d removed", revived, removed)
	}
	return tb
}

// TestIndexResistsHash64Collisions: the gateway pins tuples to lanes by
// Hash64, so a lane's table sees tuples that agree in Hash64's low bits, and
// an attacker can choose tuples that agree in all of the bits an unseeded
// index would use. The index hashes under its own seed, so 4 096 tuples that
// Hash64 puts in one bucket of a 4 096-bucket table still spread out.
func TestIndexResistsHash64Collisions(t *testing.T) {
	const flows, bucketBits = 4096, 12
	tb := New(Config[valueFlow]{
		New:   func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(Key, valueFlow) {},
	})
	for i := 0; tb.Len() < flows; i++ {
		k := tuple(i)
		k.SrcPort = uint16(i >> 20)
		if k.Hash64()&(1<<bucketBits-1) == 0 {
			tb.Do(k, func(*valueFlow) {}, nil)
		}
	}
	checkIndex(t, &tb.conns)
	longest, _ := probeLen(&tb.conns)
	t.Logf("%d colliding flows in %d slots: longest probe run %d", flows, len(tb.conns.slots), longest)
	if longest > 32 {
		t.Fatalf("longest probe run is %d slots, want <= 32", longest)
	}
}

// TestDoHashedReachesDoRecord: DoHashed, the by-value form, reads the record
// Do writes in place, and a flow either creates is the other's.
func TestDoHashedReachesDoRecord(t *testing.T) {
	tb := New(Config[valueFlow]{
		New:   func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(Key, valueFlow) {},
	})
	var got valueFlow
	read := func(f valueFlow) { got = f }
	bump := func(f *valueFlow) { f.n++ }
	if !tb.Do(tuple(1), bump, nil) || tb.DoHashed(tuple(1), tuple(1).Hash64(), read) || got != (valueFlow{tuple(1), 1}) {
		t.Fatalf("DoHashed after Do read %+v", got)
	}
	if !tb.DoHashed(tuple(2), 0, read) || tb.Do(tuple(2), bump, nil) {
		t.Fatal("Do recreated a flow DoHashed created")
	}
	if tb.DoHashed(tuple(2), 0, read); got != (valueFlow{tuple(2), 1}) || tb.Len() != 2 {
		t.Fatalf("DoHashed read %+v of %d flows", got, tb.Len())
	}
}

// TestIdleEvictionAcrossClockWrap: an entry keeps only the low 32 bits of the
// clock, so ages are taken modulo 2³². With a Tick that carries the clock
// across 2³² every 128 Do calls and an IdleTicks just under 2³¹, the model
// test's whole check — idle eviction oldest first, a husk against a
// connection by age, and every entry's stamp — holds over many wraps.
func TestIdleEvictionAcrossClockWrap(t *testing.T) {
	const tick = 1<<25 + 3
	tc := modelCase{"clock-wrap", 160, 0, 60 * tick, 5, 30, 3000, false}
	tb := checkModel(t, tc, tick)
	if wraps := tb.Clock() >> 32; wraps < 10 {
		t.Fatalf("the clock crossed 2^32 only %d times", wraps)
	}
}

// TestNewRejectsWideTicks: ages are 32-bit, so a table whose IdleTicks or
// Tick could make one reach 2³² is refused at construction.
func TestNewRejectsWideTicks(t *testing.T) {
	for _, cfg := range []Config[valueFlow]{{IdleTicks: 1 << 31}, {Tick: 1 << 31}} {
		cfg.New = func(k Key) valueFlow { return valueFlow{key: k} }
		cfg.Evict = func(Key, valueFlow) {}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted IdleTicks %d, Tick %d", cfg.IdleTicks, cfg.Tick)
				}
			}()
			New(cfg)
		}()
	}
	New(Config[valueFlow]{
		New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {},
		IdleTicks: 1<<31 - 1, Tick: 1<<31 - 1,
	})
}

// TestSlabGrowsLazily: a new table holds no chunk, so a gateway pays nothing
// per lane for flows it has not seen; the first entry of each kind brings
// its set's first chunk, a chunk is allocated only when the others are full
// — a freed slot is taken first — and a set that empties keeps only its
// first chunk.
func TestSlabGrowsLazily(t *testing.T) {
	tb := New(Config[valueFlow]{
		New:   func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(Key, valueFlow) {},
	})
	chunks := func() (int, int) { return len(tb.conns.chunks), len(tb.husks.chunks) }
	if c, h := chunks(); c != 0 || h != 0 {
		t.Fatalf("a new table holds %d + %d chunks", c, h)
	}
	nop := func(*valueFlow) {}
	tb.Do(tuple(0), nop, nil)
	if c, h := chunks(); c != 1 || h != 0 {
		t.Fatalf("one connection: %d + %d chunks", c, h)
	}
	tb.Settle(tuple(0), 1)
	if c, h := chunks(); c != 1 || h != 1 {
		t.Fatalf("one husk: %d + %d chunks", c, h)
	}
	per := tb.conns.perChunk
	for i := 1; i <= per; i++ {
		tb.Do(tuple(i), nop, nil)
	}
	if c, _ := chunks(); c != 1 {
		t.Fatalf("%d connections, one in the slot a settle freed, took %d chunks", per, c)
	}
	for i := per + 1; i <= 3*per; i++ {
		tb.Do(tuple(i), nop, nil)
	}
	if c, _ := chunks(); c != 3 {
		t.Fatalf("%d connections took %d chunks, want 3", 3*per, c)
	}
	for i := 1; i < 3*per; i++ {
		tb.Remove(tuple(i))
		checkSlab(t, &tb.conns)
	}
	if c, _ := chunks(); c != 3 {
		t.Fatalf("a set with a connection left gave back chunks: %d left", c)
	}
	tb.Settle(tuple(3*per), 1)
	if c, h := chunks(); c != 1 || h != 1 || tb.Len() != 2 {
		t.Fatalf("an emptied set kept %d chunks (husks %d, %d entries), want 1", c, h, tb.Len())
	}
	checkSlab(t, &tb.conns)
	tb.Do(tuple(0), nop, func(uint8) Action { return Revive })
	checkSlab(t, &tb.husks)
	checkSlab(t, &tb.conns)
}

// TestHasFromAnotherGoroutineAcrossGrowth: the owner grows both sets through
// several chunks and index doublings — each replacing the chunk directory or
// the index under the lock Has takes — while readers ask Has for keys already
// in the table, which must be found wherever they now sit, and for a key
// never inserted.
func TestHasFromAnotherGoroutineAcrossGrowth(t *testing.T) {
	tb := New(Config[valueFlow]{
		New:   func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(Key, valueFlow) {},
	})
	const flows = 1500
	var in atomic.Int64 // tuples 0 .. in-1 are in the table
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(rnd uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := in.Load(); n > 0 {
					rnd = rnd*6364136223846793005 + 1442695040888963407
					if i := int(rnd>>33) % int(n); !tb.Has(tuple(i)) {
						t.Errorf("Has missed tuple %d of %d", i, n)
						return
					}
				}
				if tb.Has(tuple(1 << 21)) {
					t.Error("Has found a tuple never inserted")
					return
				}
			}
		}(uint64(g))
	}
	for i := 0; i < flows; i++ {
		tb.Do(tuple(i), func(*valueFlow) {}, nil)
		if i%2 == 1 {
			tb.Settle(tuple(i), 1)
		}
		in.Store(int64(i + 1))
	}
	close(stop)
	wg.Wait()
	if c, h := len(tb.conns.chunks), len(tb.husks.chunks); c < 6 || h < 6 || len(tb.conns.slots) < 1024 || len(tb.husks.slots) < 1024 {
		t.Fatalf("the sets grew to %d + %d chunks and %d + %d slots: not across growth",
			c, h, len(tb.conns.slots), len(tb.husks.slots))
	}
}
