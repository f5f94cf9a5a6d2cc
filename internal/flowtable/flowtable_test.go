package flowtable

// Tests for the single-writer flow table: LRU and idle eviction over the
// whole table, the clean-state guarantee for evicted-then-recreated flows,
// callbacks that panic, the one cross-goroutine method, Has, against a
// churning owner, and the open-addressed index against a plain Go map and a
// Hash64 collision flood. Run with -race (CI does).

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestEntryFootprint pins what a flow costs the table. A connection is one
// slab entry holding a 28 B header — key, last-activity stamp and the two LRU
// links, all 32-bit, no lock — and the record by value, plus its index slot,
// a 4-byte entry number. With a record shaped like the gateway's (32 B and
// no pointer, gated by TestFlowRecordFootprint) a connection's entry is 64 B,
// one cache line. A husk is a 20 B ring entry — the packed tuple, the mark, a
// live flag and the stamp, no links — and HuskCharge covers it, its index
// slot at the index's lowest load and its share of the ring's holes. A chunk
// fills the 4 096 B size class to within one entry: 64 connection entries,
// 204 husks, or 51 entries of a 48 B record holding a pointer, which leave
// room for the 8 B header Go puts on a pointerful object that size.
func TestEntryFootprint(t *testing.T) {
	if off := unsafe.Offsetof(entry[uint8]{}.rec); off != 28 {
		t.Fatalf("entry header is %d B, want 28", off)
	}
	type record struct { // the gateway's record: registers, cursor, class
		regs   struct{ pos, state uint64 }
		cursor [3]uint32
		class  uint32
	}
	type pointerful struct {
		p *byte
		_ [5]uint64
	}
	if size := unsafe.Sizeof(entry[record]{}); size != 64 {
		t.Fatalf("entry of a 32 B record is %d B, want 64", size)
	}
	if size := unsafe.Sizeof(entry[pointerful]{}); size != 80 {
		t.Fatalf("entry of a 48 B record is %d B, want 80", size)
	}
	huskSize := unsafe.Sizeof(husk{})
	if huskSize != 20 {
		t.Fatalf("husk entry is %d B, want 20", huskSize)
	}
	if size := unsafe.Sizeof(ref(0)); size != 4 {
		t.Fatalf("an index slot is %d B, want 4", size)
	}
	conns := New(Config[record]{New: func(Key) record { return record{} }, Evict: func(Key, record) {}})
	pointers := New(Config[pointerful]{New: func(Key) pointerful { return pointerful{} }, Evict: func(Key, pointerful) {}})
	if conns.conns.perChunk != 64 || ringPer != 204 || pointers.conns.perChunk != 51 {
		t.Fatalf("chunks of %d connection, %d husk and %d pointerful entries, want 64, 204 and 51",
			conns.conns.perChunk, ringPer, pointers.conns.perChunk)
	}
	if size := unsafe.Sizeof(ringChunk{}); size > chunkBytes {
		t.Fatalf("a ring chunk is %d B, over the %d B size class", size, chunkBytes)
	}
	// A husk's charge: its entry, its slot in an index 3/8 full, and its
	// share of maxHoles — one hole's entry per holeShare husks and one per
	// compactStep positions of a span of at most 9/8 positions a husk.
	floor := float64(huskSize) + 4/(3.0/8) + float64(huskSize)*(1.0/holeShare+9.0/8/compactStep)
	if HuskCharge < floor {
		t.Fatalf("a husk is charged %d B, under the %.2f B it may cost", HuskCharge, floor)
	}
	t.Logf("a husk may cost %.2f B, charged %d B", floor, HuskCharge)
	conns.Do(tuple(0), func(*record) {}, nil)
	off := uintptr(unsafe.Pointer(conns.conns.at(conns.conns.head))) % 64
	t.Logf("a connection chunk starts %d B past a 64 B boundary; each entry fills one cache line: %v", off, off == 0)
}

// TestEntryBytesAndEvictOldest: EntryBytes gives each kind's entry size, and
// EvictOldest — the one victim rule, MaxFlows's and a byte-capping
// owner's — takes husks oldest first, then the oldest connection other than
// the one it must keep, and reports when nothing is left to take.
func TestEntryBytesAndEvictOldest(t *testing.T) {
	type record struct { // a 48 B record holding a pointer
		p *byte
		_ [5]uint64
	}
	tb := New(Config[record]{New: func(Key) record { return record{} }, Evict: func(Key, record) {}})
	for i := 0; i < 4; i++ {
		tb.Do(tuple(i), func(*record) {}, nil)
	}
	tb.Settle(tuple(0), 1)
	tb.Settle(tuple(1), 1)
	if conn, husk := EntryBytes[record](); conn != 80 || husk != 20 {
		t.Fatalf("a connection occupies %d B and a husk %d B, want 80 and 20", conn, husk)
	}
	for i, want := range []Key{tuple(0), tuple(1), tuple(2)} { // husks, then the older connection
		if !tb.EvictOldest(tuple(3)) || tb.Has(want) {
			t.Fatalf("eviction %d left %v in the table", i, want)
		}
	}
	if tb.EvictOldest(tuple(3)) || !tb.Has(tuple(3)) || tb.Len() != 1 {
		t.Fatalf("the kept connection was evicted, or something else remains (%d entries)", tb.Len())
	}
	if st := tb.Stats(); st.EvictedCap != 3 {
		t.Fatalf("%d capacity evictions counted, want 3", st.EvictedCap)
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

// BenchmarkKeepStragglers: stragglers reach random husks of 100 000, with
// idle eviction off, and each is kept — the costliest husk traffic for a
// ring, where every Keep moves a husk to the tail, leaves a hole, and brings
// the next compaction step nearer. "alone" reports the longest single Keep
// (max-do-µs), which bounds how long the owner held the lock; in "has",
// another goroutine asks Has for random husks meanwhile and reports the
// longest call it saw (max-has-µs), lock waits and scheduling included.
func BenchmarkKeepStragglers(b *testing.B) {
	const husks = 100000
	for _, readers := range []bool{false, true} {
		b.Run(map[bool]string{false: "alone", true: "has"}[readers], func(b *testing.B) {
			tb := New(Config[valueFlow]{New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {}})
			nop := func(*valueFlow) {}
			keep := func(uint8) Action { return Keep }
			for i := 0; i < husks; i++ {
				tb.Do(tuple(i), nop, nil)
				tb.Settle(tuple(i), 1)
			}
			stop, longest := make(chan struct{}), make(chan time.Duration)
			if readers {
				go func() {
					var most time.Duration
					for rnd := uint64(3); ; {
						select {
						case <-stop:
							longest <- most
							return
						default:
						}
						rnd = rnd*6364136223846793005 + 1442695040888963407
						start := time.Now()
						tb.Has(tuple(int(rnd>>33) % husks))
						most = max(most, time.Since(start))
					}
				}()
			}
			var most time.Duration
			rnd := uint64(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				k := tuple(int(rnd>>33) % husks)
				if readers {
					tb.Do(k, nop, keep)
					continue
				}
				start := time.Now()
				tb.Do(k, nop, keep)
				most = max(most, time.Since(start))
			}
			b.StopTimer()
			if readers {
				close(stop)
				b.ReportMetric(float64(<-longest)/1e3, "max-has-µs")
			} else {
				b.ReportMetric(float64(most)/1e3, "max-do-µs")
			}
		})
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

// probeLen returns the longest probe run in a table's index: how many slots
// a lookup of the worst-placed key reads. wrapped reports whether some run
// crosses the end of the array.
func probeLen[F any](tb *Table[F]) (longest int, wrapped bool) {
	mask := len(tb.slots) - 1
	for i, r := range tb.slots {
		if r == 0 {
			continue
		}
		h := tb.homeOf(r)
		longest = max(longest, (i-h)&mask+1)
		wrapped = wrapped || h > i
	}
	return longest, wrapped
}

// audit fails t unless tb passes its own Audit.
func audit[F any](t *testing.T, tb *Table[F], when string) {
	t.Helper()
	if err := tb.Audit(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestIndexMatchesModel drives random Do, Settle, Remove, EvictIdle and
// capacity eviction — Do reaching husks among them, whose callback keeps,
// revives or removes them — through tables of several shapes: one that grows
// from 8 slots to hundreds, one held at its cap, one under idle eviction, a
// tiny one under heavy removal whose keys half share the last slot as their
// home, so probe runs wrap around the end of the array and backward-shift
// deletion does too, and two whose stragglers mostly keep their husks, so the
// ring fills with holes and compacts — in the larger, under idle eviction,
// across more ring positions than one step of compaction crosses. The model is one Go map and one
// age-ordered list of keys, each entry tagged connection or husk, and it
// evicts as the table promises: the oldest entry of either kind when idle,
// the oldest husk — and only without one, the oldest connection but the one
// just touched — over the cap. After every step the connections' LRU list
// and the husks' ring equal the model's order, kind and marks, Has over the
// whole key universe, Len, Stats, Range (connections only, with their
// records) and every record Evict received agree with it, and the table
// passes its Audit.
func TestIndexMatchesModel(t *testing.T) {
	for _, tc := range modelCases() {
		t.Run(tc.name, func(t *testing.T) {
			tb, run := runModel(t, tc.input())
			ranWhole(t, tc, tb, run)
		})
	}
}

// ranWhole fails t unless a run of case tc exercised what the case is
// for: the index grew, or wrapped in a tiny table; the eviction the case
// configures fired; some connection settled, some husk revived and some
// was removed by its straggler callback; and a straggler-heavy case
// compacted the ring.
func ranWhole(t *testing.T, tc modelCase, tb *Table[valueFlow], run modelRun) {
	t.Helper()
	st := tb.Stats()
	if tc.maxFlows == 0 && tc.idle == 0 && len(tb.slots) < 256 {
		t.Fatalf("the index only grew to %d slots", len(tb.slots))
	}
	if tc.wrap && (len(tb.slots) != 8 || !run.wrapped || st.Removed < 300) {
		t.Fatalf("tiny table never wrapped under removal: %d slots, wrapped %v, %+v", len(tb.slots), run.wrapped, st)
	}
	if tc.maxFlows > 0 && st.EvictedCap == 0 || tc.idle > 0 && st.EvictedIdle == 0 {
		t.Fatalf("the eviction under test never ran: %+v", st)
	}
	if run.husked == 0 || run.revived == 0 || run.removed == 0 {
		t.Fatalf("no settle, revive or husk removal: %+v", run)
	}
	if tc.stragglers && run.compacted == 0 {
		t.Fatalf("the ring never compacted: %+v", run)
	}
	if tc.keys > compactStep && run.midway == 0 {
		t.Fatalf("no compaction took more than one step: %+v", run)
	}
}

// FuzzTableModel drives the model of TestIndexMatchesModel with a table
// shape — key universe, MaxFlows, IdleTicks, Tick, the shares of Remove and
// Settle, wrapping homes and the ring's first position — and a run of steps,
// each a key, an operation, a straggler action and a mark, all read from the
// input (modelCase.input is the format). The seeds are the model test's
// cases cut to 60 steps: the test runs them whole.
func FuzzTableModel(f *testing.F) {
	for _, tc := range modelCases() {
		tc.steps = min(tc.steps, 60)
		f.Add(tc.input())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runModel(t, data)
	})
}

// modelCases are TestIndexMatchesModel's shapes and FuzzTableModel's seeds.
func modelCases() []modelCase {
	return []modelCase{
		{name: "growth", keys: 300, remove: 10, settle: 10, steps: 1500},
		{name: "capacity", keys: 160, maxFlows: 60, remove: 5, settle: 30, steps: 1500},
		{name: "idle", keys: 160, idle: 120, remove: 5, settle: 30, steps: 1500},
		{name: "tiny-heavy-removal", keys: 12, maxFlows: 5, remove: 45, settle: 20, steps: 3000, wrap: true},
		{name: "stragglers", keys: 200, remove: 1, settle: 40, steps: 3000, stragglers: true},
		{name: "long-ring", keys: 800, idle: 1200, remove: 1, settle: 50, steps: 2000, stragglers: true},
	}
}

// modelCase is one table shape runModel drives.
type modelCase struct {
	name       string
	keys       int
	maxFlows   int
	idle       uint64 // IdleTicks in Ticks
	remove     int    // in 100: share of steps that Remove
	settle     int    // in 100: share of steps whose Do ends the connection
	steps      int
	wrap       bool   // every other key's home is the index's last slot
	stragglers bool   // the husk callback keeps 15 husks in 16
	tick       uint64 // Config.Tick; 0 selects 1
	ringAt     uint32 // the ring's first position, as after that many appends
}

const (
	modelHeader = 17 // keys−1, MaxFlows, idle, Tick, remove, settle, wrap, ring start
	modelStep   = 5  // key, operation, action, mark
	// modelSteps caps a run, so a fuzzed input grown long stays quick.
	modelSteps = 3000
)

// input is the case as runModel reads it: the header, then steps of a
// generator seeded by the case's name.
func (tc modelCase) input() []byte {
	b := make([]byte, modelHeader, modelHeader+modelStep*tc.steps)
	binary.LittleEndian.PutUint16(b[0:], uint16(tc.keys-1))
	binary.LittleEndian.PutUint16(b[2:], uint16(tc.maxFlows))
	binary.LittleEndian.PutUint16(b[4:], uint16(tc.idle))
	binary.LittleEndian.PutUint32(b[6:], uint32(tc.tick))
	b[10], b[11] = byte(tc.remove), byte(tc.settle)
	if tc.wrap {
		b[12] = 1
	}
	binary.LittleEndian.PutUint32(b[13:], tc.ringAt)
	rnd := uint64(len(tc.name))
	for range tc.steps * modelStep {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		b = append(b, byte(rnd>>33))
	}
	if tc.stragglers {
		for i := modelHeader + 3; i < len(b); i += modelStep {
			if b[i-1]%16 != 0 {
				b[i] = 0 // Keep
			}
		}
	}
	return b
}

// modelRun is what a runModel run exercised.
type modelRun struct {
	husked, revived, removed, compacted int
	midway                              int // steps that left a compaction under way
	wrapped                             bool
	reach                               uint32 // the furthest ring position past the first appended
}

// runModel drives a table and its model through the shape and the first
// modelSteps steps data holds, checking them against each other after every
// step; data shorter than the header runs nothing.
func runModel(t *testing.T, data []byte) (*Table[valueFlow], modelRun) {
	if len(data) < modelHeader {
		return nil, modelRun{}
	}
	keys := 1 + int(binary.LittleEndian.Uint16(data[0:]))%2048
	maxFlows := int(binary.LittleEndian.Uint16(data[2:])) % 512
	tick := uint64(binary.LittleEndian.Uint32(data[6:]) & (1<<31 - 1))
	if tick == 0 {
		tick = 1
	}
	idle := min(uint64(binary.LittleEndian.Uint16(data[4:]))*tick, 1<<31-1)
	remove, settle, wrap := int(data[10])%101, int(data[11])%101, data[12]&1 != 0
	ringAt := binary.LittleEndian.Uint32(data[13:])
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
		order         []Key // oldest first
		clock         uint64
		want          Stats
		wantEv, gotEv []evicted
		step          int
		run           modelRun
	)
	tb := New(Config[valueFlow]{
		New: func(k Key) valueFlow { return valueFlow{key: k} },
		Evict: func(k Key, f valueFlow) {
			if f.key != k {
				t.Fatalf("step %d: evicted %v holding %v's record", step, k, f.key)
			}
			gotEv = append(gotEv, evicted{k, f.n})
		},
		MaxFlows:  maxFlows,
		IdleTicks: idle,
		Tick:      tick,
	})
	q := &tb.husks
	q.base, q.head, q.tail, q.fill, q.scan = ringAt, ringAt, ringAt, ringAt, ringAt
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
		if len(order) == 0 || clock-model[order[0]].last <= idle {
			return false
		}
		drop(order[0], &want.EvictedIdle)
		return true
	}
	universe := make([]Key, 0, keys)
	for i := 0; len(universe) < keys; i++ {
		k := tuple(i)
		var b [13]byte
		if pack(&b, &k); !wrap || (tb.home(&b) == len(tb.slots)-1) == (len(universe)%2 == 0) {
			universe = append(universe, k)
		}
	}
	for step = 1; step <= modelSteps && modelHeader+step*modelStep <= len(data); step++ {
		s := data[modelHeader+(step-1)*modelStep:]
		k := universe[int(binary.LittleEndian.Uint16(s))%len(universe)]
		tail := tb.husks.tail
		switch op := int(s[2]) % 100; {
		case op < remove:
			_, live := model[k]
			if got := tb.Remove(k); got != live {
				t.Fatalf("step %d: Remove(%v) = %v, model present %v", step, k, got, live)
			}
			if live {
				drop(k, &want.Removed)
			}
		case op < remove+2:
			n := tb.EvictIdle()
			wantN := 0
			for idle > 0 && dropIdle() {
				wantN++
			}
			if n != wantN {
				t.Fatalf("step %d: EvictIdle = %d, model %d", step, n, wantN)
			}
		default:
			act := []Action{Keep, Keep, Revive, Remove}[s[3]%4]
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
				run.revived++
			case husk && act == Remove:
				drop(k, &want.Removed)
				run.removed++
			}
			if model[k] != nil {
				touch(k)
			}
			for maxFlows > 0 && want.Live > maxFlows {
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
			for i := 0; i < 2 && idle > 0 && dropIdle(); i++ {
			}
			if ran != conn {
				t.Fatalf("step %d: Do(%v) ran fn %v, model touched a connection %v", step, k, ran, conn)
			}
			if conn {
				m.n++
			}
			if op < remove+2+settle {
				mark := 1 + s[4]%2
				settled := tb.Settle(k, mark)
				if m := model[k]; settled != (m != nil && m.mark == 0) {
					t.Fatalf("step %d: Settle(%v) = %v, model has %+v", step, k, settled, m)
				}
				if settled {
					wantEv = append(wantEv, evicted{k, m.n})
					*m = modelEntry{mark: mark}
					touch(k)
					want.Husks++
					run.husked++
				}
			}
		}
		if !slices.Equal(gotEv, wantEv) {
			t.Fatalf("step %d: Evict received %v, model %v", step, gotEv, wantEv)
		}
		gotEv, wantEv = gotEv[:0], wantEv[:0]
		audit(t, tb, fmt.Sprintf("step %d", step))
		// The tail moves back when the ring compacts, or when it empties and
		// rewinds to its first chunk, which a step may follow with one Settle.
		if q := &tb.husks; int32(q.tail-tail) < 0 && q.tail-q.base > 1 {
			run.compacted++
		} else if q.fill != q.scan {
			run.midway++
		}
		run.reach = max(run.reach, tb.husks.tail-ringAt)
		_, w := probeLen(tb)
		run.wrapped = run.wrapped || w
		if st := tb.Stats(); st != want || tb.Len() != len(model) {
			t.Fatalf("step %d: stats %+v, Len %d; model %+v, %d entries", step, st, tb.Len(), want, len(model))
		}
		// The LRU list walked from its tail and the ring from its head are
		// the model's order of each kind.
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
		for p := tb.husks.head; p != tb.husks.tail; p++ {
			h := tb.husks.pos(p)
			if !h.live {
				continue
			}
			if k := unpack(h.key); i >= len(husks) || k != husks[i] || h.last != uint32(model[k].last) || h.mark != model[k].mark {
				t.Fatalf("step %d: husk %d from the head is %v (last %d, mark %d), model order %v", step, i, k, h.last, h.mark, husks)
			}
			i++
		}
		if tb.conns.n != len(conns) || tb.husks.n != len(husks) {
			t.Fatalf("step %d: the table holds %d connections, %d husks; model %d, %d", step, tb.conns.n, tb.husks.n, len(conns), len(husks))
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
	t.Logf("%d slots, %d ring chunks, %+v, %+v", len(tb.slots), len(tb.husks.chunks), tb.Stats(), run)
	return tb, run
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
	audit(t, tb, "after the flood")
	longest, _ := probeLen(tb)
	t.Logf("%d colliding flows in %d slots: longest probe run %d", flows, len(tb.slots), longest)
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
	tc := modelCase{name: "clock-wrap", keys: 160, idle: 60, tick: tick, remove: 5, settle: 30, steps: 3000}
	tb, run := runModel(t, tc.input())
	ranWhole(t, tc, tb, run)
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
		audit(t, tb, fmt.Sprintf("after removing tuple %d", i))
	}
	if c, _ := chunks(); c != 3 {
		t.Fatalf("a set with a connection left gave back chunks: %d left", c)
	}
	tb.Settle(tuple(3*per), 1)
	if c, h := chunks(); c != 1 || h != 1 || tb.Len() != 2 {
		t.Fatalf("an emptied set kept %d chunks (husks %d, %d entries), want 1", c, h, tb.Len())
	}
	audit(t, tb, "after the slab emptied")
	tb.Do(tuple(0), nop, func(uint8) Action { return Revive })
	audit(t, tb, "after a revive")
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
	if c, h := len(tb.conns.chunks), len(tb.husks.chunks); c < 6 || h < 3 || len(tb.slots) < 2048 {
		t.Fatalf("the table grew to %d + %d chunks and %d slots: not across growth", c, h, len(tb.slots))
	}
}

// TestAuditRefusesCorruption: Audit passes a table holding connections,
// husks and a hole in the ring, and refuses each corruption of it — a
// dropped LRU link, two ring entries out of stamp order, an index slot
// naming a hole and a husk count off by one — with an error, not a panic.
func TestAuditRefusesCorruption(t *testing.T) {
	nop := func(*valueFlow) {}
	for _, tc := range []struct {
		name    string
		corrupt func(tb *Table[valueFlow])
	}{
		{"dropped LRU link", func(tb *Table[valueFlow]) {
			tb.conns.at(tb.conns.at(tb.conns.head).next).prev = 0
		}},
		{"ring entries out of stamp order", func(tb *Table[valueFlow]) {
			a, b := tb.husks.pos(tb.husks.head), tb.husks.pos(tb.husks.head+1)
			a.last, b.last = b.last, a.last
		}},
		{"index slot naming a hole", func(tb *Table[valueFlow]) {
			q := &tb.husks
			hole := q.head
			for q.pos(hole).live {
				hole++
			}
			tb.slots[tb.slotOf(q.ref(q.head))] = q.ref(hole)
		}},
		{"husk count off by one", func(tb *Table[valueFlow]) { tb.husks.n++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New(Config[valueFlow]{
				New:   func(k Key) valueFlow { return valueFlow{key: k} },
				Evict: func(Key, valueFlow) {}, IdleTicks: 1 << 20,
			})
			for i := 0; i < 40; i++ {
				tb.Do(tuple(i), nop, nil)
			}
			for i := 0; i < 40; i += 2 { // 20 husks, each stamped a tick after the last
				tb.Do(tuple(i), nop, nil)
				tb.Settle(tuple(i), 1)
			}
			tb.Remove(tuple(10)) // a hole in the ring, one in 19 husks
			audit(t, tb, "before the corruption")
			if holes := int(tb.husks.tail-tb.husks.head) - tb.husks.n; holes != 1 {
				t.Fatalf("the ring holds %d holes, want 1", holes)
			}
			tc.corrupt(tb)
			err := tb.Audit()
			if err == nil {
				t.Fatal("Audit passed the corrupted table")
			}
			t.Log(err)
		})
	}
}

// ringBound fails t unless the ring spans at most its husks and maxHoles —
// one hole per holeShare husks, one per compactStep positions and one more —
// in no more chunks than that span needs and one more for the unused ends.
func ringBound(t *testing.T, q *ring, when string) {
	t.Helper()
	span := int(q.tail - q.head)
	if span > q.n+q.n/holeShare+span/compactStep+1 || len(q.chunks) > (span+ringPer-1)/ringPer+1 {
		t.Fatalf("%s: the ring spans %d positions in %d chunks for %d husks", when, span, len(q.chunks), q.n)
	}
}

// TestRingBoundUnderStragglerFlood: with idle eviction off nothing but
// compaction reclaims a hole behind the head. A flood of stragglers on one
// husk, each after another connection has settled — so each keeps a husk
// that is no longer the youngest, moving it to the tail and leaving a hole,
// as every later packet of a quarantined flow does — must keep the ring
// within its bound throughout, by compacting it again and again.
func TestRingBoundUnderStragglerFlood(t *testing.T) {
	tb := New(Config[valueFlow]{New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {}})
	nop := func(*valueFlow) {}
	keep := func(uint8) Action { return Keep }
	const husks, stragglers = 1000, 100000
	for i := 0; i < husks; i++ {
		tb.Do(tuple(i), nop, nil)
		tb.Settle(tuple(i), 1)
	}
	compactions := 0
	for i := 0; i < stragglers; i++ {
		tb.Do(tuple(husks+i), nop, nil)
		tb.Settle(tuple(husks+i), 1)
		tail := tb.husks.tail
		tb.Do(tuple(husks/2), nop, keep)
		if int32(tb.husks.tail-tail) < 0 {
			compactions++
		}
		ringBound(t, &tb.husks, fmt.Sprintf("straggler %d", i))
		if i%10000 == 0 {
			audit(t, tb, fmt.Sprintf("straggler %d", i))
		}
	}
	// A compaction closes at most maxHoles holes, and the flood made one a
	// straggler.
	if tb.husks.n != husks+stragglers || compactions < stragglers/tb.husks.maxHoles() {
		t.Fatalf("%d husks left after the flood, %d compactions", tb.husks.n, compactions)
	}
	t.Logf("%d compactions, %d husks in %d chunks", compactions, tb.husks.n, len(tb.husks.chunks))
}

// TestHeadPassesAPausedCompaction: a compaction pauses between steps with
// holes from fill to scan, and stays paused while new husks outnumber the
// holes holeShare to one; evicting the oldest husks then takes the head past
// fill, and the cursors follow it. The table passes its Audit after every
// operation.
func TestHeadPassesAPausedCompaction(t *testing.T) {
	tb := New(Config[valueFlow]{New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {}})
	settle := func(i int) {
		tb.Do(tuple(i), func(*valueFlow) {}, nil)
		tb.Settle(tuple(i), 1)
	}
	for i := 0; i < 2000; i++ {
		settle(i)
	}
	q := &tb.husks
	removed := 0
	for ; q.fill == q.scan; removed++ { // one run of holes, until a step pauses in it
		tb.Remove(tuple(1000 + removed))
		audit(t, tb, fmt.Sprintf("removal %d", removed))
	}
	if q.fill-q.base != 1000 {
		t.Fatalf("after %d removals the compaction paused at %d, want 1000", removed, q.fill-q.base)
	}
	for i := 2000; i < 5000; i++ {
		settle(i)
	}
	for i := 0; i < 1000; i++ {
		tb.EvictOldest(Key{})
		audit(t, tb, fmt.Sprintf("eviction %d", i))
	}
	if want := uint32(1000 + removed); q.head != want || q.fill != q.head || q.scan != q.head || q.holes() != 0 {
		t.Fatalf("head %d (want %d), cursors %d and %d, %d holes", q.head, want, q.fill, q.scan, q.holes())
	}
}

// TestRingGivesBackChunks: a ring of 100 chunks of husks drained to a tenth
// gives back all but what the tenth needs, whether the drain takes the
// oldest husks — the head passing chunks — or every husk but one in ten,
// leaving holes the ring compacts.
func TestRingGivesBackChunks(t *testing.T) {
	const husks = 100 * ringPer
	for _, drain := range []string{"oldest first", "nine in ten"} {
		t.Run(drain, func(t *testing.T) {
			tb := New(Config[valueFlow]{New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {}})
			for i := 0; i < husks; i++ {
				tb.Do(tuple(i), func(*valueFlow) {}, nil)
				tb.Settle(tuple(i), 1)
			}
			if c := len(tb.husks.chunks); c != 100 {
				t.Fatalf("%d husks in %d chunks, want 100", husks, c)
			}
			for i := 0; i < husks; i++ {
				if drain == "oldest first" && i < husks*9/10 {
					tb.EvictOldest(Key{})
				} else if drain == "nine in ten" && i%10 != 0 {
					tb.Remove(tuple(i))
				}
				ringBound(t, &tb.husks, fmt.Sprintf("step %d", i))
			}
			audit(t, tb, "after the drain")
			if tb.husks.n != husks/10 || len(tb.husks.chunks) > 12 {
				t.Fatalf("%d husks left in %d chunks, want %d in at most 12", tb.husks.n, len(tb.husks.chunks), husks/10)
			}
			t.Logf("%d husks left in %d chunks", tb.husks.n, len(tb.husks.chunks))
		})
	}
}

// TestRingAcrossPositionWrap: ring positions count appends modulo 2³² and a
// husk's ref keeps their low 31 bits, so refs repeat every 2³¹ appends and
// positions every 2³². A ring starting just short of either wrap, under the
// model with stragglers, capacity and idle eviction and a clock that wraps
// too, keeps every ref, stamp and order exact across it.
func TestRingAcrossPositionWrap(t *testing.T) {
	for _, at := range []uint32{1<<31 - 300, 1<<32 - 300} {
		t.Run(fmt.Sprintf("from %d", at), func(t *testing.T) {
			tc := modelCase{name: "ring-wrap", keys: 200, maxFlows: 40, idle: 150, tick: 1<<25 + 3,
				remove: 2, settle: 40, steps: 3000, stragglers: true, ringAt: at}
			tb, run := runModel(t, tc.input())
			ranWhole(t, tc, tb, run)
			if run.reach <= 300 || run.compacted == 0 || tb.Clock()>>32 < 10 {
				t.Fatalf("the ring reached %d past its start, compacted %d times, the clock wrapped %d times: not across the wrap",
					run.reach, run.compacted, tb.Clock()>>32)
			}
		})
	}
}

// TestHasFromAnotherGoroutineDuringCompaction: while the owner floods its
// husks with stragglers, so the ring compacts over and over and moves husks
// and their index slots under the lock Has takes, and cycles some of them
// through a revive and a new settle, readers ask Has for every husk — each
// always present as a husk or a connection — and for a key never inserted.
func TestHasFromAnotherGoroutineDuringCompaction(t *testing.T) {
	tb := New(Config[valueFlow]{New: func(k Key) valueFlow { return valueFlow{key: k} }, Evict: func(Key, valueFlow) {}})
	nop := func(*valueFlow) {}
	const husks = 600
	for i := 0; i < husks; i++ {
		tb.Do(tuple(i), nop, nil)
		tb.Settle(tuple(i), 1)
	}
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
				rnd = rnd*6364136223846793005 + 1442695040888963407
				if i := int(rnd>>33) % husks; !tb.Has(tuple(i)) {
					t.Errorf("Has missed tuple %d", i)
					return
				}
				if tb.Has(tuple(1 << 21)) {
					t.Error("Has found a tuple never inserted")
					return
				}
			}
		}(uint64(g))
	}
	compactions := 0
	rnd := uint64(7)
	for i := 0; i < 30000; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		k := tuple(int(rnd>>33) % husks)
		tail := tb.husks.tail
		if i%3 == 0 {
			tb.Do(k, nop, func(uint8) Action { return Revive })
			tb.Settle(k, 1)
		} else {
			tb.Do(k, nop, func(uint8) Action { return Keep })
		}
		if int32(tb.husks.tail-tail) < 0 {
			compactions++
		}
	}
	close(stop)
	wg.Wait()
	audit(t, tb, "after the flood")
	if compactions < 100 || tb.husks.n != husks {
		t.Fatalf("%d compactions, %d husks: the owner did not compact under the readers", compactions, tb.husks.n)
	}
}
