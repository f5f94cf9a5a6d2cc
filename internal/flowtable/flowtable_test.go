package flowtable

// Tests for the single-writer flow table: LRU and idle eviction over the
// whole table, the clean-state guarantee for evicted-then-recreated flows,
// callbacks that panic, the one cross-goroutine method, Has, against a
// churning owner, and the open-addressed index against a plain Go map and a
// Hash64 collision flood. Run with -race (CI does).

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
	h.table.Do(tuple(1), func(pf **fakeFlow) {
		f := *pf
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
	h.table.Do(tuple(0), func(pf **fakeFlow) {
		f := *pf
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

// TestEntryFootprint pins what a flow costs the table: one entry holding a
// 40 B header — key, last-activity tick and the two LRU links, no lock —
// and the record by value, plus its index slot. With the gateway's record
// (56 B, gated by TestFlowRecordFootprint) an entry is 96 B, exactly the
// 96 B malloc size class.
func TestEntryFootprint(t *testing.T) {
	if off := unsafe.Offsetof(entry[*fakeFlow]{}.flow); off != 40 {
		t.Fatalf("entry header is %d B, want 40", off)
	}
	if size := unsafe.Sizeof(entry[[7]uint64]{}); size > 96 {
		t.Fatalf("entry of a 56 B record is %d B, want <= 96", size)
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
	tb.Do(k, func(**fakeFlow) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Do(k, func(**fakeFlow) {})
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
		tb.Do(tuple(i%8192), func(**fakeFlow) {})
	}
}

func ExampleTable() {
	tb := New(Config[*fakeFlow]{
		New:      func(k Key) *fakeFlow { return &fakeFlow{key: k} },
		Evict:    func(Key, *fakeFlow) {},
		MaxFlows: 2,
	})
	for i := 0; i < 3; i++ {
		tb.Do(tuple(i), func(**fakeFlow) {})
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
	nop := func(**fakeFlow) {}
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
	nop := func(**fakeFlow) {}
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

// valueFlow is a record held by value in its entry, as the gateway holds its
// own: the table owns it, Do reaches it in place, Evict gets a copy.
type valueFlow struct {
	key Key
	n   int // Do calls on this incarnation of the flow
}

// probeLen returns the longest probe run in the index: how many slots a
// lookup of the worst-placed key reads. wrapped reports whether some run
// crosses the end of the array.
func probeLen[F any](tb *Table[F]) (longest int, wrapped bool) {
	mask := len(tb.slots) - 1
	for i, e := range tb.slots {
		if e == nil {
			continue
		}
		h := tb.home(e.key)
		longest = max(longest, (i-h)&mask+1)
		wrapped = wrapped || h > i
	}
	return longest, wrapped
}

// checkIndex fails unless the index holds exactly the live entries, each
// where a lookup of its key finds it, with every probe run sorted by home
// slot: an entry sits at most one slot further from its home than the entry
// before it.
func checkIndex[F any](t *testing.T, tb *Table[F]) {
	t.Helper()
	if len(tb.slots)&(len(tb.slots)-1) != 0 || 4*tb.Len() > 3*len(tb.slots) {
		t.Fatalf("index of %d slots holding %d flows", len(tb.slots), tb.Len())
	}
	mask := len(tb.slots) - 1
	n := 0
	for i, e := range tb.slots {
		if e == nil {
			continue
		}
		n++
		if j := tb.slot(e.key); j != i {
			t.Fatalf("%v sits in slot %d, a lookup stops at %d", e.key, i, j)
		}
		if next := tb.slots[(i+1)&mask]; next != nil {
			if d, dn := (i-tb.home(e.key))&mask, (i+1-tb.home(next.key))&mask; dn > d+1 {
				t.Fatalf("slot %d is %d from its home after slot %d at %d: run not sorted by home", i+1, dn, i, d)
			}
		}
	}
	if n != tb.Len() {
		t.Fatalf("index holds %d entries, table counts %d", n, tb.Len())
	}
}

// TestIndexMatchesModel drives random Do, Remove, EvictIdle and capacity
// eviction through tables of several shapes — one that grows from 8 slots to
// hundreds, one held at its cap, one under idle eviction, and a tiny one
// under heavy removal whose keys half share the last slot as their home, so
// probe runs wrap around the end of the array and backward-shift deletion
// does too — against a plain Go map. After every step Has over the whole key
// universe, Len and Range agree with the model,
// the index holds exactly the live entries, and every record Do or Evict sees
// is the one the model says that flow has.
func TestIndexMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keys     int
		maxFlows int
		idle     uint64
		remove   int // in 100: share of steps that Remove
		steps    int
		wrap     bool // every other key's home is the index's last slot
	}{
		{"growth", 300, 0, 0, 10, 1500, false},
		{"capacity", 160, 60, 0, 5, 1500, false},
		{"idle", 160, 0, 120, 5, 1500, false},
		{"tiny-heavy-removal", 12, 5, 0, 45, 3000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rnd := uint64(len(tc.name))
			next := func(n int) int {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				return int(rnd>>33) % n
			}
			type modelFlow struct {
				n    int
				last int // step of the flow's last Do
			}
			model := map[Key]*modelFlow{}
			step, removing := 0, false
			var wrapped bool
			tb := New(Config[valueFlow]{
				New: func(k Key) valueFlow { return valueFlow{key: k} },
				Evict: func(k Key, f valueFlow) {
					m := model[k]
					if m == nil || f.key != k || f.n != m.n {
						t.Fatalf("step %d: evicted %v with %d Do calls, model has %+v", step, k, f.n, m)
					}
					if !removing {
						for o, om := range model {
							if om.last < m.last {
								t.Fatalf("step %d: evicted %v (last %d) while %v (last %d) was staler", step, k, m.last, o, om.last)
							}
						}
					}
					delete(model, k)
				},
				MaxFlows:  tc.maxFlows,
				IdleTicks: tc.idle,
			})
			universe := make([]Key, 0, tc.keys)
			for i := 0; len(universe) < tc.keys; i++ {
				if k := tuple(i); !tc.wrap || (tb.home(k) == len(tb.slots)-1) == (len(universe)%2 == 0) {
					universe = append(universe, k)
				}
			}
			for step = 1; step <= tc.steps; step++ {
				k := universe[next(len(universe))]
				switch op := next(100); {
				case op < tc.remove:
					removing = true
					_, live := model[k]
					if got := tb.Remove(k); got != live {
						t.Fatalf("step %d: Remove(%v) = %v, model live %v", step, k, got, live)
					}
					if _, still := model[k]; still {
						t.Fatalf("step %d: Remove did not evict %v", step, k)
					}
					removing = false
				case op < tc.remove+2:
					tb.EvictIdle()
				default:
					m := model[k]
					created := tb.Do(k, func(f *valueFlow) {
						if f.key != k {
							t.Fatalf("step %d: Do(%v) reached %v's record", step, k, f.key)
						}
						f.n++
					})
					if created != (m == nil) {
						t.Fatalf("step %d: Do(%v) created = %v, model live %v", step, k, created, m != nil)
					}
					if m == nil {
						m = &modelFlow{}
						model[k] = m
					}
					m.n++
					m.last = step
				}
				checkIndex(t, tb)
				_, w := probeLen(tb)
				wrapped = wrapped || w
				if tb.Len() != len(model) {
					t.Fatalf("step %d: Len = %d, model has %d", step, tb.Len(), len(model))
				}
				for _, k := range universe {
					if _, live := model[k]; tb.Has(k) != live {
						t.Fatalf("step %d: Has(%v) = %v, model live %v", step, k, !live, live)
					}
				}
				seen := 0
				tb.Range(func(k Key, f *valueFlow) {
					seen++
					if m := model[k]; m == nil || f.n != m.n {
						t.Fatalf("step %d: Range found %v with %d Do calls, model has %+v", step, k, f.n, m)
					}
				})
				if seen != len(model) {
					t.Fatalf("step %d: Range saw %d flows, model has %d", step, seen, len(model))
				}
			}
			st := tb.Stats()
			t.Logf("%d slots, %+v, probe runs wrapped: %v", len(tb.slots), st, wrapped)
			if tc.maxFlows == 0 && tc.idle == 0 && len(tb.slots) < 256 {
				t.Fatalf("index only grew to %d slots", len(tb.slots))
			}
			if tc.wrap && (len(tb.slots) != 8 || !wrapped || st.Removed < 300) {
				t.Fatalf("tiny table never wrapped under removal: %d slots, wrapped %v, %+v", len(tb.slots), wrapped, st)
			}
			if tc.maxFlows > 0 && st.EvictedCap == 0 || tc.idle > 0 && st.EvictedIdle == 0 {
				t.Fatalf("the eviction under test never ran: %+v", st)
			}
		})
	}
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
			tb.Do(k, func(*valueFlow) {})
		}
	}
	checkIndex(t, tb)
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
	if !tb.Do(tuple(1), bump) || tb.DoHashed(tuple(1), tuple(1).Hash64(), read) || got != (valueFlow{tuple(1), 1}) {
		t.Fatalf("DoHashed after Do read %+v", got)
	}
	if !tb.DoHashed(tuple(2), 0, read) || tb.Do(tuple(2), bump) {
		t.Fatal("Do recreated a flow DoHashed created")
	}
	if tb.DoHashed(tuple(2), 0, read); got != (valueFlow{tuple(2), 1}) || tb.Len() != 2 {
		t.Fatalf("DoHashed read %+v of %d flows", got, tb.Len())
	}
}
