package dpi

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/reassembly"
)

// flowHeapCeiling is what one live TCP flow may cost the heap, everything
// counted: its flow-table entry — a 28 B header and the 48 B record, 80 B
// of a slab chunk — and its share of the table's index, a 4-byte slot
// (88 B measured), with 15 % headroom for where the index sits between
// doublings and the last chunk is filled. OPERATIONS.md's "Sizing memory"
// runbook quotes the measured figure; this is the gate.
const flowHeapCeiling = 101

// liveHeap is the heap in use after the collector has settled: twice,
// because a finalizer or pool emptied by the first cycle frees on the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprintTuple is the i-th of a family of distinct TCP tuples.
func footprintTuple(i int) FiveTuple {
	return FiveTuple{
		SrcIP: IPv4(10, 1, 0, 0) + uint32(i), DstIP: IPv4(10, 2, 0, 1),
		SrcPort: uint16(1024 + i%50000), DstPort: 443, Proto: ProtoTCP,
	}
}

// heapPerFlow opens n sequenced TCP flows on a fresh two-lane gateway over
// m, writes payload to each once, leaves them established and idle, and
// returns the settled heap they hold per flow. The payload is shared and
// allocated by the caller, so only the sensor's own state is measured.
func heapPerFlow(t *testing.T, m *Matcher, n int, payload []byte) float64 {
	t.Helper()
	per, st := heapPerConnection(t, m, n, func(tup FiveTuple) []GatewayPacket {
		return []GatewayPacket{
			{Tuple: tup, Seq: 1000, Flags: FlagSeq | FlagSYN},
			{Tuple: tup, Seq: 1001, Flags: FlagSeq, Payload: payload},
		}
	})
	if st.FlowsLive != n || st.ScannedBytes != uint64(n*len(payload)) || !st.Ledger().Balanced() {
		t.Fatalf("flows not established as driven: %+v", st)
	}
	return per
}

// heapPerConnection drives the packets of n connections, one tuple each, on
// a fresh two-lane gateway over m, and returns the settled heap the gateway
// holds afterwards per connection, with its drained stats.
func heapPerConnection(t *testing.T, m *Matcher, n int, packets func(FiveTuple) []GatewayPacket) (float64, GatewayStats) {
	t.Helper()
	var matches atomic.Uint64
	gw, err := NewGateway(m, GatewayConfig{StreamWorkers: 2}, func(FlowMatch) { matches.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	before := liveHeap()
	for i := 0; i < n; i++ {
		for _, p := range packets(footprintTuple(i)) {
			if err := gw.Ingest(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	gw.Flush()
	after := liveHeap()
	per := (float64(after) - float64(before)) / float64(n)
	t.Logf("%d connections, %d matches: %.0f B of heap per connection", n, matches.Load(), per)
	return per, gw.Stats()
}

// assertPointerFree fails when a value of type ty could reference the heap.
func assertPointerFree(t *testing.T, ty reflect.Type, path string) {
	t.Helper()
	switch ty.Kind() {
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			assertPointerFree(t, ty.Field(i).Type, path+"."+ty.Field(i).Name)
		}
	case reflect.Array:
		assertPointerFree(t, ty.Elem(), path+"[]")
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		t.Errorf("%s is a %s: registers must be plain data", path, ty.Kind())
	}
}

// TestFlowRecordFootprint pins the per-connection layout: the scanner
// registers are a small pointer-free value, the gateway's flow record holds
// them, the reassembly cursor and the verdict inline, the cursor keeps its
// out-of-order state behind one pointer, and an established flow through a
// real gateway costs the heap one object — the table entry holding that
// record — and its index slot, nothing chained behind it.
func TestFlowRecordFootprint(t *testing.T) {
	// A flow's whole scan state: one register file and no tag naming its
	// automaton, whatever the ruleset's size — nothing for an open to allocate.
	if size := unsafe.Sizeof(core.Regs{}); size > 16 {
		t.Errorf("core.Regs is %d B, want <= 16", size)
	}
	assertPointerFree(t, reflect.TypeOf(core.Regs{}), "core.Regs")
	// Two flags, the cursor in sequence space and the out-of-order pointer;
	// the config is the gateway's, passed in by the lane.
	if size := unsafe.Sizeof(reassembly.Cursor{}); size > 16 {
		t.Errorf("reassembly.Cursor is %d B, want <= 16", size)
	}
	// With the table entry's 28 B header, 80 B of a chunk.
	if size := unsafe.Sizeof(gwFlow{}); size > 48 {
		t.Errorf("gwFlow is %d B, want <= 48", size)
	}
	t.Logf("core.Regs %d B, reassembly.Cursor %d B, gwFlow %d B",
		unsafe.Sizeof(core.Regs{}), unsafe.Sizeof(reassembly.Cursor{}), unsafe.Sizeof(gwFlow{}))

	if raceEnabled {
		t.Skip("heap growth is not the product's under -race")
	}
	m, _ := gatewayMatcher(t, 200)
	payload := bytes.Repeat([]byte("x"), 64)
	if per := heapPerFlow(t, m, 4096, payload); per > flowHeapCeiling {
		t.Fatalf("an established flow holds %.0f B of heap, want <= %d", per, flowHeapCeiling)
	}
}

// huskHeapCeiling is what a finished connection may cost the heap: its husk,
// a 32 B slab entry holding the tuple, the table header and a one-byte mark,
// and its 4-byte slot in the husk index, which sits between 3/8 and 3/4 full
// (5–11 B), with headroom.
const huskHeapCeiling = 45

// TestHuskFootprint: a connection that ended by FIN keeps no record — no
// registers, no reassembly cursor, no ruleset pin — only its husk, so it
// costs the heap a 32 B entry and an index slot, not a live flow's 88 B.
func TestHuskFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth is not the product's under -race")
	}
	m, _ := gatewayMatcher(t, 200)
	payload := bytes.Repeat([]byte("x"), 64)
	const n = 60000
	per, st := heapPerConnection(t, m, n, func(tup FiveTuple) []GatewayPacket {
		return []GatewayPacket{
			{Tuple: tup, Seq: 1000, Flags: FlagSeq | FlagSYN},
			{Tuple: tup, Seq: 1001, Flags: FlagSeq, Payload: payload},
			{Tuple: tup, Seq: 1001 + uint32(len(payload)), Flags: FlagSeq | FlagFIN},
		}
	})
	if st.FlowsLive != n || st.FlowHusks != n || st.FlowsFinished != n || !st.Ledger().Balanced() {
		t.Fatalf("connections not finished as driven: %+v", st)
	}
	if per > huskHeapCeiling {
		t.Fatalf("a finished connection holds %.0f B of heap, want <= %d", per, huskHeapCeiling)
	}
}

// TestGatewayMatchDenseFlowsHoldNoBuffers: a segment that matches at every
// byte grows whatever buffer its matches are gathered in to 16 B × segment
// length. Gathered per flow, every tuple that ever carried such a segment
// would pin that much for the life of its connection; gathered per lane it
// is two buffers however many flows there are, so idle flows stay under the
// same ceiling as clean ones.
func TestGatewayMatchDenseFlowsHoldNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth is not the product's under -race")
	}
	rules := NewRuleset()
	rules.MustAdd("every-byte", []byte("a"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("a"), 512)
	if per := heapPerFlow(t, m, 2048, payload); per > flowHeapCeiling {
		t.Fatalf("a flow that once carried an all-match segment holds %.0f B of heap idle, want <= %d",
			per, flowHeapCeiling)
	}
}

// TestGatewayConnectionCycleAllocs: a connection revived by SYN on the
// husk its predecessor left — the steady state of a busy port pair — runs
// SYN → data → FIN without allocating: the table builds the record in the
// entry the last FIN freed, and the husk it settles into is the one the SYN
// freed. A tuple never seen before allocates at most one object — a slab
// chunk, once every 51 connections or 127 husks — plus the table index's
// growth amortised over the connections that caused it (AllocsPerRun
// reports whole allocations per run, so a fraction below one rounds away).
func TestGatewayConnectionCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("attack-signature"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var matches atomic.Uint64
	gw, err := NewGateway(m, GatewayConfig{StreamWorkers: 2}, func(FlowMatch) { matches.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	payload := append(bytes.Repeat([]byte("x"), 600), "attack-signature"...)
	connection := func(tup FiveTuple) {
		for _, p := range []GatewayPacket{
			{Tuple: tup, Seq: 7000, Flags: FlagSeq | FlagSYN},
			{Tuple: tup, Seq: 7001, Flags: FlagSeq, Payload: payload},
			{Tuple: tup, Seq: 7001 + uint32(len(payload)), Flags: FlagSeq | FlagFIN},
		} {
			if err := gw.Ingest(p); err != nil {
				t.Fatal(err)
			}
		}
		gw.Flush()
	}

	husk := footprintTuple(0)
	connection(husk) // the first connection leaves the husk and warms the lane's scratch
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { connection(husk) }); allocs != 0 {
		t.Errorf("a connection re-opened on its husk allocated %.0f times", allocs)
	}

	next := 1
	fresh := testing.AllocsPerRun(runs, func() {
		connection(footprintTuple(next))
		next++
	})
	if fresh > 1 {
		t.Errorf("a never-seen tuple's whole connection allocated %.0f times, want at most a slab chunk", fresh)
	}

	st := gw.Stats()
	conns := uint64(2*(runs+1) + 1)
	if st.FlowsFinished != conns || st.Matches != conns || matches.Load() != conns || !st.Ledger().Balanced() {
		t.Fatalf("%d connections driven, gateway saw: %+v", conns, st)
	}
}

// TestGatewaySynReopenRacesEviction: a SYN revives a husk by building a new
// record in its place, on its lane, while capacity eviction takes husks and
// records on every lane and a control-plane goroutine keeps stopping the
// world to evict idle ones and audit the rest (a quiesced walk of the lane
// tables). Each feeder cycles whole connections over its own tuples
// through a table far too small for them; whatever was evicted when, every
// connection's signature is found exactly once, the ledger balances, and
// every quiesced walk finds the generation refcount equal to the records
// that hold a pin. Run with -race.
func TestGatewaySynReopenRacesEviction(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var matches atomic.Uint64
	gw := testGateway(t, m, GatewayConfig{
		EngineShards: 2, StreamWorkers: 2, QueueDepth: 8,
		MaxFlows: 6, IdleTimeout: 16,
	}, func(FlowMatch) { matches.Add(1) })

	const feeders, tuplesEach, cycles = 4, 6, 60
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				for i := 0; i < tuplesEach; i++ {
					tup := footprintTuple(f*tuplesEach + i)
					seq := uint32(c * 1000)
					for _, p := range []GatewayPacket{
						{Tuple: tup, Seq: seq, Flags: FlagSeq | FlagSYN},
						{Tuple: tup, Seq: seq + 1, Flags: FlagSeq, Payload: []byte("..needle..")},
						{Tuple: tup, Seq: seq + 11, Flags: FlagSeq | FlagFIN},
					} {
						if err := gw.Ingest(p); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(f)
	}
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gw.EvictIdleFlows()
			gw.auditGenerationPins(t)
			gw.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	<-swept
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	const conns = feeders * tuplesEach * cycles
	if got := matches.Load(); got != conns || st.Matches != conns {
		t.Fatalf("%d connections, %d signatures found (stats %d)", conns, got, st.Matches)
	}
	if !st.Ledger().Balanced() || st.Panics != 0 {
		t.Fatalf("ledger %+v, stats %+v", st.Ledger(), st)
	}
	if st.FlowsEvicted == 0 {
		t.Fatal("no flow was evicted; the table was not under pressure")
	}
	var opened uint64
	for _, ss := range gw.ShardStats() {
		opened += ss.FlowsOpened
	}
	if opened < conns {
		t.Fatalf("engines opened %d flows for %d connections", opened, conns)
	}
}
