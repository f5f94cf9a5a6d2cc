package dpi

// Hot-reload tests: the generation-pinning oracle (flows opened before a
// SwapRules keep scanning — and matching — against the matcher they were
// born under, across backends and shard counts), refcounted retirement
// (old generations free exactly when their last pinned flow ends), the
// race-mode Ingest/SwapRules/Metrics/Flush storm, the wrapped sentinel
// errors, and the swap-equivalence fuzzer.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// soakSeed is the fault-injection harness's one knob: every soak and swap
// test (here and in chaos_soak_test.go) writes its ruleset, workload and
// injector seeds as SoakSeed(constant), so a plain run uses the constants
// and `go test -run 'TestChaosSoak|TestSwap' . -args -soak.seed=N` replays
// the whole harness at another seed.
var soakSeed = flag.Int64("soak.seed", 0, "base added to every soak/swap test's ruleset, workload and injector seeds")

// SoakSeed returns k offset by -soak.seed. Exported for the external test
// package, which is compiled into the same test binary.
func SoakSeed(k int64) int64 { return *soakSeed + k }

// swapWave is one ruleset generation's share of an oracle run: the
// matcher flows born in this wave must stay pinned to, and the flows
// themselves (tuples remapped to be disjoint across waves).
type swapWave struct {
	m       *Matcher
	tuples  []FiveTuple
	streams [][]byte
	// pkts[f] holds flow f's segments in stream order; the scheduler
	// consumes a prefix before the next swap and the rest after it.
	pkts [][]GatewayPacket
}

// buildSwapWave compiles a fresh ruleset (guaranteeing a strictly higher
// compile generation than any earlier wave) and a flow workload over it,
// with tuples remapped into a per-wave address block so waves never
// collide in the flow table.
func buildSwapWave(t *testing.T, wave, strings int, backend string, seed int64) swapWave {
	t.Helper()
	rules, err := GenerateSnortLike(strings, 1000*int64(wave)+seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(rules, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.GenerateFlows(rules.InternalSet(), traffic.FlowConfig{
		Flows: 8, SegmentsPerFlow: 5, SegmentBytes: 130, Seed: seed + int64(wave),
		CrossDensity: 2, AttackDensity: 1, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := swapWave{m: m, streams: w.Streams, pkts: make([][]GatewayPacket, len(w.Tuples))}
	for f := range w.Tuples {
		sw.tuples = append(sw.tuples, FiveTuple{
			SrcIP: 0x0a000000 | uint32(wave)<<8 | uint32(f), DstIP: 0xc0a80001,
			SrcPort: uint16(1024 + f), DstPort: 80, Proto: ProtoTCP,
		})
	}
	for _, p := range w.Packets {
		sw.pkts[p.FlowID] = append(sw.pkts[p.FlowID],
			GatewayPacket{Tuple: sw.tuples[p.FlowID], Payload: p.Payload})
	}
	return sw
}

// TestSwapGenerationOracle is the tentpole invariant end to end: three
// ruleset generations are installed under live traffic with randomized
// swap points, and every flow's emitted matches must equal FindAll of its
// whole stream against the matcher current when the flow opened — not the
// one current when later segments arrived. Then the first two waves FIN
// and both old generations must retire, provably: counters, the live
// generation list, and a flow-table sweep checking no scanner of a
// retired generation is still checked out.
func TestSwapGenerationOracle(t *testing.T) {
	for bi, backend := range core.RegisteredBackends() {
		for si, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				testSwapGenerationOracle(t, backend, shards, SoakSeed(int64(31+7*bi+si)))
			})
		}
	}
}

func testSwapGenerationOracle(t *testing.T, backend string, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	waves := []swapWave{
		buildSwapWave(t, 0, 120, backend, seed),
		buildSwapWave(t, 1, 150, backend, seed),
		buildSwapWave(t, 2, 100, backend, seed),
	}
	// One Compile is one machine is one generation: consecutive compiles
	// are consecutive numbers, none burnt on the way.
	for i := 1; i < len(waves); i++ {
		if waves[i].m.Generation() != waves[i-1].m.Generation()+1 {
			t.Fatalf("consecutive compiles took generations %d then %d, want a step of exactly 1",
				waves[i-1].m.Generation(), waves[i].m.Generation())
		}
	}

	c := newCollector()
	gw := testGateway(t, waves[0].m,
		GatewayConfig{EngineShards: shards, StreamWorkers: 2}, c.emit)
	if got := gw.Generation(); got != waves[0].m.Generation() {
		t.Fatalf("initial generation %d, matcher has %d", got, waves[0].m.Generation())
	}

	// pending[w][f] is the unsent tail of wave w's flow f. drain ingests
	// randomly interleaved packets from the given waves; ensureOpen sends
	// at least flow f's first segment so the flow pins the current
	// generation before the next swap moves it.
	pending := make([][][]GatewayPacket, len(waves))
	for wv := range waves {
		pending[wv] = append([][]GatewayPacket{}, waves[wv].pkts...)
	}
	send := func(p GatewayPacket) {
		t.Helper()
		if err := gw.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	drainSome := func(upTo int, fraction float64) {
		for wv := 0; wv <= upTo; wv++ {
			for f := range pending[wv] {
				for len(pending[wv][f]) > 0 && rng.Float64() < fraction {
					send(pending[wv][f][0])
					pending[wv][f] = pending[wv][f][1:]
				}
			}
		}
	}
	ensureOpen := func(wv int) {
		for f := range pending[wv] {
			if len(pending[wv][f]) == len(waves[wv].pkts[f]) {
				send(pending[wv][f][0])
				pending[wv][f] = pending[wv][f][1:]
			}
		}
	}

	// Wave 0 flows all open, each with a random share of its stream sent.
	ensureOpen(0)
	drainSome(0, 0.5)
	if err := gw.SwapRules(waves[1].m); err != nil {
		t.Fatal(err)
	}
	if got := gw.Generation(); got != waves[1].m.Generation() {
		t.Fatalf("after first swap generation %d, want %d", got, waves[1].m.Generation())
	}
	// Wave 1 opens on generation B while wave 0 keeps streaming.
	ensureOpen(1)
	drainSome(1, 0.5)
	if err := gw.SwapRules(waves[2].m); err != nil {
		t.Fatal(err)
	}
	ensureOpen(2)
	// Everything else, fully interleaved across all three waves.
	for {
		left := false
		drainSome(2, 0.7)
		for wv := range pending {
			for f := range pending[wv] {
				if len(pending[wv][f]) > 0 {
					left = true
				}
			}
		}
		if !left {
			break
		}
	}
	gw.Flush()

	// Pinning oracle: every flow's full match stream equals FindAll of its
	// whole stream against its birth-generation matcher.
	total := 0
	for wv, sw := range waves {
		for f, tup := range sw.tuples {
			want := sw.m.FindAll(sw.streams[f])
			if got := c.byTuple[tup]; !sameMatchSeq(got, want) {
				t.Fatalf("wave %d flow %d: %d matches vs pinned-matcher oracle %d (or order/offsets differ)",
					wv, f, len(got), len(want))
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no matches across any wave; test is vacuous")
	}

	// Every live flow is pinned to exactly its birth generation, and each
	// generation's refcount equals the records that hold it.
	wantGen := map[FiveTuple]uint64{}
	for wv, sw := range waves {
		for _, tup := range sw.tuples {
			wantGen[tup] = waves[wv].m.Generation()
		}
	}
	swept := 0
	gw.rangeFlows(func(k FiveTuple, fl *gwFlow) {
		swept++
		want, ok := wantGen[k]
		if !ok {
			t.Errorf("unexpected flow %v in table", k)
			return
		}
		if fl.gen == nil || fl.gen.id != want {
			t.Errorf("flow %v pinned to wrong generation (want %d)", k, want)
		}
	})
	if swept == 0 {
		t.Fatal("flow-table sweep saw no flows")
	}
	gw.auditGenerationPins(t)

	st := gw.Stats()
	if st.GenerationsInstalled != 3 || st.RulesetSwaps != 2 ||
		st.GenerationsRetired != 0 || st.GenerationsLive != 3 {
		t.Fatalf("pre-drain generation counters: %+v", st)
	}
	gens := gw.Generations()
	if len(gens) != 3 || !gens[2].Current || gens[0].Current || gens[1].Current {
		t.Fatalf("Generations() = %+v", gens)
	}
	for wv, gi := range gens {
		if gi.Generation != waves[wv].m.Generation() || gi.Flows != int64(len(waves[wv].tuples)) {
			t.Fatalf("generation %d info %+v, want id %d flows %d",
				wv, gi, waves[wv].m.Generation(), len(waves[wv].tuples))
		}
	}
	preShard := gw.ShardStats()

	// FIN waves 0 and 1: their generations lose the last pin and must
	// retire — no sweeper, the FIN itself does it.
	for wv := 0; wv < 2; wv++ {
		for _, tup := range waves[wv].tuples {
			send(GatewayPacket{Tuple: tup, Flags: FlagFIN})
		}
	}
	gw.Flush()
	st = gw.Stats()
	if st.GenerationsRetired != st.GenerationsInstalled-1 {
		t.Fatalf("after FIN drain: retired %d, installed %d (want installed-1)",
			st.GenerationsRetired, st.GenerationsInstalled)
	}
	if st.GenerationsLive != 1 || st.Generation != waves[2].m.Generation() {
		t.Fatalf("after FIN drain: %d live generations, current %d", st.GenerationsLive, st.Generation)
	}
	gens = gw.Generations()
	if len(gens) != 1 || !gens[0].Current || gens[0].Flows != int64(len(waves[2].tuples)) {
		t.Fatalf("after FIN drain Generations() = %+v", gens)
	}
	gw.auditGenerationPins(t)
	// Scan-work counters belong to the shard, not the generation: per-shard
	// stats stay monotone across retirement.
	for i, es := range gw.ShardStats() {
		if es.FlowsOpened < preShard[i].FlowsOpened || es.StreamBytes < preShard[i].StreamBytes {
			t.Fatalf("shard %d stats went backwards across retirement: %+v then %+v",
				i, preShard[i], es)
		}
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if l := gw.Stats().Ledger(); !l.Balanced() {
		t.Fatalf("ledger unbalanced after close: %+v", l)
	}
}

// TestSynReopenPinsCurrentGeneration: a flow's registers carry no record of
// the automaton they run on — the record's pin is the only one, and open is
// the only place that sets it, together with fresh registers. A FIN leaves
// no record at all, only a husk; so a SYN that revives the husk after a
// SwapRules builds a record pinned to the generation current then, not the
// one the husk's last connection ran on, starting from a zero stream
// position; the old generation, unpinned, has retired.
func TestSynReopenPinsCurrentGeneration(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	mA, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var matches atomic.Uint64
	gw := testGateway(t, mA, GatewayConfig{StreamWorkers: 2}, func(FlowMatch) { matches.Add(1) })
	defer gw.Close()
	tup := footprintTuple(0)
	send := func(p GatewayPacket) {
		t.Helper()
		p.Tuple = tup
		if err := gw.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	records := func() []gwFlow {
		t.Helper()
		var got []gwFlow
		gw.rangeFlows(func(k FiveTuple, fl *gwFlow) {
			if k == tup {
				got = append(got, *fl)
			}
		})
		return got
	}
	record := func() gwFlow {
		t.Helper()
		got := records()
		if len(got) != 1 {
			t.Fatalf("%d records for the tuple, want 1", len(got))
		}
		return got[0]
	}

	send(GatewayPacket{Seq: 100, Flags: FlagSeq | FlagSYN})
	send(GatewayPacket{Seq: 101, Flags: FlagSeq, Payload: []byte("..needle..")})
	if fl := record(); fl.gen == nil || fl.regs.Pos() != 10 {
		t.Fatalf("before FIN: pinned %v, registers at %d", fl.gen != nil, fl.regs.Pos())
	}
	send(GatewayPacket{Seq: 111, Flags: FlagSeq | FlagFIN})
	gw.Flush()
	if got, st := records(), gw.Stats(); len(got) != 0 || st.FlowHusks != 1 || st.FlowsLive != 1 {
		t.Fatalf("after FIN: %d records, %d husks of %d entries; want the husk alone", len(got), st.FlowHusks, st.FlowsLive)
	}
	if err := gw.SwapRules(mB); err != nil {
		t.Fatal(err)
	}
	send(GatewayPacket{Seq: 5000, Flags: FlagSeq | FlagSYN})
	gw.Flush()
	fl := record()
	if fl.gen == nil || fl.gen != gw.cur.Load() || fl.gen.id != mB.Generation() {
		t.Fatalf("the re-opened connection is not pinned to the current generation %d", mB.Generation())
	}
	if fl.regs.Pos() != 0 {
		t.Fatalf("the re-opened connection's registers are at %d, want 0", fl.regs.Pos())
	}
	gw.auditGenerationPins(t)
	if st := gw.Stats(); st.GenerationsLive != 1 || st.GenerationsRetired != 1 {
		t.Fatalf("%d generations live, %d retired; want the husk's old one retired", st.GenerationsLive, st.GenerationsRetired)
	}
	send(GatewayPacket{Seq: 5001, Flags: FlagSeq, Payload: []byte("needle")})
	gw.Flush()
	if got := matches.Load(); got != 2 {
		t.Fatalf("%d matches over two connections, want 2", got)
	}
}

// TestSwapBurstCutover checks stateless packets across a swap: datagrams
// ingested after it are scanned by the new generation — matches equal the
// new matcher's FindAll, including for a UDP tuple already seen before the
// swap (a datagram carries no pin; it scans with the generation current
// when its lane dequeued it, and the swap waits every lane out).
func TestSwapBurstCutover(t *testing.T) {
	mA, setA := gatewayMatcher(t, 150)
	mB, _ := gatewayMatcher(t, 180)
	dgrams, err := traffic.Generate(setA, traffic.Config{
		Packets: 12, Bytes: 200, Seed: SoakSeed(9), AttackDensity: 2, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	tup := func(i int) FiveTuple {
		return FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002,
			SrcPort: uint16(50000 + i), DstPort: 53, Proto: ProtoUDP}
	}
	c := newCollector()
	gw := testGateway(t, mA, GatewayConfig{StreamWorkers: 2, EngineShards: 2}, c.emit)
	half := len(dgrams) / 2
	for i, d := range dgrams[:half] {
		if err := gw.Ingest(GatewayPacket{Tuple: tup(i), Payload: d.Payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SwapRules(mB); err != nil {
		t.Fatal(err)
	}
	for i, d := range dgrams[half:] {
		// Reuse the pre-swap tuples: stateless packets must not inherit
		// any pin from earlier traffic on the same tuple.
		if err := gw.Ingest(GatewayPacket{Tuple: tup(i), Payload: d.Payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dgrams[:half] {
		pre := make([]Match, 0, 4)
		for _, m := range c.byTuple[tup(i)] {
			if m.PacketID == i { // pre-swap datagram i was ingest seq i
				pre = append(pre, m)
			}
		}
		if want := mA.FindAll(d.Payload); !sameMatchSeq(pre, want) {
			t.Fatalf("pre-swap datagram %d: %d matches, old-matcher oracle %d", i, len(pre), len(want))
		}
	}
	for i, d := range dgrams[half:] {
		post := make([]Match, 0, 4)
		for _, m := range c.byTuple[tup(i)] {
			if m.PacketID == half+i {
				post = append(post, m)
			}
		}
		if want := mB.FindAll(d.Payload); !sameMatchSeq(post, want) {
			t.Fatalf("post-swap datagram %d: %d matches, new-matcher oracle %d", i, len(post), len(want))
		}
	}
}

// TestSwapUnderConcurrentLoad is the race-mode storm the ISSUE asks for:
// concurrent Ingest, SwapRules, metrics scrapes, Stats/Generations reads
// and Flushes, then a drained close with the conservation ledger and the
// retirement invariant intact. Run with -race; the interesting assertions
// are the ones the race detector makes.
func TestSwapUnderConcurrentLoad(t *testing.T) {
	const gens = 5
	matchers := make([]*Matcher, gens)
	var rules0 *Ruleset
	for i := range matchers {
		rules, err := GenerateSnortLike(80+10*i, SoakSeed(int64(400+i)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Compile(rules, Config{})
		if err != nil {
			t.Fatal(err)
		}
		matchers[i] = m
		if i == 0 {
			rules0 = rules
		}
	}
	w, err := traffic.GenerateFlows(rules0.InternalSet(), traffic.FlowConfig{
		Flows: 30, SegmentsPerFlow: 6, SegmentBytes: 120, Seed: SoakSeed(21),
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}

	gw := testGateway(t, matchers[0],
		GatewayConfig{EngineShards: 2, StreamWorkers: 2}, func(FlowMatch) {})
	gm := gw.Metrics()
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // ingester: the full stream workload plus UDP noise
		defer wg.Done()
		defer close(done)
		for i, p := range w.Packets {
			if err := gw.Ingest(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				u := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(i), DstPort: 53, Proto: ProtoUDP}
				if err := gw.Ingest(GatewayPacket{Tuple: u, Payload: p.Payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // swapper: install every later generation in order
		defer wg.Done()
		for _, m := range matchers[1:] {
			if err := gw.SwapRules(m); err != nil {
				t.Errorf("SwapRules: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // scraper: metrics render + stats + generation list, until ingest ends
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := gm.WriteTo(io.Discard); err != nil {
				t.Errorf("metrics render: %v", err)
				return
			}
			_ = gw.Stats()
			_ = gw.Generations()
			_ = gw.Generation()
		}
	}()
	wg.Add(1)
	go func() { // flusher: drain barriers interleaved with swaps and ingest
		defer wg.Done()
		for i := 0; i < 5; i++ {
			gw.Flush()
		}
	}()
	wg.Wait()

	// A final scrape must still be well-formed exposition text.
	var buf = &writerTo{}
	if _, err := gm.WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.Validate(buf.b); err != nil {
		t.Fatalf("metrics exposition invalid after swap storm: %v", err)
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	if st.RulesetSwaps != gens-1 || st.GenerationsInstalled != gens {
		t.Fatalf("swap accounting: %d swaps, %d installed", st.RulesetSwaps, st.GenerationsInstalled)
	}
	// Close unpins every flow, so exactly the current generation survives.
	if st.GenerationsRetired != st.GenerationsInstalled-1 || st.GenerationsLive != 1 {
		t.Fatalf("retirement after close: retired %d installed %d live %d",
			st.GenerationsRetired, st.GenerationsInstalled, st.GenerationsLive)
	}
	if l := st.Ledger(); !l.Balanced() {
		t.Fatalf("ledger unbalanced after swap storm: %+v", l)
	}
}

// TestSwapRetiredGenerationIsCollected: retirement is an accounting event —
// a generation leaves Gateway.gens — and the memory only comes back if
// nothing else still points at its image. A gateway opens flows on
// generation A, swaps to B, and the flows finish: A must be counted retired,
// A's Matcher must actually be collected (a finalizer says so), and the
// settled heap must be back to what one image and the flow table held before
// the swap — not two images.
func TestSwapRetiredGenerationIsCollected(t *testing.T) {
	const flows = 256
	rules, err := GenerateSnortLike(634, SoakSeed(2010))
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Bool
	// The first generation is compiled where the test's own frame cannot
	// keep it reachable.
	open := func() *Gateway {
		a, err := Compile(rules, Config{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(a, func(*Matcher) { collected.Store(true) })
		return testGateway(t, a, GatewayConfig{StreamWorkers: 2}, func(FlowMatch) {})
	}
	gw := open()

	payload := []byte("no pattern of the ruleset ends inside this segment, probably")
	send := func(flags TCPFlags, seq uint32, payload []byte) {
		t.Helper()
		for i := 0; i < flows; i++ {
			if err := gw.Ingest(GatewayPacket{Tuple: footprintTuple(i), Seq: seq, Flags: FlagSeq | flags, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		gw.Flush()
	}
	send(FlagSYN, 1000, nil)
	send(0, 1001, payload)
	oneImage := liveHeap() // and the flow table, which keeps its entries as husks after FIN

	b, err := Compile(rules, Config{}) // same rules, so the same size: a new generation all the same
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.SwapRules(b); err != nil {
		t.Fatal(err)
	}
	if st := gw.Stats(); st.GenerationsRetired != 0 || st.GenerationsLive != 2 {
		t.Fatalf("with %d flows pinned to it the old generation must drain, not retire: %+v", flows, gw.Generations())
	}
	twoImages := liveHeap()
	if collected.Load() {
		t.Fatal("the old generation was collected while flows were pinned to it")
	}

	send(FlagFIN, 1001+uint32(len(payload)), nil)
	if st := gw.Stats(); st.GenerationsRetired != 1 || st.GenerationsLive != 1 || !st.Ledger().Balanced() {
		t.Fatalf("the last pinned flow finished and the old generation is not retired: %+v, %+v", gw.Generations(), st)
	}
	for cycle := 0; cycle < 10 && !collected.Load(); cycle++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if !collected.Load() {
		t.Fatal("the retired generation's Matcher survived ten collections: something still points at it")
	}
	if raceEnabled {
		return // heap sizes are not the product's under -race
	}
	settled := liveHeap()
	t.Logf("one image %d B, two in flight %d B, settled after retirement %d B", oneImage, twoImages, settled)
	// Both images are the same rules compiled twice, so the same size; the
	// slack is a tenth of one, for whatever the runtime moved meanwhile.
	image := int64(twoImages) - int64(oneImage)
	if grown := int64(settled) - int64(oneImage); grown > image/10 {
		t.Fatalf("after retirement the heap holds %d B more than it did with one %d B image and the same flows", grown, image)
	}
	runtime.KeepAlive(b)
}

type writerTo struct{ b []byte }

func (w *writerTo) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// TestSentinelErrors pins the v1 error seam: every constructor and
// control-plane rejection is classifiable with errors.Is against the
// exported sentinels, including through Compile and Config.Validate.
func TestSentinelErrors(t *testing.T) {
	// An unregistered backend name is a config error, and the message
	// lists exactly the accepted vocabulary.
	err := (Config{Backend: "warp"}).Validate()
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unregistered backend: %v, want ErrBadConfig", err)
	}
	if want := "(want auto|reference|baked|prefiltered)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("unregistered backend: %q does not list %s", err, want)
	}
	if err := (Config{Backend: BackendPrefiltered}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := Compile(NewRuleset(), Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty ruleset: %v, want ErrBadConfig", err)
	}
	if _, err := Compile(nil, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil ruleset: %v, want ErrBadConfig", err)
	}

	mA, _ := gatewayMatcher(t, 40)
	mB, _ := gatewayMatcher(t, 40)
	if _, err := NewGateway(nil, GatewayConfig{}, func(FlowMatch) {}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil matcher: %v, want ErrBadConfig", err)
	}
	if _, err := NewGateway(mA, GatewayConfig{}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil emit: %v, want ErrBadConfig", err)
	}

	gw, err := NewGateway(mA, GatewayConfig{}, func(FlowMatch) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.SwapRules(nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SwapRules(nil): %v, want ErrBadConfig", err)
	}
	if err := gw.SwapRules(mA); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("re-swap of the installed matcher: %v, want ErrStaleGeneration", err)
	}
	if err := gw.SwapRules(mB); err != nil {
		t.Fatal(err)
	}
	if err := gw.SwapRules(mA); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("swap to an older compile: %v, want ErrStaleGeneration", err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Ingest(GatewayPacket{Tuple: FiveTuple{Proto: ProtoUDP}, Payload: []byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close: %v, want ErrClosed", err)
	}
	if err := gw.SwapRules(mB); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapRules after Close: %v, want ErrClosed", err)
	}
}

// FuzzSwapEquivalence drives a small gateway through a fuzz-chosen
// interleaving of per-flow writes, one hot swap, FINs and flushes, and
// requires every flow's match stream to equal FindAll of its concatenated
// stream against the matcher that was installed when the flow opened —
// the pinning contract under arbitrary schedules — plus ledger balance
// and installed-minus-one retirement after close.
func FuzzSwapEquivalence(f *testing.F) {
	f.Add([]byte{2, 'h', 'e', 3, 's', 'h', 'e'}, []byte{3, 'h', 'i', 's', 4, 'h', 'e', 'r', 's'},
		[]byte("ushers say she sells seashells"), []byte{0x10, 0x1b, 0x22, 0x08, 0x31, 0x0c, 0x3e})
	f.Add([]byte{1, 'a', 2, 'a', 'a'}, []byte{3, 'a', 'a', 'a'},
		[]byte("aaaaaaaaaaaa"), []byte{0x08, 0x09, 0x03, 0x0a, 0x05, 0x10, 0x11})
	f.Add([]byte{4, 0x00, 0xff, 0x00, 0xff}, []byte{2, 0xff, 0xff},
		[]byte{0x00, 0xff, 0x00, 0xff, 0xff}, []byte{0x20, 0x03, 0x21, 0x04, 0x22})
	f.Fuzz(func(t *testing.T, patA, patB, payload, ops []byte) {
		rulesA := fuzzRulesFrom(patA)
		rulesB := fuzzRulesFrom(patB)
		if rulesA == nil || rulesB == nil {
			t.Skip("no patterns")
		}
		mA, err := Compile(rulesA, Config{})
		if err != nil {
			t.Fatal(err)
		}
		mB, err := Compile(rulesB, Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := newCollector()
		gw := testGateway(t, mA,
			GatewayConfig{EngineShards: 2, StreamWorkers: 2}, c.emit)

		const nflows = 3
		tup := func(i int) FiveTuple {
			return FiveTuple{SrcIP: 0x0a0a0a0a, DstIP: 0x14141414,
				SrcPort: uint16(2000 + i), DstPort: 80, Proto: ProtoTCP}
		}
		streams := make([][]byte, nflows)
		pinned := make([]*Matcher, nflows) // matcher current when the flow opened
		finned := make([]bool, nflows)
		cur := mA
		swapped := false
		off := 0
		chunk := func(n int) []byte {
			if len(payload) == 0 {
				return nil
			}
			out := make([]byte, 0, n)
			for len(out) < n {
				take := len(payload) - off
				if take > n-len(out) {
					take = n - len(out)
				}
				out = append(out, payload[off:off+take]...)
				off = (off + take) % len(payload)
			}
			return out
		}
		for _, op := range ops {
			switch op % 6 {
			case 0, 1, 2: // write a chunk to flow op%6
				fi := int(op % 6)
				if finned[fi] {
					break // husk: a non-SYN straggler would be discarded unscanned
				}
				p := chunk(int(op>>3) + 1)
				if pinned[fi] == nil {
					pinned[fi] = cur
				}
				if err := gw.Ingest(GatewayPacket{Tuple: tup(fi), Payload: p}); err != nil {
					t.Fatal(err)
				}
				streams[fi] = append(streams[fi], p...)
			case 3: // the one hot swap
				if !swapped {
					if err := gw.SwapRules(mB); err != nil {
						t.Fatal(err)
					}
					swapped = true
					cur = mB
				}
			case 4:
				gw.Flush()
			case 5: // FIN flow op>>3 % nflows
				fi := int(op>>3) % nflows
				if pinned[fi] == nil || finned[fi] {
					break
				}
				if err := gw.Ingest(GatewayPacket{Tuple: tup(fi), Flags: FlagFIN}); err != nil {
					t.Fatal(err)
				}
				finned[fi] = true
			}
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		for fi := range streams {
			if pinned[fi] == nil {
				continue
			}
			want := pinned[fi].FindAll(streams[fi])
			if got := c.byTuple[tup(fi)]; !sameMatchSeq(got, want) {
				t.Fatalf("flow %d: %d matches, pinned-matcher oracle %d (swapped=%v)",
					fi, len(got), len(want), swapped)
			}
		}
		st := gw.Stats()
		if st.GenerationsRetired != st.GenerationsInstalled-1 {
			t.Fatalf("retirement: %d retired of %d installed", st.GenerationsRetired, st.GenerationsInstalled)
		}
		if l := st.Ledger(); !l.Balanced() {
			t.Fatalf("ledger unbalanced: %+v", l)
		}
	})
}
