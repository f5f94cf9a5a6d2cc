package dpi

// MemoryBudget under attack: a SYN flood, hole stuffing and a FIN wave,
// under a storm of ruleset swaps, against the lanes' shares of the budget
// and against the heap.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/ac"
)

// budgetRules compiles the flood's ruleset afresh: every swap installs a
// new compile of the same rules, so every generation finds what FindAll on
// the first one finds.
func budgetRules(t testing.TB) *Matcher {
	t.Helper()
	rules := NewRuleset()
	rules.MustAdd("needle", []byte("needle"))
	rules.MustAdd("haystack", []byte("haystack"))
	rules.MustAdd("attack", []byte("attack"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// budgetStreamLen is each connection's stream length: 96 bytes, then three
// 64-byte segments the reordering phase holds.
const budgetStreamLen = 96 + 3*64

// budgetFlood drives the adversarial traffic at one gateway whose budget
// holds conns connections: a round over 0.9 × conns fresh tuples, which
// leaves room for held bytes, then one over 1.2 × conns, which overflows it.
// Each round is a SYN flood of connections that never close on their own;
// a reordering of the survivors' later segments, sent last first behind a
// hole — 64 B each, held folded to a prefix of a few bytes, the registers
// and 4 B a later match; hole stuffing on the survivors; and a FIN wave that ends every
// tuple of the round in a husk, with a ruleset swap every 150 packets across
// all four. check runs after every Flush. Tuple i is footprintTuple(i), and
// every stream is generated up front, so a run allocates nothing the
// gateway does not keep.
type budgetFlood struct {
	t      testing.TB
	gw     *Gateway
	check  func(phase string)
	rounds []int // tuples per round

	tuples   []FiveTuple
	streams  [][]byte
	isn      []uint32
	survivor []bool
	sent     int
}

func newBudgetFlood(t testing.TB, seed int64, conns int) *budgetFlood {
	rng := rand.New(rand.NewSource(seed))
	f := &budgetFlood{t: t, rounds: []int{conns * 9 / 10, conns * 12 / 10}}
	n := f.rounds[0] + f.rounds[1]
	f.survivor = make([]bool, n)
	for i := 0; i < n; i++ {
		b := make([]byte, budgetStreamLen) // the rules' letters, a signature planted now and then
		for j := range b {
			b[j] = "nedlhaystck"[rng.Intn(11)]
		}
		for _, w := range []string{"needle", "haystack", "attack"} {
			if rng.Intn(2) == 0 {
				copy(b[rng.Intn(budgetStreamLen-len(w)):], w)
			}
		}
		f.tuples, f.streams, f.isn = append(f.tuples, footprintTuple(i)), append(f.streams, b), append(f.isn, rng.Uint32())
	}
	return f
}

// send ingests one segment of tuple i's stream at offset off (a pure SYN or
// FIN when data is empty), swapping the ruleset and flushing on schedule.
func (f *budgetFlood) send(phase string, i, off int, data []byte, flags TCPFlags) {
	f.t.Helper()
	tup, seq := f.tuples[i], f.isn[i]+1+uint32(off)
	if flags&FlagSYN != 0 {
		seq = f.isn[i]
	}
	if err := f.gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: data}); err != nil {
		f.t.Fatal(err)
	}
	f.sent++
	if f.sent%150 == 0 {
		if err := f.gw.SwapRules(budgetRules(f.t)); err != nil {
			f.t.Fatal(err)
		}
	}
	if f.sent%128 == 0 {
		f.flush(phase)
	}
}

func (f *budgetFlood) flush(phase string) {
	f.gw.Flush()
	f.check(phase)
}

// round floods the tuples [lo, hi), reorders the survivors' later segments
// behind a hole, stuffs more holes into them and ends them all with a FIN
// wave.
func (f *budgetFlood) round(r, lo, hi int) {
	f.t.Helper()
	flood, stuff, wave := fmt.Sprintf("round %d flood", r), fmt.Sprintf("round %d stuffing", r), fmt.Sprintf("round %d FIN wave", r)
	reorder := fmt.Sprintf("round %d reordering", r)
	for i := lo; i < hi; i++ {
		f.send(flood, i, 0, nil, FlagSYN)
		f.send(flood, i, 0, f.streams[i][:32], 0)
	}
	f.flush(flood)
	clear(f.survivor)
	f.gw.rangeFlows(func(tup FiveTuple, _ *gwFlow) { f.survivor[tup.SrcIP-f.tuples[0].SrcIP] = true })
	for i := lo; i < hi; i++ {
		if !f.survivor[i] {
			continue
		}
		s := f.streams[i]
		for off := budgetStreamLen - 64; off >= 96; off -= 64 { // last first
			f.send(reorder, i, off, s[off:off+64], 0)
		}
	}
	f.flush(reorder)
	for i := lo; i < hi; i++ {
		if !f.survivor[i] {
			continue
		}
		s := f.streams[i]
		for off := 33; off < 64; off += 2 { // 1-byte segments, each behind a 1-byte hole
			f.send(stuff, i, off, s[off:off+1], 0)
		}
		f.send(stuff, i, 66, s[66:96], 0)
	}
	f.flush(stuff)
	for i := lo; i < hi; i++ {
		s := f.streams[i]
		for off := 0; off < budgetStreamLen; off += 32 {
			f.send(wave, i, off, s[off:off+32], 0)
		}
		f.send(wave, i, budgetStreamLen, nil, FlagFIN)
	}
	f.flush(wave)
}

// run drives both rounds at gw.
func (f *budgetFlood) run(gw *Gateway, check func(phase string)) {
	f.gw, f.check = gw, check
	f.round(1, 0, f.rounds[0])
	f.round(2, f.rounds[0], len(f.tuples))
}

// laneCharge is what a lane has charged its share and, of that, its held
// logs, after checking that its account tracks its table: less its
// connections' entries, the account is the capacity of its flows' held
// logs, headers included, and what it counts as held is their stream bytes.
func (ln *gwLane) laneCharge(t testing.TB) (charge, held int) {
	t.Helper()
	st := ln.table.Stats()
	held, payload := ln.asm.Budget.Cost()-(st.Live-st.Husks)*ConnEntry, ln.asm.Budget.Used()
	atCost, stream := 0, 0
	ln.table.Range(func(_ FiveTuple, fl *gwFlow) {
		atCost += fl.asm.HeldCost(&ln.asm)
		stream += fl.asm.HeldBytes(&ln.asm)
	})
	if held != atCost || payload != stream {
		t.Fatalf("the account is %d B over %d connections, holding %d stream bytes; the flows hold %d at a cost of %d",
			ln.asm.Budget.Cost(), st.Live-st.Husks, payload, stream, atCost)
	}
	return ln.charge(), held
}

// TestChaosSoakMemoryBudget: on one lane and on 2 × 2, a budget of 200
// connections takes a SYN flood, hole stuffing on the flood's survivors, a
// FIN wave into husks and a ruleset swap every 150 packets, twice over. At
// every Flush no lane's charge is over its share by more than the one
// connection a packet is on, the ledger balances, on every lane too, and
// every tuple that was
// never evicted — one connection opened for it, by its SYN — has matched
// exactly FindAll over the bytes it delivered: the prefix its registers
// have scanned while it is open, the whole stream once its FIN made it a
// husk. Every seed moves with -soak.seed.
func TestChaosSoakMemoryBudget(t *testing.T) {
	for _, shape := range []struct{ shards, workers int }{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("lanes=%d", shape.shards*shape.workers), func(t *testing.T) {
			const conns = 200
			m := budgetRules(t)
			var mu sync.Mutex
			opened := map[FiveTuple]int{}
			c := newCollector()
			gw := testGateway(t, m, GatewayConfig{
				EngineShards: shape.shards, StreamWorkers: shape.workers, GapTimeout: -1,
				MemoryBudget: conns * ConnEntry,
				Rules:        []VerdictRule{{ID: 1, Name: "all", Verdict: VerdictAlert}},
				// A verdict per connection: a tuple opened once was never evicted.
				OnVerdict: func(v FlowVerdict) { mu.Lock(); opened[v.Tuple]++; mu.Unlock() },
			}, c.emit)
			defer gw.Close()
			f := newBudgetFlood(t, SoakSeed(4040), conns)
			checked, husks := 0, 0
			check := func(phase string) {
				st := gw.Stats()
				if !st.Ledger().Balanced() {
					t.Fatalf("%s: ledger %+v", phase, st.Ledger())
				}
				requireLaneSums(t, gw, phase)
				pos := map[FiveTuple]int{}
				isHusk := map[FiveTuple]bool{}
				gw.eachLane(func(ln *gwLane) {
					if got, _ := ln.laneCharge(t); got > ln.share+ConnEntry {
						t.Fatalf("%s: a lane charged %d B against its %d B share", phase, got, ln.share)
					}
					ln.table.Range(func(tup FiveTuple, fl *gwFlow) { pos[tup] = fl.regs.Pos() })
					for _, tup := range f.tuples {
						if _, open := pos[tup]; !open && ln.table.Has(tup) {
							isHusk[tup] = true
						}
					}
				})
				mu.Lock()
				defer mu.Unlock()
				for i, tup := range f.tuples {
					s := f.streams[i]
					p, open := pos[tup]
					if opened[tup] != 1 || !open && !isHusk[tup] {
						continue
					}
					delivered := s[:p]
					if !open {
						delivered = s
						husks++
					}
					checked++
					if got, want := c.byTuple[tup], m.FindAll(delivered); !sameMatchSeq(got, want) {
						t.Fatalf("%s: tuple %v has %d matches over its %d delivered bytes, FindAll %d",
							phase, tup, len(got), len(delivered), len(want))
					}
				}
			}
			f.run(gw, check)
			st := gw.Stats()
			t.Logf("%d packets, %d checks of a surviving flow (%d as husks); %+v", f.sent, checked, husks, st)
			if st.FlowsEvicted == 0 || st.ReassemblyDrops == 0 || st.OutOfOrderSegs == 0 ||
				st.RulesetSwaps == 0 || checked == 0 || husks == 0 {
				t.Fatal("the flood never evicted, held, dropped, swapped or left a survivor; the soak is vacuous")
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if st := gw.Stats(); st.BufferedBytes != 0 || !st.Ledger().Balanced() {
				t.Fatalf("after Close: %+v", st)
			}
		})
	}
}

// TestHeapWithinBudget runs the budget flood on one lane and holds the
// live heap at every checkpoint under a ceiling derived term by term from
// what the lane may keep, not from a measurement of it:
//
//   - the compiled image, times the generations live;
//   - the charged share: entries and held logs at their capacity, headers
//     included, over by at most the one connection a packet is on;
//   - the held logs once more: a log's capacity is its allocation's size
//     class, unless a cap clipped it, and a size class rounds up by less
//     than the capacity (48 B for a 33 B log at the worst);
//   - each index at its worst load, 3/8 full just after doubling, sized
//     for its set's peak;
//   - each slab's chunks at its set's peak, kept while the set is not empty:
//     4 KiB apiece, which hold no pointer and so as many entries as fit;
//   - the lane's store of held logs: its 80 B struct, and a handle is an
//     8 B slot and a 4 B free-list word, one for each connection that may
//     hold a log, and append at most doubles either;
//   - the lane's scratch, queue and flow classes, and the gateway's own
//     structs.
func TestHeapWithinBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap growth is not the product's under -race")
	}
	const conns = 200
	f := newBudgetFlood(t, SoakSeed(4040), conns)
	before := liveHeap()
	m := budgetRules(t)
	image := int(liveHeap() - before)
	var matches atomic.Uint64
	gw := testGateway(t, m, GatewayConfig{
		StreamWorkers: 1, GapTimeout: -1, MemoryBudget: conns * ConnEntry,
	}, func(FlowMatch) { matches.Add(1) })
	defer gw.Close()
	ln := gw.lanes[0]
	// A set's peak: the charge before a packet is at most share + one
	// connection, and the packet may add one more before the lane evicts.
	peak := func(entry int) int { return (ln.share + 2*ConnEntry) / entry }
	chunks := func(entry int) int {
		per := 4096 / entry
		return (peak(entry) + per - 1) / per * 4096
	}
	index := func(entry int) int {
		slots := 8
		for 4*peak(entry) > 3*slots {
			slots *= 2
		}
		return 2 * slots * 4 // 3/8 full: the doubling just happened
	}
	fixed := int(unsafe.Sizeof(Gateway{})) + int(unsafe.Sizeof(gwLane{})) + int(unsafe.Sizeof(*ln.table)) +
		cap(ln.q)*int(unsafe.Sizeof(seqPacket{})) + int(unsafe.Sizeof(gwGeneration{}))
	worst, worstPhase := 0.0, ""
	folded := false // a checkpoint held more stream bytes than it charged: only folds do
	check := func(phase string) {
		heap := int(liveHeap() - before)
		st := gw.Stats()
		var charged, held, scratch int
		gw.eachLane(func(ln *gwLane) {
			charged, held = ln.laneCharge(t)
			folded = folded || ln.asm.Budget.Used() > held
			scratch = cap(ln.matches)*int(unsafe.Sizeof(ac.Match{})) + cap(ln.form) +
				cap(ln.classes)*int(unsafe.Sizeof(gwClass{}))
		})
		terms := []struct {
			name  string
			bytes int
		}{
			{"image × live generations", image * st.GenerationsLive},
			{"charged share", ln.share + ConnEntry},
			{"held logs' size classes", held}, // Σ capacity, as laneCharge checks
			{"connection index", index(ConnEntry)},
			{"husk index", index(HuskEntry)},
			{"connection chunks", chunks(ConnEntry)},
			{"husk chunks", chunks(HuskEntry)},
			{"held-log store", 80 + 2*(peak(ConnEntry)+1)*8 + 2*peak(ConnEntry)*4},
			{"scratch, queue, classes, gateway", scratch + fixed},
		}
		ceiling := 0
		for _, term := range terms {
			ceiling += term.bytes
		}
		if r := float64(heap) / float64(ceiling); r > worst {
			worst, worstPhase = r, phase
		}
		if heap > ceiling {
			for _, term := range terms {
				t.Logf("  %-32s %8d B", term.name, term.bytes)
			}
			t.Fatalf("%s: live heap %d B over its %d B ceiling (charged %d B)", phase, heap, ceiling, charged)
		}
	}
	f.run(gw, check)
	t.Logf("%d packets, %d matches: the heap peaked at %.2f of its ceiling, after the %s", f.sent, matches.Load(), worst, worstPhase)
	if !folded {
		t.Fatal("no checkpoint held a folded segment; the reordering phase is vacuous")
	}
}

// TestHeldBytesPushOutHusks: a lane whose share is full of husks still holds
// an out-of-order segment of a live connection, and makes the room by
// evicting husks. Held bytes may take what the lane's connections leave;
// husks, which cost nothing to lose, give way to them.
func TestHeldBytesPushOutHusks(t *testing.T) {
	m := budgetRules(t)
	c := newCollector()
	const budget = 4096
	// LastWins holds the segment below whole, so it needs the room of its
	// 200 bytes; folded, it would fit beside the husks.
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1, GapTimeout: -1, MemoryBudget: budget, OverlapPolicy: LastWins}, c.emit)
	defer gw.Close()
	send := func(tup FiveTuple, seq uint32, flags TCPFlags, payload string) {
		t.Helper()
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	live := footprintTuple(0)
	send(live, 100, FlagSYN, "")
	send(live, 101, 0, "..nee")
	for i := 1; i <= budget/HuskEntry; i++ { // more finished connections than the share holds husks
		send(footprintTuple(i), 0, FlagSYN, "")
		send(footprintTuple(i), 1, FlagFIN, "")
	}
	gw.Flush()
	full := gw.Stats()
	if room := budget - ConnEntry - full.FlowHusks*HuskEntry; room >= ConnEntry || full.FlowsEvicted == 0 {
		t.Fatalf("the husks should fill the share: %d B left, %+v", room, full)
	}
	held := strings.Repeat(".", 200)
	send(live, 110, 0, held) // behind a 4-byte hole
	gw.Flush()
	st := gw.Stats()
	if st.ReassemblyDrops != 0 || st.BufferedBytes != len(held) || st.FlowHusks >= full.FlowHusks {
		t.Fatalf("the segment should be held and husks evicted for it: %+v", st)
	}
	send(live, 106, 0, "dle.")
	gw.Flush()
	if got := c.byTuple[live]; len(got) != 1 || !gw.Stats().Ledger().Balanced() {
		t.Fatalf("the live flow's straddling signature: %d matches, want 1", len(got))
	}
}
