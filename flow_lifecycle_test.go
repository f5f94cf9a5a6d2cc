package dpi

// Connection lifecycle against a reference machine: open, FIN husk,
// quarantined husk, revive, RST, and the husk-first capacity rule, on a
// one-lane gateway whose table is small enough that every rule fires.

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestGatewayCapacityEvictsHusksFirst: a lane at its budget holding an old,
// idle live flow and newer husks of finished connections must make room for
// a new connection by dropping husks. Evicting the live flow instead would
// restart it clean on its next segment, and a signature straddling the
// eviction would go unseen — an evasion handed to whoever can open and close
// connections.
func TestGatewayCapacityEvictsHusksFirst(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	// Room for the live flow, two husks and one more connection: each
	// finished connection fits while it is open, and the fourth, which stays
	// open, costs one husk.
	const budget = 2*ConnEntry + 2*HuskEntry
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1, MemoryBudget: budget}, c.emit)
	defer gw.Close()
	send := func(tup FiveTuple, seq uint32, flags TCPFlags, payload string) {
		t.Helper()
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	live := footprintTuple(0)
	send(live, 100, FlagSYN, "")
	send(live, 101, 0, "..nee") // the signature's first half
	for i := 1; i <= 3; i++ {   // three finished connections fill the lane
		send(footprintTuple(i), 0, FlagSYN, "")
		send(footprintTuple(i), 1, FlagFIN, "")
	}
	gw.Flush()
	if st := gw.Stats(); st.FlowsLive != 4 || st.FlowHusks != 3 {
		t.Fatalf("the lane should hold the live flow and three husks: %+v", st)
	}
	send(footprintTuple(4), 0, FlagSYN, "") // over the budget
	send(live, 106, 0, "dle..")             // the second half
	gw.Flush()
	st := gw.Stats()
	if got := c.byTuple[live]; len(got) != 1 {
		t.Fatalf("the live flow's straddling signature: %d matches, want 1 (it was evicted mid-stream)", len(got))
	}
	if st.FlowsEvicted != 1 || st.FlowsLive != 4 || st.FlowHusks != 2 || !st.Ledger().Balanced() {
		t.Fatalf("want one husk evicted: %+v", st)
	}
}

// TestFlowLifecycleModel drives seeded random packets — SYN, in-order data,
// retransmitted stragglers, FIN, RST, data picking a connection up
// mid-stream, and injected emit panics — over a few tuples of a one-lane
// gateway with a small MemoryBudget and IdleTimeout, and runs a reference
// machine beside it. The machine knows each tuple as absent, open, a FIN husk
// or a quarantined husk, ages them all on the lane's clock in one list, and
// evicts as the gateway promises: once the packet is through, while its
// entries charge more than the budget (a connection 64 B, a husk 32 B; the
// packets leave no hole, so nothing is held) the oldest husk, or without one
// the oldest connection but the packet's own; the oldest entry of either
// kind once idle, when the packet is looked up. After every Flush the
// gateway's live and husk counts, its flow counters, its Duplicate,
// Quarantined and Abandoned buckets, each tuple's matches (FindAll of each
// of its connections' delivered bytes, in turn) and the ledger must agree
// with it. Every seed moves with -soak.seed.
func TestFlowLifecycleModel(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("needle", []byte("needle"))
	rules.MustAdd("led", []byte("led"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Four connections and a husk: a fifth connection, or a second husk
	// beside four, is over.
	const tuples, budget, idle, steps = 6, 4*ConnEntry + HuskEntry, 8, 1500
	rng := rand.New(rand.NewSource(SoakSeed(8101)))
	var armed atomic.Bool
	c := newCollector()
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1, MemoryBudget: budget, IdleTimeout: idle}, func(fm FlowMatch) {
		if armed.CompareAndSwap(true, false) {
			panic("injected emit panic")
		}
		c.emit(fm)
	})
	defer gw.Close()

	type state uint8
	const (
		absent state = iota
		open
		finHusk
		quarHusk
	)
	type tupleModel struct {
		st     state
		next   uint32  // an open connection's next in-order sequence number
		stream []byte  // and the bytes it has delivered
		last   uint64  // lane clock at the entry's last packet
		want   []Match // every match the tuple's connections completed
	}
	var (
		ts    [tuples]tupleModel
		tup   [tuples]FiveTuple
		order []int // the table's entries, oldest first
		clock uint64
		want  GatewayStats
		// coverage: each rule under test must fire
		capEv, idleEv, revived, huskRST, midstream int
	)
	for i := range tup {
		tup[i] = footprintTuple(i)
	}
	isHusk := func(i int) bool { return ts[i].st == finHusk || ts[i].st == quarHusk }
	touch := func(i int) {
		order = slices.DeleteFunc(order, func(o int) bool { return o == i })
		order = append(order, i)
		ts[i].last = clock
	}
	leave := func(i int) { // the entry leaves the table: evicted or removed
		order = slices.DeleteFunc(order, func(o int) bool { return o == i })
		ts[i].st, ts[i].stream = absent, nil
		want.FlowsEvicted++
	}
	dropIdle := func() bool {
		if len(order) == 0 || clock-ts[order[0]].last <= idle {
			return false
		}
		leave(order[0])
		idleEv++
		return true
	}
	charge := func() int {
		n := 0
		for _, o := range order {
			if isHusk(o) {
				n += HuskEntry
			} else {
				n += ConnEntry
			}
		}
		return n
	}
	evict := func(keep int) { // keep: the connection this packet is on, or -1
		for charge() > budget {
			victim := -1
			for _, o := range order {
				if isHusk(o) {
					victim = o
					break
				}
			}
			if victim < 0 {
				if order[0] == keep {
					break
				}
				victim = order[0]
			}
			leave(victim)
			capEv++
		}
	}
	payload := func(n int) []byte {
		if rng.Intn(6) == 0 {
			return []byte("needle")
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = "needlx"[rng.Intn(6)]
		}
		return b
	}
	// completed returns the matches a connection that has delivered stream
	// completes with p.
	completed := func(stream, p []byte) []Match {
		before := len(m.FindAll(stream))
		return m.FindAll(append(slices.Clip(stream), p...))[before:]
	}

	for step := 0; step < steps; step++ {
		if rng.Intn(50) == 0 {
			gw.EvictIdleFlows()
			for dropIdle() {
			}
			continue
		}
		i := rng.Intn(tuples)
		tm := &ts[i]
		var (
			flags = FlagSeq
			seq   = rng.Uint32()
			p     []byte
			arm   bool
		)
		switch r := rng.Intn(20); tm.st {
		case absent:
			switch {
			case r < 14:
				flags |= FlagSYN
			case r < 16:
				flags |= FlagRST
				p = payload(rng.Intn(6))
			default: // mid-stream pickup
				p = payload(1 + rng.Intn(9))
				arm = len(completed(nil, p)) > 0 && rng.Intn(3) == 0
			}
		case open:
			switch {
			case r < 11:
				seq, p = tm.next, payload(1+rng.Intn(9))
				arm = len(completed(tm.stream, p)) > 0 && rng.Intn(3) == 0
			case r < 13 && len(tm.stream) > 0: // a retransmission of delivered bytes
				k := 1 + rng.Intn(min(len(tm.stream), 6))
				seq = tm.next - uint32(k)
				p = slices.Clone(tm.stream[len(tm.stream)-k : len(tm.stream)-k+1+rng.Intn(k)])
			case r < 17:
				flags |= FlagFIN
				seq = tm.next
				if rng.Intn(2) == 0 {
					p = payload(1 + rng.Intn(5))
					arm = len(completed(tm.stream, p)) > 0 && rng.Intn(3) == 0
				}
			default:
				flags |= FlagRST
				p = payload(rng.Intn(6))
			}
		default: // a husk
			switch {
			case r < 6:
				p = payload(1 + rng.Intn(9))
			case r < 8:
				flags |= FlagFIN
			case r < 16:
				flags |= FlagSYN
			default:
				flags |= FlagRST
				p = payload(rng.Intn(6))
			}
		}

		// The reference machine, in the lane's order: look the tuple up (the
		// husk decision included), drop idle entries, ingest, then evict to
		// the budget.
		clock++
		n := uint64(len(p))
		conn := true
		switch tm.st {
		case absent:
			tm.st, tm.stream = open, nil
			want.FlowsCreated++
			if flags&(FlagSYN|FlagRST) == 0 {
				tm.next = seq
				midstream++
			}
			touch(i)
		case finHusk, quarHusk:
			switch {
			case flags&FlagRST != 0:
				want.AbandonedBytes += n
				leave(i)
				huskRST++
				conn = false
			case tm.st == quarHusk:
				want.QuarantinedPackets++
				want.QuarantinedBytes += n
				touch(i)
				conn = false
			case flags&FlagSYN == 0:
				want.DuplicateBytes += n
				touch(i)
				conn = false
			default:
				tm.st, tm.stream = open, nil
				touch(i)
				revived++
			}
		default:
			touch(i)
		}
		for k := 0; k < 2 && dropIdle(); k++ {
		}
		if conn {
			switch {
			case flags&FlagRST != 0:
				want.FlowsReset++
				want.AbandonedBytes += n
				leave(i)
			case flags&FlagSYN != 0:
				tm.next = seq + 1
			case int32(seq-tm.next) < 0: // behind the delivery point
				want.DuplicateBytes += n
			case arm:
				want.Panics++
				want.QuarantinedFlows++
				want.QuarantinedPackets++
				want.QuarantinedBytes += n
				tm.st = quarHusk
			default:
				tm.want = append(tm.want, completed(tm.stream, p)...)
				tm.stream = append(tm.stream, p...)
				tm.next += uint32(len(p))
				if flags&FlagFIN != 0 {
					want.FlowsFinished++
					tm.st = finHusk
				}
			}
		}
		if tm.st == open {
			evict(i)
		} else {
			evict(-1)
		}

		armed.Store(arm)
		if err := gw.Ingest(GatewayPacket{Tuple: tup[i], Seq: seq, Flags: flags, Payload: p}); err != nil {
			t.Fatal(err)
		}
		gw.Flush()
		if armed.Load() {
			t.Fatalf("step %d: the armed panic never fired", step)
		}
		st := gw.Stats()
		husks := 0
		for _, o := range order {
			if isHusk(o) {
				husks++
			}
		}
		got := GatewayStats{
			FlowsLive: st.FlowsLive, FlowHusks: st.FlowHusks, FlowsCreated: st.FlowsCreated,
			FlowsEvicted: st.FlowsEvicted, FlowsFinished: st.FlowsFinished, FlowsReset: st.FlowsReset,
			DuplicateBytes: st.DuplicateBytes, AbandonedBytes: st.AbandonedBytes, Panics: st.Panics,
			QuarantinedFlows: st.QuarantinedFlows, QuarantinedPackets: st.QuarantinedPackets,
			QuarantinedBytes: st.QuarantinedBytes,
		}
		want.FlowsLive, want.FlowHusks = len(order), husks
		if got != want {
			t.Fatalf("step %d (tuple %d, flags %#x, %d B): gateway\n%+v\nmodel\n%+v", step, i, flags, len(p), got, want)
		}
		if !st.Ledger().Balanced() {
			t.Fatalf("step %d: ledger %+v", step, st.Ledger())
		}
		for j := range ts {
			if !sameMatchSeq(c.byTuple[tup[j]], ts[j].want) {
				t.Fatalf("step %d: tuple %d has %d matches, model %d (or offsets differ)",
					step, j, len(c.byTuple[tup[j]]), len(ts[j].want))
			}
		}
	}
	t.Logf("%+v; %d capacity and %d idle evictions, %d revives, %d husks reset, %d mid-stream pickups",
		want, capEv, idleEv, revived, huskRST, midstream)
	if capEv == 0 || idleEv == 0 || revived == 0 || huskRST == 0 || midstream == 0 ||
		want.Panics == 0 || want.FlowsFinished == 0 || want.FlowsReset == 0 || want.DuplicateBytes == 0 {
		t.Fatal("a lifecycle rule never fired; the model run is vacuous")
	}
}
