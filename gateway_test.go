package dpi

// Gateway tests: demultiplexing correctness against the per-flow FindAll
// oracle (cross-packet plants included), eviction bounds under 10k-flow
// churn and backpressure accounting. Run with -race; every interesting
// path here is concurrent.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture/corpus"
	"repro/internal/core"
	"repro/internal/traffic"
)

func TestGatewayDemuxMatchesPerFlowOracle(t *testing.T) {
	m := testMatcher(t, snortLike(300, 77, BackendAuto))
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 40, SegmentsPerFlow: 6, SegmentBytes: 150, Seed: 11,
		CrossDensity: 2, AttackDensity: 1, Profile: traffic.Textual,
	})
	if w.CrossPlants() == 0 {
		t.Fatal("workload has no cross-packet plants; test is vacuous")
	}
	c := newCollector()
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 3}, c.emit)
	var sq Sequencer
	for _, p := range w.Packets {
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
	}
	o := newOracle(c)
	for f, tuple := range w.Tuples {
		o.deliver(m, tuple, w.Streams[f], 0)
	}
	matched := closeCheckpoint(t, gw, o)
	if matched == 0 {
		t.Fatal("no matches at all; test is vacuous")
	}

	// (flow, seq) -> global ingest sequence number, for PacketID checks.
	globalSeq := map[[2]int]int{}
	for i, p := range w.Packets {
		globalSeq[[2]int{p.FlowID, p.Seq}] = i
	}

	segBytes := 150
	for f, tuple := range w.Tuples {
		got := c.matches(tuple)
		// Every match must be attributed to the ingest sequence number of
		// the segment holding its final byte.
		for _, mt := range got {
			seg := (mt.End - 1) / segBytes
			if wantSeq, ok := globalSeq[[2]int{f, seg}]; !ok || mt.PacketID != wantSeq {
				t.Fatalf("flow %d match %+v: PacketID %d, want ingest seq %d of segment %d",
					f, mt, mt.PacketID, wantSeq, seg)
			}
		}
		// Exactly the planted cross-packet matches (and all other plants)
		// must be present.
		reported := map[[2]int]bool{}
		for _, mt := range got {
			reported[[2]int{mt.PatternID, mt.End}] = true
		}
		for _, pl := range w.Planted[f] {
			if !reported[[2]int{int(pl.PatternID), pl.End}] {
				t.Fatalf("flow %d: planted pattern %d ending at %d (cross=%v) unreported",
					f, pl.PatternID, pl.End, pl.CrossPacket)
			}
		}
	}
	st := gw.Stats()
	if st.Packets != uint64(len(w.Packets)) || st.StreamPackets != st.Packets || st.BatchPackets != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FlowsCreated != uint64(len(w.Tuples)) || st.FlowsEvicted != 0 || st.FlowsLive != 0 {
		t.Fatalf("flow accounting after Close: %+v", st)
	}
	if st.Matches != uint64(matched) {
		t.Fatalf("match counter %d, collected %d", st.Matches, matched)
	}
}

func TestGatewayMixedProtocolRouting(t *testing.T) {
	m := testMatcher(t, snortLike(200, 77, BackendAuto))
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 10, SegmentsPerFlow: 4, SegmentBytes: 120, Seed: 3,
		CrossDensity: 1, Profile: traffic.Uniform,
	})
	dgrams, err := traffic.Generate(m.rules.set, traffic.Config{
		Packets: 30, Bytes: 300, Seed: 4, AttackDensity: 1.5, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 2}, c.emit)

	// Interleave: a datagram between stream segments; record each
	// datagram's ingest seq and distinct UDP tuple.
	type dgram struct {
		tuple FiveTuple
		seq   int
		data  []byte
	}
	// Every datagram goes in twice: under its own tuple, and again under
	// one tuple shared by all of them (train) — one sender's datagrams are
	// pinned to one lane, so they must come out in ingest order.
	one := FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 39999, DstPort: 53, Proto: ProtoUDP}
	var sent, train []dgram
	seq := 0
	send := func(tup FiveTuple, data []byte, to *[]dgram) {
		t.Helper()
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Payload: data})
		*to = append(*to, dgram{tuple: tup, seq: seq, data: data})
		seq++
	}
	di := 0
	var sq Sequencer
	for _, p := range w.Packets {
		if di < len(dgrams) {
			own := one
			own.SrcPort = uint16(40000 + di)
			send(own, dgrams[di].Payload, &sent)
			send(one, dgrams[di].Payload, &train)
			di++
		}
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
		seq++
	}
	// The stream side still matches the oracle exactly, and each datagram
	// behaves as an independent packet: FindAll of its payload, under its
	// own tuple and, in ingest order, under the shared one.
	o := newOracle(c)
	for f, tuple := range w.Tuples {
		o.deliver(m, tuple, w.Streams[f], 0)
	}
	for _, d := range append(sent, train...) {
		o.deliver(m, d.tuple, d.data, 0)
	}
	closeCheckpoint(t, gw, o)
	// Each datagram's matches are attributed to its own ingest seq.
	at := map[FiveTuple]int{}
	for _, d := range append(sent, train...) {
		n := len(m.FindAll(d.data))
		for _, mt := range c.matches(d.tuple)[at[d.tuple]:][:n] {
			if mt.PacketID != d.seq {
				t.Fatalf("datagram %v match %+v: PacketID %d, want %d", d.tuple, mt, mt.PacketID, d.seq)
			}
		}
		at[d.tuple] += n
	}
	st := gw.Stats()
	if st.BatchPackets != uint64(len(sent)+len(train)) || st.StreamPackets != uint64(len(w.Packets)) {
		t.Fatalf("routing stats = %+v", st)
	}
}

// TestGatewayChurnKeepsLiveFlowsBounded is the acceptance churn test: 10k
// flows through a budget of 256 connections must stay bounded by eviction
// the whole way through. They never end, so the table holds no husks.
func TestGatewayChurnKeepsLiveFlowsBounded(t *testing.T) {
	m := testMatcher(t, snortLike(120, 77, BackendAuto))
	const maxFlows, lanes = 256, 4
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 10000, SegmentsPerFlow: 2, SegmentBytes: 48, Seed: 21,
		CrossDensity: 0.1, Profile: traffic.Zeroish,
	})
	gw := testGateway(t, m, 1, GatewayConfig{
		MemoryBudget: maxFlows * ConnEntry, StreamWorkers: lanes,
	}, func(FlowMatch) {})
	peak := 0
	var sq Sequencer
	for i, p := range w.Packets {
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
		if i%512 == 0 {
			if live := gw.Stats().FlowsLive; live > peak {
				peak = live
			}
		}
	}
	closeCheckpoint(t, gw)
	st := gw.Stats()
	if live := st.FlowsLive; live != 0 {
		t.Fatalf("%d flows live after Close", live)
	}
	if peak > maxFlows+lanes {
		t.Fatalf("live flows peaked at %d, soft cap is %d", peak, maxFlows+lanes)
	}
	if st.FlowsEvicted == 0 || st.FlowsCreated < 10000 {
		t.Fatalf("churn stats = %+v", st)
	}
	if st.Packets != 20000 {
		t.Fatalf("ingested %d packets", st.Packets)
	}
}

// TestGatewayChurnAtCapacity drives bench's churn-mixed shape — waves of
// short SYN…FIN connections, one wave live at a time, every pass reusing the
// tuples of the last — through a MemoryBudget of three waves' connections,
// well above what is live at once and below what a pass's husks take, so
// capacity eviction runs the whole way. Each lane evicts its own oldest husk,
// and with a wave's worth of husks behind every live connection it never
// reaches a live one: every connection's matches must equal the oracle in
// every window, at every lane count (the budget is split and the clock
// scaled per lane), and the table's entries may pass the budget by no more
// than one connection a lane.
func TestGatewayChurnAtCapacity(t *testing.T) {
	m := testMatcher(t, snortLike(120, 77, BackendAuto))
	const waves, perWave, windows = 8, 64, 30
	const budget = 3 * perWave * ConnEntry
	var pkts []traffic.FlowPacket
	streams := map[FiveTuple][]byte{} // each connection's stream, by tuple
	for wv := 0; wv < waves; wv++ {
		w := flowWorkload(t, m, traffic.FlowConfig{
			Flows: perWave, SegmentsPerFlow: 3, SegmentBytes: 64, Seed: int64(400 + wv),
			CrossDensity: 0.5, AttackDensity: 0.5, Profile: traffic.Zeroish, Sequenced: true,
		})
		for f, stream := range w.Streams {
			streams[footprintTuple(wv*perWave+f)] = stream
		}
		for _, p := range w.Packets {
			p.Tuple = footprintTuple(wv*perWave + p.FlowID)
			pkts = append(pkts, p)
		}
	}
	for _, shape := range []struct{ shards, workers int }{{1, 2}, {2, 2}} {
		lanes := shape.shards * shape.workers
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			c := newCollector()
			gw := testGateway(t, m, shape.shards, GatewayConfig{
				StreamWorkers: shape.workers, MemoryBudget: budget,
			}, c.emit)
			// Every window, each connection matches its stream's FindAll.
			o := newOracle(c)
			for tup, stream := range streams {
				o.deliver(m, tup, stream, 0)
			}
			for win := 0; win < windows; win++ {
				ingestWorkload(t, gw, 1, pkts...)
				if checkpoint(t, gw, fmt.Sprintf("window %d", win), o) == 0 {
					t.Fatal("no matches in the workload; test is vacuous")
				}
				clear(c.byTuple)
				st := gw.Stats()
				charge := (st.FlowsLive-st.FlowHusks)*ConnEntry + st.FlowHusks*HuskEntry
				if !st.Ledger().Balanced() || charge > budget+lanes*ConnEntry {
					t.Fatalf("window %d: ledger %+v, stats %+v", win, st.Ledger(), st)
				}
			}
			st := gw.Stats()
			if st.FlowsEvicted == 0 || st.FlowsFinished != uint64(windows*len(streams)) {
				t.Fatalf("churn stats = %+v", st)
			}
		})
	}
}

// TestGatewayEvictedFlowRestartsClean pins the matcher-level consequence
// of eviction: scanner state does not survive an evict/recreate cycle, so
// a pattern split around the eviction is (correctly) not matched, while an
// undisturbed split is.
func TestGatewayEvictedFlowRestartsClean(t *testing.T) {
	c := newCollector()
	// One lane and a one-connection budget make eviction order deterministic.
	gw := testGateway(t, testMatcher(t, literal("abcdef")), 1, GatewayConfig{
		MemoryBudget: ConnEntry, StreamWorkers: 1,
	}, c.emit)
	a := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	b := FiveTuple{SrcIP: 3, DstIP: 4, SrcPort: 11, DstPort: 80, Proto: ProtoTCP}
	var sq Sequencer
	ingest := func(tup FiveTuple, s string) {
		t.Helper()
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: tup, Payload: []byte(s)}))
	}
	ingest(a, "abc")
	ingest(b, "zz")  // evicts a's half-fed flow
	ingest(a, "def") // recreated: must NOT complete the split match
	ingest(a, "abc")
	ingest(a, "def") // undisturbed split across packets: must match
	closeCheckpoint(t, gw)
	got := c.matches(a)
	if len(got) != 1 {
		t.Fatalf("matches on recreated flow = %+v, want exactly the undisturbed split", got)
	}
	// Offsets are relative to the recreated flow's stream: "def"+"abc"+"def".
	if got[0].Start != 3 || got[0].End != 9 {
		t.Fatalf("match offsets = %+v, want [3,9)", got[0])
	}
	if st := gw.Stats(); st.FlowsEvicted == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

// mixedTraffic generates cfg's packets over m's patterns and gives each a
// tuple of its own: every third a one-segment TCP connection, the rest UDP
// datagrams, so a feed of them takes both pipeline paths.
func mixedTraffic(t *testing.T, m *Matcher, cfg traffic.Config) []GatewayPacket {
	t.Helper()
	pkts, err := traffic.Generate(m.rules.set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sq Sequencer
	mixed := make([]GatewayPacket, len(pkts))
	for i, p := range pkts {
		tup := FiveTuple{SrcIP: uint32(i), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
		if i%3 == 0 {
			tup.Proto = ProtoTCP
		}
		mixed[i] = sq.Seq(GatewayPacket{Tuple: tup, Payload: p.Payload})
	}
	return mixed
}

func TestGatewayBackpressureLosesNothing(t *testing.T) {
	m := testMatcher(t, snortLike(100, 77, BackendAuto))
	pkts := mixedTraffic(t, m, traffic.Config{Packets: 400, Bytes: 200, Seed: 5, AttackDensity: 1})
	// A tiny queue forces constant backpressure stalls on four ingesters.
	gw := testGateway(t, m, 1, GatewayConfig{QueueDepth: 2, StreamWorkers: 1}, func(FlowMatch) {})
	ingestWorkload(t, gw, 4, pkts...)
	closeCheckpoint(t, gw)
	st := gw.Stats()
	if st.Packets != uint64(len(pkts)) {
		t.Fatalf("ingested %d, want %d", st.Packets, len(pkts))
	}
	if st.StreamPackets+st.BatchPackets != st.Packets {
		t.Fatalf("pipeline lost packets: %+v", st)
	}
	// Every payload went through exactly one scan path; with per-packet
	// unique tuples the total match count must equal the per-payload oracle.
	want := 0
	for _, p := range pkts {
		want += len(m.FindAll(p.Payload))
	}
	if int(st.Matches) != want {
		t.Fatalf("matches = %d, oracle %d", st.Matches, want)
	}
}

// TestGatewayShedsAtOnceOnAFullLane: a full lane queue is the one overload
// signal. At the default GatewayConfig, with one lane wedged in emit and its
// queue full, ShedPackets sheds a packet — and ShedNewFlows a packet of a
// new tuple — at once, allocating nothing, and the exposition names the
// policy in force.
func TestGatewayShedsAtOnceOnAFullLane(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, pol := range []OverloadPolicy{ShedPackets, ShedNewFlows} {
		t.Run(pol.String(), func(t *testing.T) {
			release, wedged := make(chan struct{}), make(chan struct{})
			var wedgeOnce, releaseOnce sync.Once
			gw := testGateway(t, testMatcher(t, literal("attack-signature")), 1, GatewayConfig{OverloadPolicy: pol}, func(FlowMatch) {
				wedgeOnce.Do(func() { close(wedged) })
				<-release
			})
			// A failing assertion must not leave Close waiting on the wedge.
			unwedge := func() { releaseOnce.Do(func() { close(release) }) }
			defer unwedge()

			udp := FiveTuple{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 5353, DstPort: 53, Proto: ProtoUDP}
			if err := gw.Ingest(GatewayPacket{Tuple: udp, Payload: []byte("attack-signature")}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-wedged:
			case <-time.After(10 * time.Second):
				t.Fatal("the lane never emitted the planted match")
			}
			// Stateless packets fill the wedged lane's queue: both policies
			// admit them while it has room and shed the first that finds none.
			ln := gw.laneOf(udp)
			queued := 0
			for ; ; queued++ {
				admitted, err := gw.TryIngest(GatewayPacket{Tuple: udp, Payload: []byte("x")})
				if err != nil {
					t.Fatal(err)
				}
				if !admitted {
					break
				}
			}
			if queued != cap(ln.q) {
				t.Fatalf("%d packets queued before the first shed, want the lane's %d", queued, cap(ln.q))
			}

			// A TCP segment of a tuple the lane has never seen.
			tcp := FiveTuple{SrcIP: IPv4(10, 0, 0, 3), DstIP: IPv4(10, 0, 0, 2), SrcPort: 40000, DstPort: 80, Proto: ProtoTCP}
			for gw.laneOf(tcp) != ln {
				tcp.SrcPort++
			}
			seg := GatewayPacket{Tuple: tcp, Flags: FlagSeq, Payload: make([]byte, 100)}
			sheds := uint64(0)
			allocs := testing.AllocsPerRun(100, func() {
				if admitted, err := gw.TryIngest(seg); err != nil || admitted {
					t.Fatalf("segment %d on a full lane: admitted %v, err %v", sheds, admitted, err)
				}
				sheds++
			})
			if allocs != 0 {
				t.Fatalf("a shed allocated %.1f times", allocs)
			}
			st := gw.Stats()
			wantNew := uint64(0)
			if pol == ShedNewFlows {
				wantNew = sheds + 1
			}
			if st.ShedPackets != sheds+1 || st.ShedBytes != 1+100*sheds || st.ShedNewFlows != wantNew {
				t.Fatalf("after %d sheds of the segment and one of the filler: %+v", sheds, st)
			}
			var buf bytes.Buffer
			if _, err := gw.Metrics().WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if want := `dpi_gateway_overload_policy_info{policy="` + pol.String() + `"} 1`; !strings.Contains(buf.String(), want) {
				t.Fatalf("exposition lacks %s", want)
			}
			unwedge()
			checkpoint(t, gw, "after the wedge is released")
		})
	}
}

func TestGatewayClosedBehaviour(t *testing.T) {
	m := testMatcher(t, snortLike(60, 77, BackendAuto))
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
	closeCheckpoint(t, gw)
	if err := gw.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if err := gw.Ingest(GatewayPacket{}); err == nil {
		t.Fatal("Ingest after Close succeeded")
	}
}

// TestTryIngestRejectsUnsequencedTCP: a TCP packet without FlagSeq has no
// place in its flow's stream, so admission refuses it — a data segment, a
// bare FIN and a bare RST alike — with ErrBadPacket, before anything is
// counted: the ledger and the connection it names are untouched. The same
// packets as UDP or ICMP, with no flags, are admitted and scanned, and a
// capture replay, which numbers every TCP segment, has nothing refused.
func TestTryIngestRejectsUnsequencedTCP(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
	tcp := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tcp, Seq: 100, Flags: FlagSeq, Payload: []byte("a needle")})
	gw.Flush()
	before := gw.Stats()
	for _, p := range []GatewayPacket{
		{Tuple: tcp, Seq: 108, Payload: []byte("needle")},
		{Tuple: tcp, Seq: 108, Flags: FlagFIN},
		{Tuple: tcp, Seq: 108, Flags: FlagRST},
	} {
		if admitted, err := gw.TryIngest(p); !errors.Is(err, ErrBadPacket) || admitted {
			t.Fatalf("flags %#x: admitted=%v err=%v, want a refusal with ErrBadPacket", p.Flags, admitted, err)
		}
	}
	gw.Flush()
	st := gw.Stats()
	if st.Packets != before.Packets || st.Bytes != before.Bytes || st.Ledger() != before.Ledger() || !st.Ledger().Balanced() {
		t.Fatalf("refused packets moved the books: before %+v, after %+v", before, st)
	}
	if st.FlowsLive != 1 || st.FlowsFinished != 0 || st.FlowsReset != 0 || st.Matches != 1 {
		t.Fatalf("refused FIN/RST touched the connection: %+v", st)
	}

	for _, proto := range []uint8{ProtoUDP, ProtoICMP} {
		tup := tcp
		tup.Proto = proto
		if admitted, err := gw.TryIngest(GatewayPacket{Tuple: tup, Payload: []byte("needle")}); err != nil || !admitted {
			t.Fatalf("proto %d without flags: admitted=%v err=%v", proto, admitted, err)
		}
	}
	gw.Flush()
	st = gw.Stats()
	if st.BatchPackets != 2 || st.ScannedBytes != before.ScannedBytes+12 || st.Matches != 3 || !st.Ledger().Balanced() {
		t.Fatalf("datagrams not admitted and scanned: %+v", st)
	}

	for _, cp := range corpus.All() {
		rg := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
		rs, err := rg.ReplayPcap(bytes.NewReader(cp.Bytes()))
		if err != nil {
			t.Fatalf("%s: replay refused a packet: %v", cp.Name, err)
		}
		rg.Flush()
		if got := rg.Stats().Packets; rs.Ingested != rs.TCPSegments+rs.UDPPackets+rs.OtherIPPackets || got != rs.Ingested {
			t.Fatalf("%s: replay ingested %d, the gateway counted %d: %+v", cp.Name, rs.Ingested, got, rs)
		}
		closeCheckpoint(t, rg)
	}
}

func TestGatewayIdleEviction(t *testing.T) {
	gw := testGateway(t, testMatcher(t, literal("needle")), 1, GatewayConfig{IdleTimeout: 8, StreamWorkers: 1}, func(FlowMatch) {})
	a := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	var sq Sequencer
	ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: a, Payload: []byte("x")}))
	for i := 0; i < 20; i++ {
		b := FiveTuple{SrcIP: 7, DstIP: 8, SrcPort: uint16(i), DstPort: 2, Proto: ProtoTCP}
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: b, Payload: []byte("y")}))
	}
	gw.Flush()
	gw.EvictIdleFlows()
	st := gw.Stats()
	if st.StreamPackets != 21 || st.FlowsCreated != 21 {
		t.Fatalf("pipeline not drained by Flush: %+v", st)
	}
	if st.FlowsEvicted == 0 {
		t.Fatalf("idle flow never evicted: %+v", st)
	}
	closeCheckpoint(t, gw)
}

// TestGatewayRejectsWideIdleTimeout: a flow-table entry keeps only the low
// 32 bits of its lane's clock, so idle ages are exact only below 2³¹ ticks.
// An IdleTimeout past that is a configuration error, not a table that
// silently evicts live flows; the largest one that fits is accepted.
func TestGatewayRejectsWideIdleTimeout(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("IdleTimeout cannot reach 2^31 with a 32-bit int")
	}
	m := testMatcher(t, snortLike(40, 77, BackendAuto))
	wide := int(int64(1) << 31)
	if _, err := NewGateway(m, GatewayConfig{IdleTimeout: wide, StreamWorkers: 1}, func(FlowMatch) {}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("IdleTimeout 2^31: %v, want ErrBadConfig", err)
	}
	gw := testGateway(t, m, 1, GatewayConfig{IdleTimeout: wide - 1, StreamWorkers: 1}, func(FlowMatch) {})
	closeCheckpoint(t, gw)
}

func ExampleGateway() {
	rules := NewRuleset()
	rules.MustAdd("traversal", []byte("../../"))
	m, err := Compile(rules, Config{})
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex
	gw, err := NewGateway(m, GatewayConfig{}, func(fm FlowMatch) {
		mu.Lock()
		fmt.Printf("%s: %s at [%d,%d)\n", fm.Tuple, "traversal", fm.Start, fm.End)
		mu.Unlock()
	})
	if err != nil {
		panic(err)
	}
	web := FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 3333, DstPort: 80, Proto: ProtoTCP}
	// The attack spans two TCP segments; per-flow state catches it.
	gw.Ingest(GatewayPacket{Tuple: web, Seq: 1000, Flags: FlagSeq, Payload: []byte("GET /..")})
	gw.Ingest(GatewayPacket{Tuple: web, Seq: 1007, Flags: FlagSeq, Payload: []byte("/../etc/passwd")})
	gw.Close()
	// Output: tcp 10.0.0.1:3333 > 10.0.0.2:80: traversal at [5,11)
}

// TestGatewayStreamLaneSteadyStateZeroAlloc locks in the per-flow lane's
// contract: once a TCP flow exists, pushing an in-order match-free segment
// through the lane's per-packet path (flow-table touch + verdict check +
// scanner write) allocates nothing. This is exactly the work the lane
// performs per packet, driven synchronously on the (idle) lane's own state so
// the allocation count is attributable.
func TestGatewayStreamLaneSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	gw := testGateway(t, testMatcher(t, literal("attack-signature")), 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})

	tuple := FiveTuple{
		SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 443, Proto: ProtoTCP,
	}
	payload := bytes.Repeat([]byte("x"), 1200)
	p := seqPacket{GatewayPacket: GatewayPacket{Tuple: tuple, Flags: FlagSeq, Payload: payload}}
	ln := gw.lanes[0] // idle: nothing is ever ingested
	lane := func() {
		ln.streamPacket(p)
		p.Seq += uint32(len(payload)) // the next in-order segment
	}
	lane() // warm-up creates the flow's record
	allocs := testing.AllocsPerRun(50, lane)
	if allocs != 0 {
		t.Fatalf("gateway stream lane allocated %.1f times per packet in steady state", allocs)
	}
	if got, want := ln.n[cScannedBytes].Load(), uint64(52*len(payload)); got != want {
		t.Fatalf("lane scanned %d bytes, want every segment's %d", got, want)
	}
}

// TestGatewayFullPathSteadyStateZeroAlloc measures the whole data plane,
// goroutines included: admission, the lane hop, the flow-table touch and
// the scanner write for a TCP segment; the same hop and the lane's in-place
// scan for a UDP datagram; and the Flush barrier. Once the flow exists and
// the lane's working set is warm, none of it allocates.
func TestGatewayFullPathSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	gw := testGateway(t, testMatcher(t, literal("attack-signature")), 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})

	payload := bytes.Repeat([]byte("x"), 1200)
	tcp := GatewayPacket{Payload: payload, Flags: FlagSeq, Tuple: FiveTuple{
		SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 40000, DstPort: 443, Proto: ProtoTCP,
	}}
	udp := GatewayPacket{Payload: payload, Tuple: tcp.Tuple}
	udp.Tuple.Proto = ProtoUDP
	round := func() {
		if err := gw.Ingest(tcp); err != nil {
			t.Fatal(err)
		}
		tcp.Seq += uint32(len(payload)) // the next in-order segment
		if err := gw.Ingest(udp); err != nil {
			t.Fatal(err)
		}
		gw.Flush()
	}
	round() // warm-up creates the flow and grows the lane's working set
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("full path allocated %.1f times per TCP+UDP round in steady state", allocs)
	}
	if st := gw.Stats(); st.StreamPackets != 52 || st.BatchPackets != 52 || st.Matches != 0 || st.ScannedBytes != 2*52*uint64(len(payload)) {
		t.Fatalf("rounds did not take both paths match-free: %+v", st)
	}
}

// TestGatewayShardedStreamLaneZeroAlloc extends the steady-state
// zero-alloc contract to a gateway of several lanes: with EngineShards: 4,
// the per-packet lane work — lane placement, hash-pinned flow-table touch,
// verdict check, scanner write — allocates nothing, on every lane. Placement
// must be free: the whole point of more lanes is multiplying throughput, so
// the router cannot spend allocations per packet.
func TestGatewayShardedStreamLaneZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const lanes = 4
	gw := testGateway(t, testMatcher(t, literal("attack-signature")), lanes, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})

	// One tuple pinned to each lane, so every lane's path is exercised in
	// the measured loop.
	tuples := make([]FiveTuple, 0, lanes)
	seen := map[*gwLane]bool{}
	for p := uint16(40000); len(tuples) < lanes; p++ {
		tup := FiveTuple{
			SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
			SrcPort: p, DstPort: 443, Proto: ProtoTCP,
		}
		if ln := gw.laneOf(tup); !seen[ln] {
			seen[ln] = true
			tuples = append(tuples, tup)
		}
	}
	payload := bytes.Repeat([]byte("x"), 1200)
	var seq uint32 // every flow's next in-order segment
	lane := func() {
		for _, tup := range tuples {
			// The lane admission routes the tuple's packets to.
			gw.laneOf(tup).streamPacket(seqPacket{GatewayPacket: GatewayPacket{Tuple: tup, Seq: seq, Flags: FlagSeq, Payload: payload}})
		}
		seq += uint32(len(payload))
	}
	lane() // warm-up creates one flow per lane
	allocs := testing.AllocsPerRun(50, lane)
	if allocs != 0 {
		t.Fatalf("stream lanes allocated %.1f times per %d-packet round in steady state", allocs, lanes)
	}
	for i, ls := range gw.LaneStats() {
		if ls.FlowsOpened != 1 || ls.ReassembledBytes != 52*uint64(len(payload)) {
			t.Fatalf("lane %d opened %d flows and reassembled %d bytes, want exactly 1 and every segment's",
				i, ls.FlowsOpened, ls.ReassembledBytes)
		}
	}
}

// TestGatewayShardedConcurrentIngestFlush is the many-lane pipeline's race
// and accounting proof (run with -race): several goroutines ingest mixed
// TCP/UDP traffic into an 8-lane gateway while another hammers Flush, Stats
// and LaneStats. Every Flush return must be a true all-lanes drain barrier
// (scanned == ingested at that instant), nothing may be lost across the
// lane fan-out, the total match count must equal the per-payload oracle,
// and at the end Stats must be the sum of its lanes, each lane's ledger
// balanced.
func TestGatewayShardedConcurrentIngestFlush(t *testing.T) {
	m := testMatcher(t, snortLike(120, 77, BackendAuto))
	pkts := mixedTraffic(t, m, traffic.Config{Packets: 600, Bytes: 160, Seed: 9, AttackDensity: 1})
	// A small queue keeps every lane (and its backpressure) constantly
	// active.
	gw := testGateway(t, m, 4, GatewayConfig{QueueDepth: 4, StreamWorkers: 2}, func(FlowMatch) {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			// The barrier property that survives concurrent ingesters:
			// everything counted before Flush began must be scanned by the
			// time it returns. (Packets ingested after Flush releases the
			// lock may already be counted but not yet scanned when Stats is
			// read, so exact equality is not assertable here.)
			pre := gw.Stats().Packets
			gw.Flush()
			st := gw.Stats()
			if st.StreamPackets+st.BatchPackets < pre {
				t.Errorf("Flush returned with %d of the %d pre-flush packets unscanned",
					pre-(st.StreamPackets+st.BatchPackets), pre)
				return
			}
			gw.LaneStats() // concurrent per-lane reads must be race-clean
		}
	}()
	ingestWorkload(t, gw, 4, pkts...)
	<-done
	closeCheckpoint(t, gw)
	st := gw.Stats()
	if st.Packets != uint64(len(pkts)) || st.StreamPackets+st.BatchPackets != st.Packets {
		t.Fatalf("sharded pipeline lost packets: %+v", st)
	}
	want := 0
	for _, p := range pkts {
		want += len(m.FindAll(p.Payload))
	}
	if int(st.Matches) != want {
		t.Fatalf("matches = %d, oracle %d", st.Matches, want)
	}
	// The stateless packets must actually have fanned out: with per-packet
	// unique tuples and 400 UDP packets, batch work spreads over the lanes.
	busy := 0
	for _, ls := range gw.LaneStats() {
		if ls.BatchPackets > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("stateless traffic landed on %d of 8 lanes", busy)
	}
}

// TestGatewayQuarantineHusk pins quarantine as flow-entry state: the
// panicked flow's entry lingers as a husk that discards stragglers (counted,
// ledger-exact) and that a SYN does not re-open; an RST removes it and idle
// eviction reclaims it like any entry, after which the tuple is inspected
// again.
func TestGatewayQuarantineHusk(t *testing.T) {
	var armed atomic.Bool
	gw := testGateway(t, testMatcher(t, literal("needle")), 1, GatewayConfig{StreamWorkers: 1, IdleTimeout: 4}, func(FlowMatch) {
		if armed.CompareAndSwap(true, false) {
			panic("injected scan-path panic")
		}
	})
	victim := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	var sq Sequencer
	step := func(flags TCPFlags, payload string) GatewayStats {
		t.Helper()
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: victim, Flags: flags, Payload: []byte(payload)}))
		checkpoint(t, gw, fmt.Sprintf("after %q", payload))
		return gw.Stats()
	}

	armed.Store(true)
	st := step(0, "a needle")
	if st.Panics != 1 || st.QuarantinedFlows != 1 || st.QuarantinedPackets != 1 || st.QuarantinedBytes != 8 || st.FlowsLive != 1 {
		t.Fatalf("quarantine should leave one husk: %+v", st)
	}
	step(0, "needle")
	st = step(FlagSYN|FlagSeq, "needle")
	if st.QuarantinedPackets != 3 || st.QuarantinedBytes != 20 || st.Matches != 1 {
		t.Fatalf("husk must discard stragglers, SYN included, unscanned: %+v", st)
	}
	if st = step(FlagRST, ""); st.FlowsLive != 0 || st.FlowsReset != 0 {
		t.Fatalf("RST must remove the husk (not count a reset connection): %+v", st)
	}
	if st = step(0, "needle"); st.Matches != 2 || st.QuarantinedPackets != 3 {
		t.Fatalf("tuple not inspected again after its husk was removed: %+v", st)
	}

	armed.Store(true)
	if st = step(0, "needle"); st.QuarantinedFlows != 2 {
		t.Fatalf("second quarantine: %+v", st)
	}
	for i := 0; i < 8; i++ { // age the husk past IdleTimeout
		other := FiveTuple{SrcIP: 7, DstIP: 8, SrcPort: uint16(i), DstPort: 2, Proto: ProtoTCP}
		ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: other, Payload: []byte("y")}))
	}
	gw.Flush()
	gw.EvictIdleFlows()
	if st = step(0, "needle"); st.Matches != 4 || st.QuarantinedPackets != 4 {
		t.Fatalf("tuple not inspected again after its husk was evicted: %+v", st)
	}
}

// TestGatewayDatagramScanPanicContained: a stateless packet whose scan
// panics (an empty machine image stands in for the scanner bug) is contained by
// the lane that took it — there is no batch worker to contain it anywhere
// else. The datagram's payload goes to the quarantine bucket, uncommitted to
// any other; no flow is quarantined, because there is none; the lane's depth
// comes back down, so the swap's drain barrier passes; and the same lane
// scans the sender's next datagram with the swapped-in, healthy generation.
func TestGatewayDatagramScanPanicContained(t *testing.T) {
	poisoned := *testMatcher(t, literal("needle"))
	poisoned.machine = &core.Machine{} // no state memory: the first stored-row lookup is out of range
	healthy := compileRules(t, literal("needle"))
	c := newCollector()
	gw := testGateway(t, &poisoned, 1, GatewayConfig{StreamWorkers: 1}, c.emit)
	sender := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 53, Proto: ProtoUDP}
	step := func(payload string) GatewayStats {
		t.Helper()
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: sender, Payload: []byte(payload)})
		checkpoint(t, gw, fmt.Sprintf("after %q", payload))
		return gw.Stats()
	}

	st := step("a needle")
	if st.Panics != 1 || st.QuarantinedPackets != 1 || st.QuarantinedBytes != 8 ||
		st.QuarantinedFlows != 0 || st.ScannedBytes != 0 || st.Matches != 0 || st.BatchPackets != 1 {
		t.Fatalf("a panicking scan must cost exactly its datagram: %+v", st)
	}
	if h := gw.Health(); !h.Healthy || len(h.BusyLanes) != 0 {
		t.Fatalf("containment left the lane busy or unhealthy: %+v", h)
	}
	if err := gw.SwapRules(healthy); err != nil {
		t.Fatal(err)
	}
	st = step("needle!")
	if st.Panics != 1 || st.QuarantinedBytes != 8 || st.ScannedBytes != 7 || st.Matches != 1 || st.BatchPackets != 2 {
		t.Fatalf("the lane did not scan the next datagram: %+v", st)
	}
	if got, want := c.matches(sender), healthy.FindAll([]byte("needle!")); !sameMatches(got, want) {
		t.Fatalf("post-containment datagram: got %+v, want %+v", got, want)
	}
}
