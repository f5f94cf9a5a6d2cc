package dpi

// Chaos soak: the deterministic fault-injection acceptance suite. Each
// scenario drives the gateway through a seeded fault regime from
// internal/chaos and asserts the two robustness contracts from the same
// run: matches stay oracle-exact over the bytes actually delivered to
// scanning, and at every drained checkpoint the byte-conservation ledger
// balances (Ingested == Scanned + Shed + Skipped + Buffered), gateway-wide
// and on every lane, with every class and generation refcount equal to the
// records that hold it. Every ruleset, workload and injector seed is
// soakSeed(constant), so `-args -soak.seed=N` replays the whole suite at
// another seed.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/traffic"
)

// TestChaosSoakBlockStorm: under the default Block policy a seeded
// duplicate/reorder storm within the reassembly buffers' reach must be
// invisible — every flow's matches byte-identical to the in-order FindAll
// oracle, across every backend × shard combination, with the ledger
// balancing at the drained checkpoint.
func TestChaosSoakBlockStorm(t *testing.T) {
	for _, backend := range core.RegisteredBackends() {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("backend=%s/shards=%d", backend, shards), func(t *testing.T) {
				m := testMatcher(t, snortLike(250, soakSeed(77), backend))
				w := flowWorkload(t, m, traffic.FlowConfig{
					Flows: 16, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: soakSeed(211),
					CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
					Sequenced: true,
				})
				storm := chaos.New(soakSeed(31)).Storm(w.Packets, chaos.StormConfig{DupFactor: 1, ReorderSpan: 24})
				if len(storm) <= len(w.Packets) {
					t.Fatal("storm added no duplicates; soak is vacuous")
				}
				c := newCollector()
				gw := testGateway(t, m, shards, GatewayConfig{StreamWorkers: 3}, c.emit)
				ingestWorkload(t, gw, 1, storm...)
				o := newOracle(c)
				for f, tuple := range w.Tuples {
					o.deliver(m, tuple, w.Streams[f], 0)
				}
				if checkpoint(t, gw, "after Flush", o) == 0 {
					t.Fatal("no matches at all; soak is vacuous")
				}
				if gw.Stats().DuplicateBytes == 0 {
					t.Fatal("storm duplicates never reached the reassembler")
				}
				closeCheckpoint(t, gw, o)
			})
		}
	}
}

// TestChaosSoakOverflowConservation: a storm far beyond the reassembly
// buffer caps (a tiny per-flow cap and memory budget, aggressive gap timeout)
// forces cap drops and gap skips. The full-stream oracle no longer applies
// — what must survive is the ledger: every ingested byte lands in exactly
// one bucket, at the Flush checkpoint and again after Close.
func TestChaosSoakOverflowConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := testMatcher(t, snortLike(200, soakSeed(77), BackendAuto))
			w := flowWorkload(t, m, traffic.FlowConfig{
				Flows: 12, SegmentsPerFlow: 16, SegmentBytes: 300, Seed: soakSeed(97),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
				Sequenced: true,
			})
			storm := chaos.New(soakSeed(5)).Storm(w.Packets, chaos.StormConfig{DupFactor: 2, ReorderSpan: 400})
			gw := testGateway(t, m, shards, GatewayConfig{
				StreamWorkers: 2, MaxFlowBuffer: 1024, MemoryBudget: 4096, GapTimeout: 4,
			}, func(FlowMatch) {})
			ingestWorkload(t, gw, 1, storm...)
			checkpoint(t, gw, "after Flush")
			if st := gw.Stats(); st.ReassemblyDrops == 0 && st.GapSkips == 0 {
				t.Fatalf("storm never hit the caps; soak is vacuous: %+v", st)
			}
			closeCheckpoint(t, gw)
		})
	}
}

// TestChaosSoakShedPacketsDeliveredOracle: with ShedPackets and a chaos
// stall wedging the pipeline, admission sheds packets — and the matches
// over the bytes that WERE delivered must equal the per-flow FindAll
// oracle over each maximal contiguous run of admitted segments, at
// absolute stream offsets. A shed segment is a hole in its flow's sequence
// space: a GapTimeout of 1 skips it at the flow's next segment, so exactly
// the shed bytes that later admitted bytes lie behind are gap-skipped, and a
// closing FIN per flow leaves no admitted run held. The expected set is
// computed from the actual admission decisions TryIngest reported, so the
// assertion is exact whatever the timing.
func TestChaosSoakShedPacketsDeliveredOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := testMatcher(t, snortLike(250, soakSeed(77), BackendAuto))
			w := flowWorkload(t, m, traffic.FlowConfig{
				Flows: 12, SegmentsPerFlow: 40, SegmentBytes: 120, Seed: soakSeed(313),
				CrossDensity: 1, AttackDensity: 1.5, Profile: traffic.Textual,
			})
			release := make(chan struct{})
			c := newCollector()
			emit := chaos.StallOnce(c.emit, func(FlowMatch) bool { return true }, release)
			gw := testGateway(t, m, shards, GatewayConfig{
				StreamWorkers: 1, QueueDepth: 4,
				OverloadPolicy: ShedPackets, GapTimeout: 1,
			}, emit)

			// Replay the in-order feed, recording admission per packet. A
			// flow's expected matches are FindAll over each contiguous run of
			// admitted bytes, shifted to the run's stream offset — the gap
			// skip guarantees no gateway match spans a shed packet. Offsets
			// count from the flow's first admitted byte: a connection whose
			// opening segments were shed is picked up midstream.
			type acc struct {
				pos      int
				runStart int
				run      []byte
				base     int  // stream offset of the first admitted byte
				started  bool // a segment has been admitted
				hole     int  // shed bytes since the last admitted segment
			}
			accs := map[FiveTuple]*acc{}
			o := newOracle(c)
			closeRun := func(tuple FiveTuple, a *acc) {
				o.deliver(m, tuple, a.run, a.runStart)
				a.run = nil
			}
			shed := 0
			var shedBytes, skipped uint64
			var sq Sequencer
			for _, p := range w.Packets {
				admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
				if err != nil {
					t.Fatal(err)
				}
				a := accs[p.Tuple]
				if a == nil {
					a = &acc{}
					accs[p.Tuple] = a
				}
				if admitted {
					if !a.started {
						a.started, a.base, a.hole = true, a.pos, 0
					}
					skipped += uint64(a.hole)
					a.hole = 0
					if a.run == nil {
						a.runStart = a.pos - a.base
					}
					a.run = append(a.run, p.Payload...)
				} else {
					shed++
					shedBytes += uint64(len(p.Payload))
					a.hole += len(p.Payload)
					closeRun(p.Tuple, a)
				}
				a.pos += len(p.Payload)
			}
			close(release)
			checkpoint(t, gw, "after Flush")
			if shed == 0 {
				t.Fatal("nothing was shed; soak is vacuous")
			}
			st := gw.Stats()
			if st.ShedPackets != uint64(shed) || st.ShedBytes != shedBytes {
				t.Fatalf("shed accounting: stats (%d pkts, %d bytes), observed (%d, %d)",
					st.ShedPackets, st.ShedBytes, shed, shedBytes)
			}
			// A bare FIN at each flow's end is its next segment: it skips a
			// hole that an admitted run still waits behind, so no run stays
			// held. Each goes into a drained queue, so none is shed.
			for _, tuple := range w.Tuples {
				if admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: tuple, Flags: FlagFIN})); err != nil || !admitted {
					t.Fatalf("closing FIN on a drained gateway: admitted=%v err=%v", admitted, err)
				}
				checkpoint(t, gw, fmt.Sprintf("after the closing FIN of %v", tuple))
			}
			for _, tuple := range w.Tuples {
				closeRun(tuple, accs[tuple])
			}
			checkpoint(t, gw, "after the closing FINs", o)
			st = gw.Stats()
			if st.GapSkippedBytes != skipped || st.Ledger().Buffered != 0 {
				t.Fatalf("shed holes: %d bytes gap-skipped and %d held, want the %d shed bytes later admitted bytes lie behind, and none held",
					st.GapSkippedBytes, st.Ledger().Buffered, skipped)
			}
			closeCheckpoint(t, gw, o)
		})
	}
}

// TestChaosSoakShedNewFlows: under ShedNewFlows only packets that would
// create flow state are shed; established connections ride out the
// overload untouched. A chaos stall wedges the stream lane, a burst of
// fresh single-segment flows hits the full queue, and afterwards every
// established flow's matches are still the full-stream oracle.
func TestChaosSoakShedNewFlows(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := testMatcher(t, snortLike(250, soakSeed(77), BackendAuto))
			w := flowWorkload(t, m, traffic.FlowConfig{
				Flows: 8, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: soakSeed(409),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
			})
			release := make(chan struct{})
			trigTuple := FiveTuple{SrcIP: IPv4(10, 9, 9, 9), DstIP: IPv4(10, 9, 9, 10),
				SrcPort: 4000, DstPort: 80, Proto: ProtoTCP}
			c := newCollector()
			emit := chaos.StallOnce(c.emit, func(fm FlowMatch) bool { return fm.Tuple == trigTuple }, release)
			gw := testGateway(t, m, shards, GatewayConfig{
				StreamWorkers: 1, QueueDepth: 4,
				OverloadPolicy: ShedNewFlows,
			}, emit)
			o := newOracle(c)
			for f, tuple := range w.Tuples {
				o.deliver(m, tuple, w.Streams[f], 0)
			}

			// Phase 1: establish the workload's flows while the pipeline is
			// healthy. The opening segments go in first and a Flush barrier
			// guarantees their table entries exist before any follow-up
			// arrives — admission classifies "new flow" against the table, so
			// a follow-up racing its own opener would otherwise be sheddable.
			// After the barrier every packet is established and blocks rather
			// than sheds.
			var sq Sequencer
			for _, p := range w.Packets {
				if p.Seq != 0 {
					continue
				}
				ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
				checkpoint(t, gw, fmt.Sprintf("after opening %v", p.Tuple))
			}
			for _, p := range w.Packets {
				if p.Seq == 0 {
					continue
				}
				ingestWorkload(t, gw, 1, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
			}
			checkpoint(t, gw, "with every flow established", o)

			// Phase 2: wedge the lane. The trigger flow's payload is a full
			// workload stream, guaranteed to match; its first match stalls the
			// lane that scans it.
			if len(m.FindAll(w.Streams[0])) == 0 {
				t.Fatal("trigger payload carries no match; soak is vacuous")
			}
			if admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: trigTuple, Payload: w.Streams[0]})); err != nil || !admitted {
				t.Fatalf("trigger packet not admitted (admitted=%v err=%v)", admitted, err)
			}

			// Phase 3: a SYN-flood-shaped burst of fresh single-segment
			// flows. Each is new state, so each may be shed; none may block.
			shed := 0
			for i := 0; i < 600; i++ {
				tup := FiveTuple{SrcIP: IPv4(172, 16, byte(i>>8), byte(i)), DstIP: IPv4(10, 0, 0, 1),
					SrcPort: uint16(10000 + i), DstPort: 80, Proto: ProtoTCP}
				admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: tup, Payload: []byte("fresh-flow-filler-bytes")}))
				if err != nil {
					t.Fatal(err)
				}
				if !admitted {
					shed++
				}
			}
			close(release)
			checkpoint(t, gw, "after Flush", o)
			if shed == 0 {
				t.Fatal("no new flows shed; soak is vacuous")
			}
			if st := gw.Stats(); st.ShedNewFlows != uint64(shed) || st.ShedPackets != uint64(shed) {
				t.Fatalf("every shed packet should be a new flow: %d shed observed, stats %+v", shed, st)
			}
			closeCheckpoint(t, gw, o)
		})
	}
}

// TestChaosSoakPanicQuarantine: an injected panic on a victim flow's match
// (detonating on the stream lane itself) must quarantine exactly that one
// flow — the gateway stays live, every other flow's matches are intact,
// the panic is counted once, and the ledger still balances
// because the poisoned packet's bytes move to the quarantined bucket. The
// same on a stateless packet costs exactly one datagram
// (soakDatagramEmitPanic).
func TestChaosSoakPanicQuarantine(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := testMatcher(t, snortLike(250, soakSeed(77), BackendAuto))
			w := flowWorkload(t, m, traffic.FlowConfig{
				Flows: 20, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: soakSeed(503),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
				Sequenced: true,
			})
			victim := -1
			for f := range w.Tuples {
				if len(m.FindAll(w.Streams[f])) > 0 {
					victim = f
					break
				}
			}
			if victim < 0 {
				t.Fatal("no flow matches; soak is vacuous")
			}
			c := newCollector()
			emit := chaos.PanicOnce(c.emit, func(fm FlowMatch) bool { return fm.Tuple == w.Tuples[victim] })
			gw := testGateway(t, m, shards, GatewayConfig{StreamWorkers: 2}, emit)
			ingestWorkload(t, gw, 1, w.Packets...)
			// Every flow but the victim is collateral the quarantine must spare.
			o := newOracle(c)
			for f, tuple := range w.Tuples {
				if f != victim {
					o.deliver(m, tuple, w.Streams[f], 0)
				}
			}
			if checkpoint(t, gw, "after Flush", o) == 0 {
				t.Fatal("no surviving matches; soak is vacuous")
			}
			st := gw.Stats()
			if st.Panics != 1 {
				t.Fatalf("Panics = %d, want exactly the 1 injected", st.Panics)
			}
			if st.QuarantinedFlows != 1 {
				t.Fatalf("QuarantinedFlows = %d, want exactly the victim", st.QuarantinedFlows)
			}
			// Containment working is the healthy outcome: a quarantined flow
			// must not trip the liveness probe.
			if h := gw.Health(); !h.Healthy || h.Panics != 1 || h.QuarantinedFlows != 1 {
				t.Fatalf("health after containment: %+v", h)
			}
			closeCheckpoint(t, gw, o)
			soakDatagramEmitPanic(t, m, shards)
		})
	}
}

// soakDatagramEmitPanic is the stateless half of
// TestChaosSoakPanicQuarantine: a panicking emit on one datagram must cost
// exactly that datagram. Eight matching datagrams are pinned to one lane (one
// lane per shard, every tuple hashed to the victim's lane); emit panics on the
// first of them, and the seven behind it on the same lane must still emit
// their FindAll matches, with the victim's payload — and nothing else — in
// the quarantine bucket.
func soakDatagramEmitPanic(t *testing.T, m *Matcher, shards int) {
	t.Helper()
	var victim GatewayPacket // feed[0], chosen once the gateway places tuples
	c := newCollector()
	emit := chaos.PanicOnce(c.emit, func(fm FlowMatch) bool { return fm.Tuple == victim.Tuple })
	gw := testGateway(t, m, shards, GatewayConfig{StreamWorkers: 1}, emit)
	var feed []GatewayPacket
	for port := uint16(5000); len(feed) < 8; port++ {
		tup := FiveTuple{SrcIP: IPv4(10, 0, 0, 9), DstIP: IPv4(10, 0, 1, 1),
			SrcPort: port, DstPort: 53, Proto: ProtoUDP}
		if len(feed) > 0 && gw.laneOf(tup) != gw.laneOf(feed[0].Tuple) {
			continue // not the victim's lane
		}
		payload := append([]byte("query "), m.rules.set.Patterns[len(feed)].Data...)
		feed = append(feed, GatewayPacket{Tuple: tup, Payload: payload})
	}
	victim = feed[0]
	if len(m.FindAll(victim.Payload)) == 0 {
		t.Fatal("udp: the victim carries no match; its emit never panics")
	}
	o := newOracle(c)
	for i, p := range feed {
		ingestWorkload(t, gw, 1, p)
		if i == 0 {
			continue
		}
		if len(m.FindAll(p.Payload)) == 0 {
			t.Fatalf("udp: datagram %d carries no match; soak is vacuous", i)
		}
		// A datagram behind the victim must not lose matches to its
		// neighbour's emit panic.
		o.deliver(m, p.Tuple, p.Payload, 0)
	}
	checkpoint(t, gw, "udp: after Flush", o)
	if st := gw.Stats(); st.Panics != 1 || st.QuarantinedPackets != 1 || st.QuarantinedBytes != uint64(len(victim.Payload)) {
		t.Fatalf("udp: Panics %d QuarantinedPackets %d QuarantinedBytes %d, want 1, 1, %d (the victim datagram)",
			st.Panics, st.QuarantinedPackets, st.QuarantinedBytes, len(victim.Payload))
	}
	closeCheckpoint(t, gw)
	checkpoint(t, gw, "udp: after Close", o)
}

// TestChaosSoakPanicQuarantineUnderEviction runs containment under capacity
// pressure: the lanes' flow tables hold a fraction of the live connections,
// so every lane evicts flows continuously — ones holding reordered
// bytes included — while every fifth match panics on the lane that found it.
// A quarantine happens before the lane touches its table again, so no
// eviction can slip between the panic and the charge: the ledger must
// balance at every drained checkpoint.
func TestChaosSoakPanicQuarantineUnderEviction(t *testing.T) {
	m := testMatcher(t, snortLike(250, soakSeed(77), BackendAuto))
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 48, SegmentsPerFlow: 8, SegmentBytes: 140, Seed: soakSeed(719),
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
		Sequenced: true,
	})
	storm := chaos.New(soakSeed(11)).Storm(w.Packets, chaos.StormConfig{DupFactor: 1, ReorderSpan: 24})
	var matches atomic.Uint64
	gw := testGateway(t, m, 4, GatewayConfig{
		StreamWorkers: 2, QueueDepth: 8,
		// A lane's share holds one connection and one of its reordered
		// 140 B segments at cost.
		MemoryBudget: 8 * (ConnEntry + 200),
	}, func(FlowMatch) {
		if matches.Add(1)%5 == 0 {
			panic("chaos: injected scan-path panic")
		}
	})
	for round := 0; round < 4; round++ {
		// Four feeders interleave the storm, so every lane is creating in
		// (and evicting from) its one-flow table at once.
		ingestWorkload(t, gw, 4, storm...)
		checkpoint(t, gw, fmt.Sprintf("round %d after Flush", round))
		if st := gw.Stats(); st.Panics == 0 || st.QuarantinedFlows == 0 || st.FlowsEvicted == 0 {
			t.Fatalf("round %d: no panic, quarantine or eviction; soak is vacuous: %+v", round, st)
		}
		if h := gw.Health(); !h.Healthy {
			t.Fatalf("round %d: health after containment: %+v", round, h)
		}
	}
	closeCheckpoint(t, gw)
}

// TestChaosSoakSwapStorm lands two hot reloads (Gateway.SwapRules) in the
// middle of a duplicate/reorder storm. Three ruleset generations each get
// their own wave of sequenced flows; a wave's flows all open (their SYNs
// land) before the next swap, then every wave's tail — duplicates and
// displaced segments included — keeps streaming under later generations.
// Each flow's matches must equal FindAll of its full stream against its
// birth generation's matcher (pinning, with the storm still invisible to
// reassembly across the swaps), every generation but the current one must
// retire once its FINs drain, and the ledger must balance. (The storm-driven
// sibling of TestSwapGenerationOracle.)
func TestChaosSoakSwapStorm(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			type wave struct {
				m       *Matcher
				tuples  []FiveTuple
				streams [][]byte
				storm   []traffic.FlowPacket
				opening int // storm prefix containing every flow's first packet
			}
			var waves [3]wave
			for wv := range waves {
				// Compiled in wave order, so compile generations ascend.
				m := compileRules(t, snortLike(150+40*wv, soakSeed(int64(1000*wv)), BackendAuto))
				w := flowWorkload(t, m, traffic.FlowConfig{
					Flows: 10, SegmentsPerFlow: 6, SegmentBytes: 130, Seed: soakSeed(int64(401 + 77*wv)),
					CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
					Sequenced: true,
				})
				storm := chaos.New(soakSeed(int64(13+7*wv))).Storm(w.Packets,
					chaos.StormConfig{DupFactor: 1, ReorderSpan: 12})
				// Waves are drawn from independent workload seeds: remap
				// their tuples into per-wave address blocks so they never
				// collide in the table.
				tuples := make([]FiveTuple, len(w.Tuples))
				for f, tup := range w.Tuples {
					tup.SrcIP = 0x0a000000 | uint32(wv)<<16 | uint32(f)
					tuples[f] = tup
				}
				// A flow pins its generation at first sight, so the opening
				// slice covers every flow's first storm packet (the SYN —
				// storms never move a packet ahead of it) and at least
				// three fifths of the storm.
				seen := map[int]bool{}
				opening := 3 * len(storm) / 5
				for i := range storm {
					storm[i].Tuple = tuples[storm[i].FlowID]
					if !seen[storm[i].FlowID] {
						seen[storm[i].FlowID] = true
						opening = max(opening, i+1)
					}
				}
				waves[wv] = wave{m: m, tuples: tuples, streams: w.Streams, storm: storm, opening: opening}
			}

			c := newCollector()
			gw := testGateway(t, waves[0].m, shards, GatewayConfig{StreamWorkers: 2}, c.emit)
			o := newOracle(c)
			for wv, w := range waves {
				if wv > 0 {
					if err := gw.SwapRules(w.m); err != nil {
						t.Fatalf("swap to generation %d: %v", w.m.Generation(), err)
					}
				}
				ingestWorkload(t, gw, 1, w.storm[:w.opening]...)
				// Each flow's oracle is its birth generation's matcher.
				for f, tuple := range w.tuples {
					o.deliver(w.m, tuple, w.streams[f], 0)
				}
			}
			// Tails: every earlier wave keeps streaming (and FINishing)
			// under the final generation.
			for _, w := range waves {
				ingestWorkload(t, gw, 1, w.storm[w.opening:]...)
			}
			if checkpoint(t, gw, "after Flush", o) == 0 {
				t.Fatal("no matches at all; soak is vacuous")
			}
			st := gw.Stats()
			if st.DuplicateBytes == 0 {
				t.Fatal("storm duplicates never reached the reassembler; soak is vacuous")
			}
			// Every wave's flows FIN inside its own storm, so after the
			// drain only the current generation survives — retirement is
			// refcount-driven, no sweeper to wait for.
			if st.RulesetSwaps != 2 || st.GenerationsInstalled != 3 ||
				st.GenerationsRetired != st.GenerationsInstalled-1 || st.GenerationsLive != 1 {
				t.Fatalf("after the FIN drain: %d swaps, %d installed, %d retired, %d live; want 2, 3, 2, 1",
					st.RulesetSwaps, st.GenerationsInstalled, st.GenerationsRetired, st.GenerationsLive)
			}
			closeCheckpoint(t, gw, o)
		})
	}
}

// TestChaosSoakWatchdogStall: a wedged emit callback (chaos stall) must
// flip Health to stalled once the queue head exceeds the threshold — on the
// lane the packets are pinned to, for TCP segments and UDP datagrams alike
// (a real lane index on the packet's shard; there is no other kind of
// scanner to report) — turn /healthz into a 503 with a diagnosable JSON
// body, and clear cleanly once the wedge releases.
func TestChaosSoakWatchdogStall(t *testing.T) {
	m := testMatcher(t, snortLike(200, soakSeed(77), BackendAuto))
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 1, SegmentsPerFlow: 4, SegmentBytes: 140, Seed: soakSeed(601),
		CrossDensity: 1, AttackDensity: 2, Profile: traffic.Textual,
	})
	var segments, datagrams []GatewayPacket
	var sq Sequencer
	for _, p := range w.Packets {
		segments = append(segments, sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
	}
	stream := map[FiveTuple][]byte{w.Tuples[0]: w.Streams[0]}
	payloads := map[FiveTuple][]byte{}
	for i := 0; i < 4; i++ {
		tup := FiveTuple{SrcIP: IPv4(10, 0, 0, 9), DstIP: IPv4(10, 0, 1, 1),
			SrcPort: uint16(5000 + i), DstPort: 53, Proto: ProtoUDP}
		payload := append([]byte("query "), m.rules.set.Patterns[i].Data...)
		datagrams = append(datagrams, GatewayPacket{Tuple: tup, Payload: payload})
		payloads[tup] = payload
	}
	for _, tc := range []struct {
		name      string
		feed      []GatewayPacket
		delivered map[FiveTuple][]byte
	}{
		{"tcp", segments, stream},
		{"udp", datagrams, payloads},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			c := newCollector()
			o := newOracle(c)
			for tup, data := range tc.delivered {
				if len(m.FindAll(data)) == 0 {
					t.Fatalf("%v carries no match; stall never triggers", tup)
				}
				o.deliver(m, tup, data, 0)
			}
			emit := chaos.StallOnce(c.emit, func(FlowMatch) bool { return true }, release)
			gw := testGateway(t, m, 1, GatewayConfig{
				StreamWorkers: 1, StallThreshold: 30 * time.Millisecond,
			}, emit)
			for _, p := range tc.feed {
				ingestWorkload(t, gw, 1, p)
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				h := gw.Health()
				if !h.Healthy {
					// One lane: whatever the protocol, the wedge is on
					// lane 0.
					stalled := false
					for _, l := range h.BusyLanes {
						stalled = stalled || (l.Stalled && l.Lane == 0)
					}
					if !stalled {
						t.Fatalf("unhealthy without a stalled lane 0: %+v", h)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("watchdog never detected the stall: %+v", h)
				}
				time.Sleep(5 * time.Millisecond)
			}

			rec := httptest.NewRecorder()
			gw.Healthz().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 503 {
				t.Fatalf("/healthz during stall: %d, want 503", rec.Code)
			}
			var h GatewayHealth
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Healthy {
				t.Fatalf("/healthz body during stall: %q (err %v)", rec.Body.String(), err)
			}

			if expo := scrape(t, gw); !strings.Contains(expo, "\ndpi_gateway_stalled_lanes 1\n") {
				t.Fatalf("stall not counted in dpi_gateway_stalled_lanes:\n%s", expo)
			}

			close(release)
			// The stall must lose no match.
			checkpoint(t, gw, "after release + Flush", o)
			if h := gw.Health(); !h.Healthy {
				t.Fatalf("still unhealthy after release + Flush: %+v", h)
			}
			rec = httptest.NewRecorder()
			gw.Healthz().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 200 {
				t.Fatalf("/healthz after release: %d, want 200", rec.Code)
			}
			closeCheckpoint(t, gw, o)
		})
	}
}

// TestChaosSoakWedgedLaneSparesNeighbours: backpressure and shedding are
// per lane. A chaos stall wedges the lane of flow A and A is fed until
// admission sheds; flow B, pinned to a different lane (or shard), must then
// be admitted and scanned in full — FindAll-exact — while A's lane is still
// wedged. With a shared stage between admission and the lanes, one wedged
// lane backs that stage up and every flow sheds.
func TestChaosSoakWedgedLaneSparesNeighbours(t *testing.T) {
	for _, tc := range []struct{ shards, lanes int }{{1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("shards=%d/lanes=%d", tc.shards, tc.lanes), func(t *testing.T) {
			m := testMatcher(t, snortLike(250, soakSeed(77), BackendAuto))
			w := flowWorkload(t, m, traffic.FlowConfig{
				Flows: 2, SegmentsPerFlow: 200, SegmentBytes: 120, Seed: soakSeed(733),
				CrossDensity: 2, AttackDensity: 6, Profile: traffic.Textual,
			})
			if len(m.FindAll(w.Streams[0])) == 0 || len(m.FindAll(w.Streams[1])) == 0 {
				t.Fatal("a flow carries no match; soak is vacuous")
			}
			tupA := w.Tuples[0]
			var segs [2][][]byte
			for _, p := range w.Packets {
				segs[p.FlowID] = append(segs[p.FlowID], p.Payload)
			}

			release := make(chan struct{})
			stalled := make(chan struct{})
			var stallOnce sync.Once
			c := newCollector()
			emit := chaos.StallOnce(c.emit, func(fm FlowMatch) bool {
				if fm.Tuple != tupA {
					return false
				}
				stallOnce.Do(func() { close(stalled) })
				return true
			}, release)
			gw := testGateway(t, m, tc.shards, GatewayConfig{
				StreamWorkers: tc.lanes, QueueDepth: 4,
				OverloadPolicy: ShedPackets, GapTimeout: 1,
			}, emit)
			// Move B off A's lane, as admission places them.
			tupB := w.Tuples[1]
			for gw.laneOf(tupB) == gw.laneOf(tupA) {
				tupB.SrcPort++
			}
			var sq Sequencer
			// A failing assertion must not leave Close waiting on the wedge.
			var releaseOnce sync.Once
			unwedge := func() { releaseOnce.Do(func() { close(release) }) }
			defer unwedge()

			// waitScanned polls until the scanned-bytes bucket reaches want,
			// or reports false once stop closes; a Flush would wait on the
			// wedged lane.
			waitScanned := func(want uint64, stop <-chan struct{}) bool {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for gw.Stats().ScannedBytes < want {
					select {
					case <-stop:
						return false
					default:
					}
					if time.Now().After(deadline) {
						t.Fatalf("scanned %d of %d bytes", gw.Stats().ScannedBytes, want)
					}
					time.Sleep(50 * time.Microsecond)
				}
				return true
			}

			// Feed A in lockstep with its lane until a match wedges it, then
			// flat out until the lane's queue is full and admission sheds.
			var deliveredA uint64
			next := 0
			for wedged := false; !wedged; next++ {
				if next == len(segs[0]) {
					t.Fatal("flow A never wedged its lane")
				}
				if admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: tupA, Payload: segs[0][next]})); err != nil || !admitted {
					t.Fatalf("segment %d of A on an idle lane: admitted=%v err=%v", next, admitted, err)
				}
				deliveredA += uint64(len(segs[0][next]))
				// The wedged segment never commits its bytes, so falling
				// short of them is exactly the stall having fired.
				wedged = !waitScanned(deliveredA, stalled)
			}
			scanned := deliveredA - uint64(len(segs[0][next-1]))
			for shed := false; !shed; next++ {
				if next == len(segs[0]) {
					t.Fatal("flow A never shed on its wedged lane")
				}
				admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: tupA, Payload: segs[0][next]}))
				if err != nil {
					t.Fatal(err)
				}
				if admitted {
					deliveredA += uint64(len(segs[0][next]))
				}
				shed = !admitted
			}

			// B rides a different lane: every segment admitted and scanned
			// while A's lane is still wedged.
			for i, seg := range segs[1] {
				if admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: tupB, Payload: seg})); err != nil || !admitted {
					t.Fatalf("segment %d of B shed behind A's wedged lane (admitted=%v err=%v)", i, admitted, err)
				}
				scanned += uint64(len(seg))
				waitScanned(scanned, nil)
			}
			if got, want := c.matches(tupB), m.FindAll(w.Streams[1]); !sameMatches(got, want) {
				t.Fatalf("flow B behind a wedged neighbour\ngot  %+v\nwant %+v", got, want)
			}
			if h := gw.Health(); len(h.BusyLanes) != 1 {
				t.Fatalf("exactly A's lane should hold work: %+v", h)
			}

			unwedge()
			// A's delivered run is the prefix admitted before its shed.
			o := newOracle(c)
			o.deliver(m, tupA, w.Streams[0][:deliveredA], 0)
			o.deliver(m, tupB, w.Streams[1], 0)
			checkpoint(t, gw, "after release + Flush", o)
			st := gw.Stats()
			if st.ShedPackets != 1 {
				t.Fatalf("ShedPackets = %d, want A's one shed segment", st.ShedPackets)
			}
			// A's shed segment is the last it was fed: no admitted byte lies
			// behind the hole, so nothing is held or gap-skipped.
			if st.GapSkippedBytes != 0 || st.Ledger().Buffered != 0 {
				t.Fatalf("A's trailing shed hole: %d bytes gap-skipped and %d held, want none",
					st.GapSkippedBytes, st.Ledger().Buffered)
			}
		})
	}
}
