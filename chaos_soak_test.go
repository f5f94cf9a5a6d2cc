package dpi_test

// Chaos soak: the deterministic fault-injection acceptance suite. Each
// scenario drives the gateway through a seeded fault regime from
// internal/chaos and asserts the two robustness contracts from the same
// run: matches stay oracle-exact over the bytes actually delivered to
// scanning, and the byte-conservation ledger balances at every drained
// checkpoint (Ingested == Scanned + Shed + Skipped + Buffered). Every
// ruleset, workload and injector seed is dpi.SoakSeed(constant), so
// `-args -soak.seed=N` replays the whole suite at another seed. This file
// lives in the external test package because internal/chaos imports the
// root dpi package — an internal test package would close an import cycle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dpi "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

// soakCollector gathers matches by tuple; emit runs on pipeline
// goroutines, so it locks.
type soakCollector struct {
	mu      sync.Mutex
	byTuple map[dpi.FiveTuple][]dpi.Match
}

func newSoakCollector() *soakCollector {
	return &soakCollector{byTuple: map[dpi.FiveTuple][]dpi.Match{}}
}

func (c *soakCollector) emit(fm dpi.FlowMatch) {
	c.mu.Lock()
	c.byTuple[fm.Tuple] = append(c.byTuple[fm.Tuple], fm.Match)
	c.mu.Unlock()
}

func (c *soakCollector) matches(t dpi.FiveTuple) []dpi.Match {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byTuple[t]
}

// soakGateway starts a gateway over m, failing the test if the constructor
// rejects its arguments.
func soakGateway(t testing.TB, m *dpi.Matcher, cfg dpi.GatewayConfig, emit func(dpi.FlowMatch)) *dpi.Gateway {
	t.Helper()
	gw, err := dpi.NewGateway(m, cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func soakMatcher(t testing.TB, n int, backend string) (*dpi.Matcher, *ruleset.Set) {
	t.Helper()
	rules, err := dpi.GenerateSnortLike(n, dpi.SoakSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	m, err := dpi.Compile(rules, dpi.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return m, rules.InternalSet()
}

// sameSoakMatches compares match sequences ignoring PacketID (the oracle
// scans whole streams; the gateway attributes segments).
func sameSoakMatches(got, want []dpi.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].PatternID != want[i].PatternID || got[i].Start != want[i].Start || got[i].End != want[i].End {
			return false
		}
	}
	return true
}

func requireBalanced(t *testing.T, st dpi.GatewayStats, when string) {
	t.Helper()
	if l := st.Ledger(); !l.Balanced() {
		t.Fatalf("%s: conservation law violated: %+v (stats %+v)", when, l, st)
	}
}

// TestChaosSoakBlockStorm: under the default Block policy a seeded
// duplicate/reorder storm within the reassembly buffers' reach must be
// invisible — every flow's matches byte-identical to the in-order FindAll
// oracle, across every backend × shard combination, with the ledger
// balancing at the drained checkpoint.
func TestChaosSoakBlockStorm(t *testing.T) {
	for _, backend := range core.RegisteredBackends() {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("backend=%s/shards=%d", backend, shards), func(t *testing.T) {
				m, set := soakMatcher(t, 250, backend)
				w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
					Flows: 16, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: dpi.SoakSeed(211),
					CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
					Sequenced: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				storm := chaos.New(dpi.SoakSeed(31)).Storm(w.Packets, chaos.StormConfig{DupFactor: 1, ReorderSpan: 24})
				if len(storm) <= len(w.Packets) {
					t.Fatal("storm added no duplicates; soak is vacuous")
				}
				c := newSoakCollector()
				gw := soakGateway(t, m, dpi.GatewayConfig{
					EngineShards: shards, StreamWorkers: 3,
				}, c.emit)
				for _, p := range storm {
					if err := gw.Ingest(dpi.GatewayPacket{
						Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
					}); err != nil {
						t.Fatal(err)
					}
				}
				gw.Flush()
				st := gw.Stats()
				requireBalanced(t, st, "after Flush")
				if st.DuplicateBytes == 0 {
					t.Fatal("storm duplicates never reached the reassembler")
				}
				if err := gw.Close(); err != nil {
					t.Fatal(err)
				}
				matched := 0
				for f, tuple := range w.Tuples {
					want := m.FindAll(w.Streams[f])
					got := c.matches(tuple)
					if !sameSoakMatches(got, want) {
						t.Fatalf("flow %d: storm changed results: got %d matches, oracle %d\ngot  %+v\nwant %+v",
							f, len(got), len(want), got, want)
					}
					matched += len(got)
				}
				if matched == 0 {
					t.Fatal("no matches at all; soak is vacuous")
				}
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
			m, set := soakMatcher(t, 200, dpi.BackendAuto)
			w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
				Flows: 12, SegmentsPerFlow: 16, SegmentBytes: 300, Seed: dpi.SoakSeed(97),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
				Sequenced: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			storm := chaos.New(dpi.SoakSeed(5)).Storm(w.Packets, chaos.StormConfig{DupFactor: 2, ReorderSpan: 400})
			gw := soakGateway(t, m, dpi.GatewayConfig{
				EngineShards: shards, StreamWorkers: 2,
				MaxFlowBuffer: 1024, MemoryBudget: 4096, GapTimeout: 4,
			}, func(dpi.FlowMatch) {})
			for _, p := range storm {
				if err := gw.Ingest(dpi.GatewayPacket{
					Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
				}); err != nil {
					t.Fatal(err)
				}
			}
			gw.Flush()
			st := gw.Stats()
			requireBalanced(t, st, "after Flush")
			if st.ReassemblyDrops == 0 && st.GapSkips == 0 {
				t.Fatalf("storm never hit the caps; soak is vacuous: %+v", st)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			requireBalanced(t, gw.Stats(), "after Close")
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
			m, set := soakMatcher(t, 250, dpi.BackendAuto)
			w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
				Flows: 12, SegmentsPerFlow: 40, SegmentBytes: 120, Seed: dpi.SoakSeed(313),
				CrossDensity: 1, AttackDensity: 1.5, Profile: traffic.Textual,
			})
			if err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			c := newSoakCollector()
			emit := chaos.StallOnce(c.emit, func(dpi.FlowMatch) bool { return true }, release)
			gw := soakGateway(t, m, dpi.GatewayConfig{
				EngineShards: shards, StreamWorkers: 1, QueueDepth: 4,
				OverloadPolicy: dpi.ShedPackets, IngestDeadline: -1, GapTimeout: 1,
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
			accs := map[dpi.FiveTuple]*acc{}
			want := map[dpi.FiveTuple][]dpi.Match{}
			closeRun := func(tuple dpi.FiveTuple, a *acc) {
				if len(a.run) == 0 {
					return
				}
				for _, mt := range m.FindAll(a.run) {
					mt.Start += a.runStart
					mt.End += a.runStart
					want[tuple] = append(want[tuple], mt)
				}
				a.run = nil
			}
			shed := 0
			var shedBytes, skipped uint64
			var sq dpi.Sequencer
			for _, p := range w.Packets {
				admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
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
			gw.Flush()
			if shed == 0 {
				t.Fatal("nothing was shed; soak is vacuous")
			}
			st := gw.Stats()
			if st.ShedPackets != uint64(shed) || st.ShedBytes != shedBytes {
				t.Fatalf("shed accounting: stats (%d pkts, %d bytes), observed (%d, %d)",
					st.ShedPackets, st.ShedBytes, shed, shedBytes)
			}
			requireBalanced(t, st, "after Flush")
			// A bare FIN at each flow's end is its next segment: it skips a
			// hole that an admitted run still waits behind, so no run stays
			// held. Each goes into a drained queue, so none is shed.
			for _, tuple := range w.Tuples {
				if admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: tuple, Flags: dpi.FlagFIN})); err != nil || !admitted {
					t.Fatalf("closing FIN on a drained gateway: admitted=%v err=%v", admitted, err)
				}
				gw.Flush()
			}
			st = gw.Stats()
			requireBalanced(t, st, "after the closing FINs")
			if st.GapSkippedBytes != skipped || st.Ledger().Buffered != 0 {
				t.Fatalf("shed holes: %d bytes gap-skipped and %d held, want the %d shed bytes later admitted bytes lie behind, and none held",
					st.GapSkippedBytes, st.Ledger().Buffered, skipped)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			for f, tuple := range w.Tuples {
				closeRun(tuple, accs[tuple])
				if got := c.matches(tuple); !sameSoakMatches(got, want[tuple]) {
					t.Fatalf("flow %d: delivered-subset oracle diverged\ngot  %+v\nwant %+v",
						f, got, want[tuple])
				}
			}
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
			m, set := soakMatcher(t, 250, dpi.BackendAuto)
			w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
				Flows: 8, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: dpi.SoakSeed(409),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
			})
			if err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			trigTuple := dpi.FiveTuple{SrcIP: dpi.IPv4(10, 9, 9, 9), DstIP: dpi.IPv4(10, 9, 9, 10),
				SrcPort: 4000, DstPort: 80, Proto: dpi.ProtoTCP}
			c := newSoakCollector()
			emit := chaos.StallOnce(c.emit, func(fm dpi.FlowMatch) bool { return fm.Tuple == trigTuple }, release)
			gw := soakGateway(t, m, dpi.GatewayConfig{
				EngineShards: shards, StreamWorkers: 1, QueueDepth: 4,
				OverloadPolicy: dpi.ShedNewFlows, IngestDeadline: -1,
			}, emit)

			// Phase 1: establish the workload's flows while the pipeline is
			// healthy. The opening segments go in first and a Flush barrier
			// guarantees their table entries exist before any follow-up
			// arrives — admission classifies "new flow" against the table, so
			// a follow-up racing its own opener would otherwise be sheddable.
			// After the barrier every packet is established and blocks rather
			// than sheds.
			var sq dpi.Sequencer
			for _, p := range w.Packets {
				if p.Seq != 0 {
					continue
				}
				if err := gw.Ingest(sq.Seq(dpi.GatewayPacket{Tuple: p.Tuple, Payload: p.Payload})); err != nil {
					t.Fatal(err)
				}
				gw.Flush()
			}
			for _, p := range w.Packets {
				if p.Seq == 0 {
					continue
				}
				if err := gw.Ingest(sq.Seq(dpi.GatewayPacket{Tuple: p.Tuple, Payload: p.Payload})); err != nil {
					t.Fatal(err)
				}
			}
			gw.Flush()

			// Phase 2: wedge the lane. The trigger flow's payload is a full
			// workload stream, guaranteed to match; its first match stalls the
			// lane that scans it.
			if len(m.FindAll(w.Streams[0])) == 0 {
				t.Fatal("trigger payload carries no match; soak is vacuous")
			}
			if admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: trigTuple, Payload: w.Streams[0]})); err != nil || !admitted {
				t.Fatalf("trigger packet not admitted (admitted=%v err=%v)", admitted, err)
			}

			// Phase 3: a SYN-flood-shaped burst of fresh single-segment
			// flows. Each is new state, so each may be shed; none may block.
			shed := 0
			for i := 0; i < 600; i++ {
				tup := dpi.FiveTuple{SrcIP: dpi.IPv4(172, 16, byte(i>>8), byte(i)), DstIP: dpi.IPv4(10, 0, 0, 1),
					SrcPort: uint16(10000 + i), DstPort: 80, Proto: dpi.ProtoTCP}
				admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: tup, Payload: []byte("fresh-flow-filler-bytes")}))
				if err != nil {
					t.Fatal(err)
				}
				if !admitted {
					shed++
				}
			}
			close(release)
			gw.Flush()
			if shed == 0 {
				t.Fatal("no new flows shed; soak is vacuous")
			}
			st := gw.Stats()
			if st.ShedNewFlows != uint64(shed) || st.ShedPackets != uint64(shed) {
				t.Fatalf("every shed packet should be a new flow: %d shed observed, stats %+v", shed, st)
			}
			requireBalanced(t, st, "after Flush")
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			for f, tuple := range w.Tuples {
				want := m.FindAll(w.Streams[f])
				if got := c.matches(tuple); !sameSoakMatches(got, want) {
					t.Fatalf("established flow %d damaged by overload\ngot  %+v\nwant %+v", f, got, want)
				}
			}
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
			m, set := soakMatcher(t, 250, dpi.BackendAuto)
			w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
				Flows: 20, SegmentsPerFlow: 6, SegmentBytes: 140, Seed: dpi.SoakSeed(503),
				CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
				Sequenced: true,
			})
			if err != nil {
				t.Fatal(err)
			}
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
			c := newSoakCollector()
			emit := chaos.PanicOnce(c.emit, func(fm dpi.FlowMatch) bool { return fm.Tuple == w.Tuples[victim] })
			gw := soakGateway(t, m, dpi.GatewayConfig{
				EngineShards: shards, StreamWorkers: 2,
			}, emit)
			for _, p := range w.Packets {
				if err := gw.Ingest(dpi.GatewayPacket{
					Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
				}); err != nil {
					t.Fatal(err)
				}
			}
			gw.Flush()
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
			requireBalanced(t, st, "after Flush")
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			matched := 0
			for f, tuple := range w.Tuples {
				if f == victim {
					continue
				}
				want := m.FindAll(w.Streams[f])
				got := c.matches(tuple)
				if !sameSoakMatches(got, want) {
					t.Fatalf("flow %d collateral damage from quarantine of flow %d\ngot  %+v\nwant %+v",
						f, victim, got, want)
				}
				matched += len(got)
			}
			if matched == 0 {
				t.Fatal("no surviving matches; soak is vacuous")
			}
			soakDatagramEmitPanic(t, m, set, shards)
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
func soakDatagramEmitPanic(t *testing.T, m *dpi.Matcher, set *ruleset.Set, shards int) {
	t.Helper()
	var victim dpi.GatewayPacket // feed[0], chosen once the gateway places tuples
	c := newSoakCollector()
	emit := chaos.PanicOnce(c.emit, func(fm dpi.FlowMatch) bool { return fm.Tuple == victim.Tuple })
	gw := soakGateway(t, m, dpi.GatewayConfig{EngineShards: shards, StreamWorkers: 1}, emit)
	var feed []dpi.GatewayPacket
	for port := uint16(5000); len(feed) < 8; port++ {
		tup := dpi.FiveTuple{SrcIP: dpi.IPv4(10, 0, 0, 9), DstIP: dpi.IPv4(10, 0, 1, 1),
			SrcPort: port, DstPort: 53, Proto: dpi.ProtoUDP}
		if len(feed) > 0 && gw.LaneIndex(tup) != gw.LaneIndex(feed[0].Tuple) {
			continue // not the victim's lane
		}
		payload := append([]byte("query "), set.Patterns[len(feed)].Data...)
		feed = append(feed, dpi.GatewayPacket{Tuple: tup, Payload: payload})
	}
	victim = feed[0]
	for _, p := range feed {
		if err := gw.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	gw.Flush()
	st := gw.Stats()
	if st.Panics != 1 || st.QuarantinedPackets != 1 || st.QuarantinedBytes != uint64(len(victim.Payload)) {
		t.Fatalf("udp: Panics %d QuarantinedPackets %d QuarantinedBytes %d, want 1, 1, %d (the victim datagram)",
			st.Panics, st.QuarantinedPackets, st.QuarantinedBytes, len(victim.Payload))
	}
	requireBalanced(t, st, "udp: after Flush")
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(m.FindAll(victim.Payload)) == 0 {
		t.Fatal("udp: the victim carries no match; its emit never panics")
	}
	for i, p := range feed[1:] {
		want := m.FindAll(p.Payload)
		if len(want) == 0 {
			t.Fatalf("udp: datagram %d carries no match; soak is vacuous", i+1)
		}
		if got := c.matches(p.Tuple); !sameSoakMatches(got, want) {
			t.Fatalf("udp: datagram %d lost matches to its neighbour's emit panic\ngot  %+v\nwant %+v", i+1, got, want)
		}
	}
}

// TestChaosSoakPanicQuarantineUnderEviction runs containment under capacity
// pressure: the lanes' flow tables hold a fraction of the live connections,
// so every lane evicts flows continuously — ones holding reordered
// bytes included — while every fifth match panics on the lane that found it.
// A quarantine happens before the lane touches its table again, so no
// eviction can slip between the panic and the charge: the ledger must
// balance at every drained checkpoint.
func TestChaosSoakPanicQuarantineUnderEviction(t *testing.T) {
	m, set := soakMatcher(t, 250, dpi.BackendAuto)
	w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: 48, SegmentsPerFlow: 8, SegmentBytes: 140, Seed: dpi.SoakSeed(719),
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
		Sequenced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	storm := chaos.New(dpi.SoakSeed(11)).Storm(w.Packets, chaos.StormConfig{DupFactor: 1, ReorderSpan: 24})
	var matches atomic.Uint64
	gw := soakGateway(t, m, dpi.GatewayConfig{
		EngineShards: 4, StreamWorkers: 2, QueueDepth: 8,
		// A lane's share holds one connection and one of its reordered
		// 140 B segments at cost.
		MemoryBudget: 8 * (dpi.ConnEntry + 200),
	}, func(dpi.FlowMatch) {
		if matches.Add(1)%5 == 0 {
			panic("chaos: injected scan-path panic")
		}
	})
	for round := 0; round < 4; round++ {
		// Four feeders interleave the storm, so every lane is creating in
		// (and evicting from) its one-flow table at once.
		var wg sync.WaitGroup
		for f := 0; f < 4; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := f; i < len(storm); i += 4 {
					p := storm[i]
					if err := gw.Ingest(dpi.GatewayPacket{
						Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(f)
		}
		wg.Wait()
		gw.Flush()
		st := gw.Stats()
		requireBalanced(t, st, fmt.Sprintf("round %d after Flush", round))
		if st.Panics == 0 || st.QuarantinedFlows == 0 || st.FlowsEvicted == 0 {
			t.Fatalf("round %d: no panic, quarantine or eviction; soak is vacuous: %+v", round, st)
		}
		if h := gw.Health(); !h.Healthy {
			t.Fatalf("round %d: health after containment: %+v", round, h)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	requireBalanced(t, gw.Stats(), "after Close")
}

// TestChaosSoakSwapStorm lands two hot reloads (Gateway.SwapRules) in the
// middle of a duplicate/reorder storm. Three ruleset generations each get
// their own wave of sequenced flows; a wave's flows all open (their SYNs
// land) before the next swap, then every wave's tail — duplicates and
// displaced segments included — keeps streaming under later generations.
// Each flow's matches must equal FindAll of its full stream against its
// birth generation's matcher (pinning, with the storm still invisible to
// reassembly across the swaps), every generation but the current one must
// retire once its FINs drain, and the ledger must balance. (A sibling of
// TestSwapGenerationOracle that swap_test.go, inside the root package,
// cannot hold: see the import cycle above.)
func TestChaosSoakSwapStorm(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			type wave struct {
				m       *dpi.Matcher
				tuples  []dpi.FiveTuple
				streams [][]byte
				storm   []traffic.FlowPacket
				opening int // storm prefix containing every flow's first packet
			}
			var waves [3]wave
			for wv := range waves {
				// Compiled in wave order, so compile generations ascend.
				rules, err := dpi.GenerateSnortLike(150+40*wv, dpi.SoakSeed(int64(1000*wv)))
				if err != nil {
					t.Fatal(err)
				}
				m, err := dpi.Compile(rules, dpi.Config{})
				if err != nil {
					t.Fatal(err)
				}
				w, err := traffic.GenerateFlows(rules.InternalSet(), traffic.FlowConfig{
					Flows: 10, SegmentsPerFlow: 6, SegmentBytes: 130, Seed: dpi.SoakSeed(int64(401 + 77*wv)),
					CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
					Sequenced: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				storm := chaos.New(dpi.SoakSeed(int64(13+7*wv))).Storm(w.Packets,
					chaos.StormConfig{DupFactor: 1, ReorderSpan: 12})
				// Waves are drawn from independent workload seeds: remap
				// their tuples into per-wave address blocks so they never
				// collide in the table.
				tuples := make([]dpi.FiveTuple, len(w.Tuples))
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

			c := newSoakCollector()
			gw := soakGateway(t, waves[0].m, dpi.GatewayConfig{
				EngineShards: shards, StreamWorkers: 2,
			}, c.emit)
			ingest := func(pkts []traffic.FlowPacket) {
				t.Helper()
				for _, p := range pkts {
					if err := gw.Ingest(dpi.GatewayPacket{
						Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for wv, w := range waves {
				if wv > 0 {
					if err := gw.SwapRules(w.m); err != nil {
						t.Fatalf("swap to generation %d: %v", w.m.Generation(), err)
					}
				}
				ingest(w.storm[:w.opening])
			}
			// Tails: every earlier wave keeps streaming (and FINishing)
			// under the final generation.
			for _, w := range waves {
				ingest(w.storm[w.opening:])
			}
			gw.Flush()
			st := gw.Stats()
			requireBalanced(t, st, "after Flush")
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
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			requireBalanced(t, gw.Stats(), "after Close")
			matched := 0
			for wv, w := range waves {
				for f, tuple := range w.tuples {
					want := w.m.FindAll(w.streams[f])
					got := c.matches(tuple)
					if !sameSoakMatches(got, want) {
						t.Fatalf("wave %d flow %d diverged from its birth-generation oracle\ngot  %+v\nwant %+v",
							wv, f, got, want)
					}
					matched += len(got)
				}
			}
			if matched == 0 {
				t.Fatal("no matches at all; soak is vacuous")
			}
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
	m, set := soakMatcher(t, 200, dpi.BackendAuto)
	w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: 1, SegmentsPerFlow: 4, SegmentBytes: 140, Seed: dpi.SoakSeed(601),
		CrossDensity: 1, AttackDensity: 2, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	var segments, datagrams []dpi.GatewayPacket
	var sq dpi.Sequencer
	for _, p := range w.Packets {
		segments = append(segments, sq.Seq(dpi.GatewayPacket{Tuple: p.Tuple, Payload: p.Payload}))
	}
	wantStream := map[dpi.FiveTuple][]dpi.Match{w.Tuples[0]: m.FindAll(w.Streams[0])}
	wantDgram := map[dpi.FiveTuple][]dpi.Match{}
	for i := 0; i < 4; i++ {
		tup := dpi.FiveTuple{SrcIP: dpi.IPv4(10, 0, 0, 9), DstIP: dpi.IPv4(10, 0, 1, 1),
			SrcPort: uint16(5000 + i), DstPort: 53, Proto: dpi.ProtoUDP}
		payload := append([]byte("query "), set.Patterns[i].Data...)
		datagrams = append(datagrams, dpi.GatewayPacket{Tuple: tup, Payload: payload})
		wantDgram[tup] = m.FindAll(payload)
	}
	for _, tc := range []struct {
		name string
		feed []dpi.GatewayPacket
		want map[dpi.FiveTuple][]dpi.Match
	}{
		{"tcp", segments, wantStream},
		{"udp", datagrams, wantDgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for tup, ms := range tc.want {
				if len(ms) == 0 {
					t.Fatalf("%v carries no match; stall never triggers", tup)
				}
			}
			release := make(chan struct{})
			c := newSoakCollector()
			emit := chaos.StallOnce(c.emit, func(dpi.FlowMatch) bool { return true }, release)
			gw := soakGateway(t, m, dpi.GatewayConfig{
				StreamWorkers: 1, StallThreshold: 30 * time.Millisecond,
			}, emit)
			for _, p := range tc.feed {
				if err := gw.Ingest(p); err != nil {
					t.Fatal(err)
				}
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
			var h dpi.GatewayHealth
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Healthy {
				t.Fatalf("/healthz body during stall: %q (err %v)", rec.Body.String(), err)
			}

			var expo bytes.Buffer
			if _, err := gw.Metrics().WriteTo(&expo); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(expo.String(), "\ndpi_gateway_stalled_lanes 1\n") {
				t.Fatalf("stall not counted in dpi_gateway_stalled_lanes:\n%s", expo.String())
			}

			close(release)
			gw.Flush()
			if h := gw.Health(); !h.Healthy {
				t.Fatalf("still unhealthy after release + Flush: %+v", h)
			}
			rec = httptest.NewRecorder()
			gw.Healthz().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			if rec.Code != 200 {
				t.Fatalf("/healthz after release: %d, want 200", rec.Code)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			for tup, want := range tc.want {
				if got := c.matches(tup); !sameSoakMatches(got, want) {
					t.Fatalf("stall lost matches on %v\ngot  %+v\nwant %+v", tup, got, want)
				}
			}
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
	for _, tc := range []struct{ shards, lanes uint64 }{{1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("shards=%d/lanes=%d", tc.shards, tc.lanes), func(t *testing.T) {
			m, set := soakMatcher(t, 250, dpi.BackendAuto)
			w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
				Flows: 2, SegmentsPerFlow: 200, SegmentBytes: 120, Seed: dpi.SoakSeed(733),
				CrossDensity: 2, AttackDensity: 6, Profile: traffic.Textual,
			})
			if err != nil {
				t.Fatal(err)
			}
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
			c := newSoakCollector()
			emit := chaos.StallOnce(c.emit, func(fm dpi.FlowMatch) bool {
				if fm.Tuple != tupA {
					return false
				}
				stallOnce.Do(func() { close(stalled) })
				return true
			}, release)
			gw := soakGateway(t, m, dpi.GatewayConfig{
				EngineShards: int(tc.shards), StreamWorkers: int(tc.lanes), QueueDepth: 4,
				OverloadPolicy: dpi.ShedPackets, IngestDeadline: -1, GapTimeout: 1,
			}, emit)
			// Move B off A's lane, as admission places them.
			tupB := w.Tuples[1]
			for gw.LaneIndex(tupB) == gw.LaneIndex(tupA) {
				tupB.SrcPort++
			}
			var sq dpi.Sequencer
			// A failing assertion must not leave Close waiting on the wedge.
			var releaseOnce sync.Once
			unwedge := func() { releaseOnce.Do(func() { close(release) }) }
			defer gw.Close()
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
				if admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: tupA, Payload: segs[0][next]})); err != nil || !admitted {
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
				admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: tupA, Payload: segs[0][next]}))
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
				if admitted, err := gw.TryIngest(sq.Seq(dpi.GatewayPacket{Tuple: tupB, Payload: seg})); err != nil || !admitted {
					t.Fatalf("segment %d of B shed behind A's wedged lane (admitted=%v err=%v)", i, admitted, err)
				}
				scanned += uint64(len(seg))
				waitScanned(scanned, nil)
			}
			if got, want := c.matches(tupB), m.FindAll(w.Streams[1]); !sameSoakMatches(got, want) {
				t.Fatalf("flow B behind a wedged neighbour\ngot  %+v\nwant %+v", got, want)
			}
			if h := gw.Health(); len(h.BusyLanes) != 1 {
				t.Fatalf("exactly A's lane should hold work: %+v", h)
			}

			unwedge()
			gw.Flush()
			st := gw.Stats()
			if st.ShedPackets != 1 {
				t.Fatalf("ShedPackets = %d, want A's one shed segment", st.ShedPackets)
			}
			requireBalanced(t, st, "after release + Flush")
			// A's shed segment is the last it was fed: no admitted byte lies
			// behind the hole, so nothing is held or gap-skipped.
			if st.GapSkippedBytes != 0 || st.Ledger().Buffered != 0 {
				t.Fatalf("A's trailing shed hole: %d bytes gap-skipped and %d held, want none",
					st.GapSkippedBytes, st.Ledger().Buffered)
			}
			// A's delivered run is the prefix admitted before its shed.
			if got, want := c.matches(tupA), m.FindAll(w.Streams[0][:deliveredA]); !sameSoakMatches(got, want) {
				t.Fatalf("flow A delivered-run oracle diverged\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}
