package dpi

// Reassembly + verdict tests for the Gateway: the acceptance property
// (any segment permutation with overlaps/retransmits reassembles to the
// in-order per-flow FindAll oracle, and header-gated rules never fire on
// flows whose 5-tuple fails the rule), the policy-divergence and
// gap-skip edge cases, lifecycle flags, buffer-cap pressure, eviction
// mid-gap under race, and the Flush/Ingest serialization guard.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TestGatewayReassemblyPermutationProperty is the acceptance property:
// across engine shard counts, reorder windows, retransmit densities and
// both overlap policies, every flow's gateway matches equal the in-order
// FindAll oracle (same (End, PatternID) sequence — retransmissions are
// exact copies, so the policies agree), verdict-gated flows are never
// scanned, and every rule-attributed match points at a rule whose header
// matches the tuple. Two FirstWins cases hold segments of 3·D bytes, D the
// longest pattern, on sparse bytes, so reassembly folds them: one in the
// reorder-retx shape, and one under the default GapTimeout that loses a
// segment of a few flows for good, so the gap skip lands on a folded
// segment — there the oracle is FindAll before the hole, and after it from
// start-of-stream registers. Running the identical workloads at shards ∈ {1, 2, 4}
// is the sharding equivalence proof: the fan-out across engine replicas
// must be invisible in every per-flow result and every global counter — and
// the cross with every registered scan backend proves backend selection is
// equally invisible: the lossy prefilter stage in particular may change how
// bytes are scanned but never what the gateway reports.
func TestGatewayReassemblyPermutationProperty(t *testing.T) {
	for _, backend := range core.RegisteredBackends() {
		for _, engineShards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("backend=%s/shards=%d", backend, engineShards), func(t *testing.T) {
				testGatewayReassemblyPermutation(t, backend, engineShards)
			})
		}
	}
}

func testGatewayReassemblyPermutation(t *testing.T, backend string, engineShards int) {
	m := testMatcher(t, snortLike(250, 77, backend))
	if got := m.Backend(); got != backend {
		t.Fatalf("matcher resolved backend %q, want pinned %q", got, backend)
	}
	rules := []VerdictRule{
		{ID: 1, Name: "drop-block", Verdict: VerdictDrop,
			Header: HeaderRule{Proto: ProtoTCP, SrcPorts: PortRange{Lo: 1024, Hi: 1026}}},
		{ID: 2, Name: "pass-trusted", Verdict: VerdictPass,
			Header: HeaderRule{Proto: ProtoTCP, SrcPorts: PortRange{Lo: 1027, Hi: 1029}}},
		{ID: 3, Name: "alert-web", Verdict: VerdictAlert,
			Header: HeaderRule{Proto: ProtoTCP, DstPorts: PortRange{Lo: 80, Hi: 80}}},
	}
	const flows = 24
	folding := 3 * m.machine.Depth()
	cases := []struct {
		window   int
		retrans  float64
		pol      OverlapPolicy
		segBytes int
		profile  traffic.Profile
		lose     bool // segment 1 of two scanned flows, every copy: a gap the default GapTimeout skips
	}{
		{0, 0, FirstWins, 120, traffic.Textual, false}, // in-order baseline through the reassembly path
		{2, 0.5, FirstWins, 120, traffic.Textual, false},
		{4, 1.5, LastWins, 120, traffic.Textual, false},
		{6, 1, FirstWins, 120, traffic.Textual, false},
		{3, 2, LastWins, 120, traffic.Textual, false},
		{6, 4, FirstWins, folding, traffic.Uniform, false},
		{2, 1, FirstWins, folding, traffic.Uniform, true},
	}
	for trial, tc := range cases {
		w := flowWorkload(t, m, traffic.FlowConfig{
			Flows: flows, SegmentsPerFlow: 7, SegmentBytes: tc.segBytes, Seed: int64(100 + trial),
			CrossDensity: 1.5, AttackDensity: 1, Profile: tc.profile,
			Sequenced: true, ReorderWindow: tc.window, RetransmitDensity: tc.retrans,
		})
		if w.CrossPlants() == 0 {
			t.Fatal("no cross-packet plants; property is vacuous")
		}
		c := newCollector()
		var vmu sync.Mutex
		verdicts := map[FiveTuple]FlowVerdict{}
		gw := testGateway(t, m, engineShards, GatewayConfig{
			StreamWorkers: 3, OverlapPolicy: tc.pol, Rules: rules,
			OnVerdict: func(fv FlowVerdict) {
				vmu.Lock()
				verdicts[fv.Tuple] = fv
				vmu.Unlock()
			},
		}, c.emit)
		lost := map[int][2]int{} // flow → the stream bytes [lo, hi) it never delivers
		if tc.lose {
			var scanned []int
			for f, tuple := range w.Tuples {
				if tuple.SrcPort < 1024 || tuple.SrcPort > 1029 {
					scanned = append(scanned, f)
				}
			}
			lost = loseAndSkip(t, gw, w, tc.segBytes, scanned[0], scanned[len(scanned)/2])
		} else {
			ingestWorkload(t, gw, 1, w.Packets...)
		}
		// A verdict-gated flow (drop or pass) must never reach a scanner;
		// a flow that lost a segment matches FindAll on each side of the
		// hole, the far side at its stream offset.
		o := newOracle(c)
		gated := 0
		for f, tuple := range w.Tuples {
			switch hole, skipped := lost[f]; {
			case tuple.SrcPort >= 1024 && tuple.SrcPort <= 1029:
				o.deliver(m, tuple, nil, 0)
				gated++
			case skipped:
				o.deliver(m, tuple, w.Streams[f][:hole[0]], 0)
				o.deliver(m, tuple, w.Streams[f][hole[1]:], hole[1])
			default:
				o.deliver(m, tuple, w.Streams[f], 0)
			}
		}
		when := fmt.Sprintf("trial %d (window=%d retrans=%.1f %v)", trial, tc.window, tc.retrans, tc.pol)
		checkpoint(t, gw, when+", drained", o)
		closeCheckpoint(t, gw)
		checkpoint(t, gw, when+", after Close", o)

		for f, tuple := range w.Tuples {
			reported := map[[2]int]bool{}
			for _, mt := range c.matches(tuple) {
				if mt.RuleID != 3 || mt.Verdict != VerdictAlert {
					t.Fatalf("trial %d flow %d: match attribution %+v, want rule 3 alert", trial, f, mt)
				}
				if !rules[2].Header.Matches(tuple) {
					t.Fatalf("trial %d flow %d: rule fired on tuple %v that fails its header", trial, f, tuple)
				}
				reported[[2]int{mt.PatternID, mt.End}] = true
			}
			if _, skipped := lost[f]; skipped || tuple.SrcPort >= 1024 && tuple.SrcPort <= 1029 {
				continue
			}
			for _, pl := range w.Planted[f] {
				if !reported[[2]int{int(pl.PatternID), pl.End}] {
					t.Fatalf("trial %d flow %d: planted pattern %d ending at %d (cross=%v) unreported",
						trial, f, pl.PatternID, pl.End, pl.CrossPacket)
				}
			}
		}
		if gated != 6 {
			t.Fatalf("trial %d: %d gated flows, want 6", trial, gated)
		}
		st := gw.Stats()
		if tc.window > 0 && st.OutOfOrderSegs == 0 {
			t.Errorf("trial %d: reorder window %d buffered nothing; test is vacuous", trial, tc.window)
		}
		if tc.retrans > 0 && st.DuplicateBytes == 0 {
			t.Errorf("trial %d: retransmit density %.1f discarded nothing", trial, tc.retrans)
		}
		if st.BufferedBytes != 0 {
			t.Errorf("trial %d: %d bytes still buffered after Close", trial, st.BufferedBytes)
		}
		if st.VerdictDrops != 3 || st.VerdictPasses != 3 || st.VerdictAlerts != flows-6 {
			t.Errorf("trial %d: verdict counters %+v", trial, st)
		}
		if st.FlowsFinished != flows-6 {
			t.Errorf("trial %d: %d flows finished via FIN, want %d", trial, st.FlowsFinished, flows-6)
		}
		skippedBytes := 0
		for _, hole := range lost {
			skippedBytes += hole[1] - hole[0]
		}
		if st.ReassemblyDrops != 0 || st.GapSkips != uint64(len(lost)) || st.GapSkippedBytes != uint64(skippedBytes) {
			t.Errorf("trial %d: %d flows lost %d bytes, and the gateway dropped/skipped: %+v", trial, len(lost), skippedBytes, st)
		}
		// Per-lane fan-out accounting: only scanned flows open on their lane
		// (gated flows never do), and the hash must actually spread the flows
		// over the 3 × shards lanes.
		busyLanes := 0
		for _, ls := range gw.LaneStats() {
			if ls.FlowsOpened > 0 {
				busyLanes++
			}
		}
		if st.FlowsOpened != flows-6 {
			t.Errorf("trial %d: %d flows opened, want %d", trial, st.FlowsOpened, flows-6)
		}
		if busyLanes < 2 {
			t.Errorf("trial %d: all %d scanned flows landed on one of %d lanes", trial, st.FlowsOpened, 3*engineShards)
		}
		vmu.Lock()
		if len(verdicts) != flows {
			t.Errorf("trial %d: %d verdict callbacks, want one per flow", trial, len(verdicts))
		}
		for f, tuple := range w.Tuples {
			fv, ok := verdicts[tuple]
			if !ok {
				t.Fatalf("trial %d: flow %d got no verdict", trial, f)
			}
			want := VerdictAlert
			if tuple.SrcPort <= 1026 {
				want = VerdictDrop
			} else if tuple.SrcPort <= 1029 {
				want = VerdictPass
			}
			if fv.Verdict != want {
				t.Fatalf("trial %d flow %d: verdict %v, want %v", trial, f, fv.Verdict, want)
			}
		}
		vmu.Unlock()
	}
}

// loseAndSkip ingests w but for every copy of segment 1 of each of the
// flows named, so those flows hold what follows it, and checks that they
// hold it folded, in fewer bytes than the stream bytes they stand for. Then
// it retransmits each such flow's last segment until the default GapTimeout
// has passed on every lane: each flow skips its gap, landing on its first
// folded segment, and drains to its FIN. It reports the bytes each flow
// never delivered.
func loseAndSkip(t *testing.T, gw *Gateway, w *traffic.FlowWorkload, segBytes int, flows ...int) map[int][2]int {
	t.Helper()
	lost, last := map[int][2]int{}, map[int]traffic.FlowPacket{}
	for _, f := range flows {
		lost[f] = [2]int{segBytes, 2 * segBytes}
	}
	var kept, resent []traffic.FlowPacket
	for _, p := range w.Packets {
		if _, lose := lost[p.FlowID]; lose && p.Seq == 1 {
			if !bytes.Equal(p.Payload, w.Streams[p.FlowID][segBytes:2*segBytes]) {
				t.Fatalf("flow %d's segment 1 is not stream bytes [%d, %d)", p.FlowID, segBytes, 2*segBytes)
			}
			continue
		}
		if p.Last {
			last[p.FlowID] = p
		}
		kept = append(kept, p)
	}
	ingestWorkload(t, gw, 1, kept...)
	checkpoint(t, gw, "with the lossy flows stalled")
	cost, held := 0, 0
	gw.eachLane(func(ln *gwLane) {
		ln.table.Range(func(_ FiveTuple, fl *gwFlow) {
			cost, held = cost+fl.asm.HeldCost(&ln.asm), held+fl.asm.HeldBytes(&ln.asm)
		})
	})
	if held == 0 || cost >= held {
		t.Fatalf("the stalled flows hold %d stream bytes at a cost of %d: nothing folded", held, cost)
	}
	timeout := GatewayConfig{}.withDefaults().GapTimeout
	for range timeout + 1 {
		for _, f := range flows {
			resent = append(resent, last[f])
		}
	}
	ingestWorkload(t, gw, 1, resent...)
	return lost
}

// TestGatewayRetransmitConflictPolicies pins the end-to-end consequence of
// the overlap policy when a retransmission carries different bytes: the
// first copy of an undelivered range says "needle", the second says
// garbage — FirstWins alerts, LastWins does not (and vice versa).
func TestGatewayRetransmitConflictPolicies(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	run := func(pol OverlapPolicy, first, second string) []FlowMatch {
		c := newCollector()
		gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1, OverlapPolicy: pol}, c.emit)
		ingest := func(seq uint32, payload string, flags TCPFlags) {
			t.Helper()
			ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)})
		}
		ingest(1000, "", FlagSYN) // data base 1001
		// Range [6,12) sent twice with different bytes while [0,6) is
		// still missing, then the hole fills.
		ingest(1007, first, 0)
		ingest(1007, second, 0)
		ingest(1001, "AAAAAA", 0)
		closeCheckpoint(t, gw)
		return c.matches(tup)
	}
	if got := run(FirstWins, "needle", "nXXdle"); len(got) != 1 || got[0].End != 12 {
		t.Fatalf("FirstWins with good first copy: %+v, want one match ending at 12", got)
	}
	if got := run(FirstWins, "nXXdle", "needle"); len(got) != 0 {
		t.Fatalf("FirstWins with bad first copy: %+v, want no match", got)
	}
	if got := run(LastWins, "needle", "nXXdle"); len(got) != 0 {
		t.Fatalf("LastWins with bad last copy: %+v, want no match", got)
	}
	if got := run(LastWins, "nXXdle", "needle"); len(got) != 1 || got[0].End != 12 {
		t.Fatalf("LastWins with good last copy: %+v, want one match ending at 12", got)
	}
}

// TestGatewayGapSkipResumption: a lost segment stalls the flow until the
// gap timeout, then scanning resumes at the first buffered byte with
// absolute offsets — and no match may span the unseen bytes.
func TestGatewayGapSkipResumption(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	c := newCollector()
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1, GapTimeout: 2}, c.emit)
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	ingest := func(seq uint32, payload string, flags TCPFlags) {
		t.Helper()
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)})
	}
	// Stream plan (base 1): [0,4)="xnee" delivered; [4,7) lost forever;
	// [7,11)="dle." buffered. If the skip failed to invalidate scanner
	// state, "xnee"+"dle." would complete a bogus "needle".
	ingest(0, "", FlagSYN)
	ingest(1, "xnee", 0)
	ingest(8, "dle.", 0)
	// Two retransmissions of the buffered segment advance the logical
	// clock past the 2-tick gap timeout without adding bytes.
	ingest(8, "dle.", 0)
	ingest(8, "dle.", 0)
	// Post-skip in-order traffic: the real signature, fully after the gap.
	ingest(12, "..needle", FlagFIN)
	closeCheckpoint(t, gw)
	got := c.matches(tup)
	if len(got) != 1 {
		t.Fatalf("matches = %+v, want exactly the post-gap needle", got)
	}
	// Absolute stream offsets: 4 delivered + 3 skipped + 4 buffered +
	// "..needle" → the match ends at 19.
	if got[0].Start != 13 || got[0].End != 19 {
		t.Fatalf("match offsets %+v, want [13,19) absolute in the true stream", got[0])
	}
	st := gw.Stats()
	if st.GapSkips != 1 || st.GapSkippedBytes != 3 {
		t.Fatalf("gap accounting: %+v", st)
	}
	if st.FlowsFinished != 1 {
		t.Fatalf("flow did not finish after the skip: %+v", st)
	}
}

// TestGatewayBufferCapPressure: a flow whose out-of-order bytes cost more
// than MaxFlowBuffer sheds the furthest of them (accounted as
// ReassemblyDrops) instead of growing without bound, and the lane's budget
// drains to zero when the gateway closes. The 128 held bytes carry "needle"
// near their start. Held whole (LastWins), a cap of a 40 B log header, a
// 5 B run header and 64 bytes keeps the first 64 and the needle. Folded
// (FirstWins), they cost 14 B — the 2-byte prefix before the last byte of
// "..n", a window no pattern contains, one 2 B match, a 1 B tail and the
// registers — and all fit; under a cap too small for that, the fold is cut back to its
// prefix and the rest is shed, the needle with it.
func TestGatewayBufferCapPressure(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	for _, tc := range []struct {
		pol            OverlapPolicy
		capBytes       int
		dropped, held  int
		wantNeedleAt16 bool
	}{
		{LastWins, 40 + 5 + 64, 64, 64, true},
		{FirstWins, 40 + 5 + 64, 0, 128, true},
		{FirstWins, 40 + 4 + 2, 126, 2, false}, // a folded run's header: the form is under 128 B
	} {
		c := newCollector()
		gw := testGateway(t, m, 1, GatewayConfig{
			StreamWorkers: 1, MaxFlowBuffer: tc.capBytes, GapTimeout: -1, OverlapPolicy: tc.pol,
		}, c.emit)
		tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: 0, Flags: FlagSYN | FlagSeq})
		payload := make([]byte, 128)
		copy(payload, "..needle..")
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: 1 + 8, Flags: FlagSeq, Payload: payload})
		gw.Flush()
		if st := gw.Stats(); st.ReassemblyDrops != uint64(tc.dropped) || st.BufferedBytes != tc.held {
			t.Fatalf("%v, cap %d: ReassemblyDrops = %d and BufferedBytes = %d, want %d shed and %d held",
				tc.pol, tc.capBytes, st.ReassemblyDrops, st.BufferedBytes, tc.dropped, tc.held)
		}
		// Fill the hole: what survived scans.
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: 1, Flags: FlagSeq, Payload: []byte("12345678")})
		closeCheckpoint(t, gw)
		got := c.matches(tup)
		if tc.wantNeedleAt16 && (len(got) != 1 || got[0].End != 16) || !tc.wantNeedleAt16 && len(got) != 0 {
			t.Fatalf("%v, cap %d: matches = %+v, want the needle ending at 16: %v", tc.pol, tc.capBytes, got, tc.wantNeedleAt16)
		}
		if st := gw.Stats(); st.BufferedBytes != 0 || !st.Ledger().Balanced() {
			t.Fatalf("%v, cap %d: after Close %+v", tc.pol, tc.capBytes, st)
		}
	}
}

// TestGatewayHeldLogRewritesStayExact: the ways a held log is rewritten
// under a live flow scan exactly as the stream. Under FirstWins, the tail
// of three segments is held folded and, at every cap from the bare log
// header up, the nearer segment's arrival, which touches it, joins it, cuts
// it back to its prefix, drops it or drops the arrival; retransmitting both
// once the head has arrived refills whatever went, and the flow matches
// FindAll over the stream. Some
// cap cuts the tail back to exactly its prefix. Under LastWins, two held
// runs of wrong bytes are overwritten in place by one retransmission that
// spans them both, and the flow matches the retransmitted bytes.
func TestGatewayHeldLogRewritesStayExact(t *testing.T) {
	m := testMatcher(t, literal("needle", "haystack"))
	stream := []byte(strings.Repeat("..needle..haystack..", 10))
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	run := func(pol OverlapPolicy, capBytes int, sends ...[2]int) (*collector, GatewayStats) {
		t.Helper()
		c := newCollector()
		gw := testGateway(t, m, 1, GatewayConfig{
			StreamWorkers: 1, MaxFlowBuffer: capBytes, GapTimeout: -1, OverlapPolicy: pol,
		}, c.emit)
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: 0, Flags: FlagSYN | FlagSeq})
		for _, s := range sends {
			fl := FlagSeq
			if s[1] == len(stream) {
				fl |= FlagFIN
			}
			ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: 1 + uint32(s[0]), Flags: fl, Payload: stream[s[0]:s[1]]})
		}
		closeCheckpoint(t, gw)
		return c, gw.Stats()
	}
	want := m.FindAll(stream)
	tail, _ := m.machine.Fold(nil, stream[80:], nil)
	cutBack := len(stream) - 80 - core.FoldPrefix(tail)
	sawCut := false
	for capBytes := 40; capBytes <= 200; capBytes++ {
		c, st := run(FirstWins, capBytes, [2]int{80, 200}, [2]int{40, 80}, [2]int{0, 40}, [2]int{40, 80}, [2]int{80, 200})
		if got := c.matches(tup); !sameMatches(got, want) || st.FlowsFinished != 1 || st.BufferedBytes != 0 || !st.Ledger().Balanced() {
			t.Fatalf("first-wins, cap %d: %d matches, FindAll %d; %+v", capBytes, len(got), len(want), st)
		}
		sawCut = sawCut || st.ReassemblyDrops == uint64(cutBack)
	}
	if !sawCut {
		t.Fatalf("no cap cut the %d-byte tail back to its prefix", len(stream)-80)
	}

	stale := slices.Clone(stream)
	copy(stale[40:80], strings.Repeat("X", 40))
	c := newCollector()
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1, GapTimeout: -1, OverlapPolicy: LastWins}, c.emit)
	for _, p := range []GatewayPacket{
		{Seq: 0, Flags: FlagSYN},
		{Seq: 1 + 40, Payload: stale[40:60]},
		{Seq: 1 + 60, Payload: stale[60:80]},
		{Seq: 1 + 40, Payload: stream[40:80]}, // spans both held runs
		{Seq: 1, Payload: stream[:40]},
		{Seq: 1 + 80, Payload: stream[80:], Flags: FlagFIN},
	} {
		p.Tuple, p.Flags = tup, p.Flags|FlagSeq
		ingestWorkload(t, gw, 1, p)
	}
	closeCheckpoint(t, gw)
	if got := c.matches(tup); !sameMatches(got, want) {
		t.Fatalf("last-wins across two runs: %d matches, FindAll of the retransmitted stream %d", len(got), len(want))
	}
}

// TestGatewayEvictionMidGapRace: flows with permanent holes are churned
// through a tiny memory budget, 1 KiB a lane — a few connections and their
// held segments — from several goroutines; eviction mid-gap must release
// every buffered byte back to the lane's budget (run with -race).
func TestGatewayEvictionMidGapRace(t *testing.T) {
	m := testMatcher(t, snortLike(120, 77, BackendAuto))
	w := flowWorkload(t, m, traffic.FlowConfig{
		Flows: 300, SegmentsPerFlow: 4, SegmentBytes: 64, Seed: 33,
		CrossDensity: 0.5, Profile: traffic.Zeroish,
		Sequenced: true, ReorderWindow: 2, RetransmitDensity: 0.3,
	})
	gw := testGateway(t, m, 1, GatewayConfig{
		MemoryBudget: 4 << 10, StreamWorkers: 4, GapTimeout: -1,
	}, func(FlowMatch) {})
	// Two ingesters; a permanent hole stalls every third flow mid-gap.
	pkts := slices.DeleteFunc(w.Packets, func(p traffic.FlowPacket) bool {
		return p.Seq == 1 && p.FlowID%3 == 0 && !p.Retransmit
	})
	ingestWorkload(t, gw, 2, pkts...)
	closeCheckpoint(t, gw)
	st := gw.Stats()
	if st.BufferedBytes != 0 {
		t.Fatalf("eviction mid-gap leaked %d buffered bytes", st.BufferedBytes)
	}
	if st.FlowsEvicted == 0 || st.OutOfOrderSegs == 0 {
		t.Fatalf("churn stats too quiet to be meaningful: %+v", st)
	}
	if st.FlowsLive != 0 {
		t.Fatalf("%d flows live after Close", st.FlowsLive)
	}
}

// TestGatewayLifecycleFlags: RST tears the flow out of the table, FIN
// retires scanner state but leaves a husk that absorbs stragglers, and a
// SYN on a closed tuple starts a clean connection.
func TestGatewayLifecycleFlags(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	c := newCollector()
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, c.emit)
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	ingest := func(seq uint32, payload string, flags TCPFlags) {
		t.Helper()
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)})
	}
	// Half-feed the signature and hold bytes ahead of a gap, then RST: the
	// completion must not match.
	ingest(0, "", FlagSYN)
	ingest(1, "nee", 0)
	ingest(10, "held", 0) // waits on the gap at [4,10)
	checkpoint(t, gw, "before RST")
	if st := gw.Stats(); st.FlowsLive != 1 || st.BufferedBytes != 4 {
		t.Fatalf("before RST: %+v", st)
	}
	ingest(4, "", FlagRST)
	checkpoint(t, gw, "after RST")
	// The reassembler never sees the RST: the table's Remove hands the
	// record to release, which drops its pin and books its held bytes as
	// abandoned.
	st := gw.Stats()
	if st.FlowsReset != 1 || st.FlowsLive != 0 || st.BufferedBytes != 0 || st.AbandonedBytes != 4 || !st.Ledger().Balanced() {
		t.Fatalf("RST teardown: %+v", st)
	}
	// Same tuple again: a fresh connection completes the pattern cleanly.
	ingest(100, "", FlagSYN)
	ingest(101, "dle", 0) // would complete the pre-RST "nee" if state leaked
	ingest(104, "needle", FlagFIN)
	checkpoint(t, gw, "after FIN")
	if got := c.matches(tup); len(got) != 1 || got[0].Start != 3 || got[0].End != 9 {
		t.Fatalf("post-RST matches = %+v, want only the intact needle at [3,9)", got)
	}
	st = gw.Stats()
	if st.FlowsFinished != 1 {
		t.Fatalf("FIN not recorded: %+v", st)
	}
	if st.FlowsLive != 1 {
		t.Fatalf("FIN husk missing: %+v", st)
	}
	// Stragglers hit the husk and are discarded, not rescanned.
	before := gw.Stats().Matches
	ingest(104, "needle", FlagFIN)
	checkpoint(t, gw, "after a straggler")
	if after := gw.Stats(); after.Matches != before || after.DuplicateBytes == 0 {
		t.Fatalf("straggler after FIN rescanned: %+v", after)
	}
	// A new SYN reopens the tuple as a clean connection, offsets from 0.
	ingest(500, "", FlagSYN)
	ingest(501, "needle", FlagFIN)
	checkpoint(t, gw, "after the reopened connection")
	got := c.matches(tup)
	if len(got) != 2 || got[1].Start != 0 || got[1].End != 6 {
		t.Fatalf("SYN reopen matches = %+v, want a second needle at [0,6)", got)
	}
	closeCheckpoint(t, gw)
}

// TestGatewayLifecycleAcrossVerdictsAndReopen: RST tears down a
// verdict-dropped flow too (it must not pin a table slot), and a SYN
// reopening a FIN-closed tuple is a new connection with its own OnVerdict
// event.
func TestGatewayLifecycleAcrossVerdictsAndReopen(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	vrules := []VerdictRule{
		{ID: 1, Name: "drop-9", Verdict: VerdictDrop,
			Header: HeaderRule{Proto: ProtoTCP, SrcPorts: PortRange{Lo: 9, Hi: 9}}},
		{ID: 2, Name: "alert-rest", Verdict: VerdictAlert,
			Header: HeaderRule{Proto: ProtoTCP}},
	}
	var vmu sync.Mutex
	var events []FlowVerdict
	gw := testGateway(t, m, 1, GatewayConfig{
		StreamWorkers: 1, Rules: vrules,
		OnVerdict: func(fv FlowVerdict) {
			vmu.Lock()
			events = append(events, fv)
			vmu.Unlock()
		},
	}, func(FlowMatch) {})
	dropped := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 80, Proto: ProtoTCP}
	alerted := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	ingest := func(tup FiveTuple, seq uint32, payload string, flags TCPFlags) {
		t.Helper()
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)})
	}
	// Dropped flow: data then RST — the entry must leave the table.
	ingest(dropped, 0, "", FlagSYN)
	ingest(dropped, 1, "payload", 0)
	gw.Flush()
	if live := gw.Stats().FlowsLive; live != 1 {
		t.Fatalf("FlowsLive = %d with the dropped flow open", live)
	}
	ingest(dropped, 8, "", FlagRST)
	gw.Flush()
	if st := gw.Stats(); st.FlowsLive != 0 || st.FlowsReset != 1 {
		t.Fatalf("RST on a dropped flow did not tear it down: %+v", st)
	}
	// FIN-close a scanned connection, then SYN-reopen the same tuple: two
	// connections, two alert verdict events.
	ingest(alerted, 100, "", FlagSYN)
	ingest(alerted, 101, "abc", FlagFIN)
	ingest(alerted, 500, "", FlagSYN)
	ingest(alerted, 501, "def", FlagFIN)
	gw.Flush()
	vmu.Lock()
	alertEvents := 0
	for _, fv := range events {
		if fv.Tuple == alerted && fv.Verdict == VerdictAlert && fv.RuleID == 2 {
			alertEvents++
		}
	}
	vmu.Unlock()
	if alertEvents != 2 {
		t.Fatalf("SYN reopen produced %d alert verdict events, want one per connection (2)", alertEvents)
	}
	if st := gw.Stats(); st.VerdictAlerts != 2 || st.FlowsFinished != 2 {
		t.Fatalf("reopen accounting: %+v", st)
	}
	closeCheckpoint(t, gw)
}

// TestGatewayVerdictsBatchPath: stateless (UDP) packets are classified per
// packet — drop/pass traffic never reaches the engine, alert matches carry
// the rule attribution, and OnVerdict fires per packet.
func TestGatewayVerdictsBatchPath(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	vrules := []VerdictRule{
		{ID: 7, Name: "drop-dns", Verdict: VerdictDrop,
			Header: HeaderRule{Proto: ProtoUDP, DstPorts: PortRange{Lo: 53, Hi: 53}}},
		{ID: 8, Name: "pass-ntp", Verdict: VerdictPass,
			Header: HeaderRule{Proto: ProtoUDP, DstPorts: PortRange{Lo: 123, Hi: 123}}},
		{ID: 9, Name: "alert-rest", Verdict: VerdictAlert,
			Header: HeaderRule{Proto: ProtoUDP}},
	}
	c := newCollector()
	var vmu sync.Mutex
	verdictCount := map[Verdict]int{}
	gw := testGateway(t, m, 1, GatewayConfig{
		StreamWorkers: 2, Rules: vrules,
		OnVerdict: func(fv FlowVerdict) {
			vmu.Lock()
			verdictCount[fv.Verdict]++
			vmu.Unlock()
		},
	}, c.emit)
	mk := func(port uint16, i int) FiveTuple {
		return FiveTuple{SrcIP: uint32(i), DstIP: 9, SrcPort: 1000, DstPort: port, Proto: ProtoUDP}
	}
	payload := []byte("..needle..")
	const per = 5
	for i := 0; i < per; i++ {
		for _, port := range []uint16{53, 123, 4444} {
			ingestWorkload(t, gw, 1, GatewayPacket{Tuple: mk(port, i), Payload: payload})
		}
	}
	closeCheckpoint(t, gw)
	st := gw.Stats()
	if st.VerdictDrops != per || st.VerdictPasses != per || st.VerdictAlerts != per {
		t.Fatalf("per-packet verdict counters: %+v", st)
	}
	if st.DroppedBytes != uint64(per*len(payload)) {
		t.Fatalf("DroppedBytes = %d", st.DroppedBytes)
	}
	if st.Matches != per {
		t.Fatalf("matches = %d, want one per alert packet", st.Matches)
	}
	for i := 0; i < per; i++ {
		if got := c.matches(mk(53, i)); len(got) != 0 {
			t.Fatalf("dropped packet scanned: %+v", got)
		}
		if got := c.matches(mk(123, i)); len(got) != 0 {
			t.Fatalf("passed packet scanned: %+v", got)
		}
		got := c.matches(mk(4444, i))
		if len(got) != 1 || got[0].RuleID != 9 || got[0].Verdict != VerdictAlert {
			t.Fatalf("alert packet attribution: %+v", got)
		}
	}
	vmu.Lock()
	if verdictCount[VerdictDrop] != per || verdictCount[VerdictPass] != per || verdictCount[VerdictAlert] != per {
		t.Fatalf("OnVerdict counts: %+v", verdictCount)
	}
	vmu.Unlock()
}

// TestGatewayFlushSerializesWithIngest is the guard for the Flush/Ingest
// race: Flush must be a true drain barrier even while other goroutines
// ingest concurrently — no deadlock, no packets counted but unscanned at
// the moment Flush returns once ingestion stops.
func TestGatewayFlushSerializesWithIngest(t *testing.T) {
	m := testMatcher(t, snortLike(80, 77, BackendAuto))
	pkts := mixedTraffic(t, m, traffic.Config{Packets: 300, Bytes: 100, Seed: 5})
	gw := testGateway(t, m, 1, GatewayConfig{QueueDepth: 2, StreamWorkers: 1}, func(FlowMatch) {})
	// Hammer Flush while three ingesters run: every packet counted before a
	// Flush begins must be scanned by its return (Flush holds out new
	// Ingests while it drains; packets admitted after it releases the lock
	// may be counted-but-unscanned by the time Stats is read, so the
	// assertion is against the pre-flush count).
	hammered := make(chan struct{})
	go func() {
		defer close(hammered)
		for i := 0; i < 50; i++ {
			pre := gw.Stats().Packets
			gw.Flush()
			if st := gw.Stats(); st.StreamPackets+st.BatchPackets < pre {
				t.Errorf("Flush returned with %d of the %d pre-flush packets unscanned",
					pre-(st.StreamPackets+st.BatchPackets), pre)
				return
			}
		}
	}()
	ingestWorkload(t, gw, 3, pkts...)
	<-hammered
	gw.Flush()
	st := gw.Stats()
	if st.Packets != uint64(len(pkts)) || st.StreamPackets+st.BatchPackets != st.Packets {
		t.Fatalf("final accounting: %+v", st)
	}
	closeCheckpoint(t, gw)
}

// FuzzReassemblyEquivalence: any segmentation, permutation and duplicate
// schedule of a byte stream must scan identically to the in-order FindAll
// oracle — the fuzz form of the acceptance property. pureFin sends the FIN as
// a segment of its own, with no payload, permuted like the others — so it may
// arrive ahead of every gap. maxFlowBuffer, when not 0, is the flow's cap:
// held bytes it sheds are sent again, every segment in order, once the
// schedule is done, so the stream still scans whole.
func FuzzReassemblyEquivalence(f *testing.F) {
	f.Add([]byte("the needle in the haystack, and abc bcd zz"), []byte{5, 16, 3}, uint64(0x9E3779B97F4A7C15), false, false, uint16(0))
	f.Add([]byte("needleneedleneedle"), []byte{1, 2, 3}, uint64(42), true, false, uint16(0))
	f.Add([]byte("zzabczz"), []byte{1}, uint64(0xFFFFFFFF00000001), false, false, uint16(0))
	// The pure FIN arrives first, ahead of the whole stream.
	f.Add([]byte("the needle in the haystack"), []byte{7, 9}, uint64(0x000100000000000A), false, true, uint16(0))
	// ISN 0xFFFFFFF4: the first segment sent, [10,16), straddles 2^32 and is
	// held, and so is [16,20) past the wrap.
	f.Add([]byte("zzneedlezzabczzhaystackzz"), []byte{5, 3}, uint64(0xFFFFFFF400000001), false, false, uint16(0))
	// Three 40-byte segments: the last is sent first and held folded. Its
	// prefix ends 3 bytes in, after "abh", a window no pattern contains,
	// so the haystack starting at its third byte straddles the fold point:
	// the fold's own scan finds it and stores it, and "ab" is rescanned.
	f.Add([]byte("0123456789012345678901234567890123456789"+
		"xxxxxneedlexxxxxxxxxxxxxxxxxxxxhaystack."+
		"abhaystack...................zz........."), []byte{39}, uint64(0x7FFFFFF000000001), false, false, uint16(0))
	// The same order, with a needle across the held segment's start: its
	// prefix, "le.", is rescanned from the registers the in-order bytes
	// before it left, and ends the needle.
	f.Add([]byte("0123456789012345678901234567890123456789"+
		"....................................nee"+
		"dle.haystack..........................z."), []byte{39}, uint64(0x7FFFFFF000000001), false, false, uint16(0))
	// Five 24-byte segments, the first sent last: the other four are held
	// folded and join as they touch, and three of them open inside a
	// pattern — "tack" of a haystack, "edle" of a needle, "ystack" of
	// another haystack — so each prefix runs through windows that are
	// pattern substrings but no pattern's prefix, and ends after the first
	// window that is neither. Rescanned from the registers of the run it
	// joins, or resumed, each prefix ends the pattern its predecessor began.
	f.Add([]byte("0123456789012345678.hays"+"tack..................ne"+"edle..................ha"+
		"ystack....needle.......z"+"z.........zz............"), []byte{23}, uint64(0x000001000000000E), false, false, uint16(0))
	// The same, with the third segment retransmitted while it is held
	// folded: the first copy wins.
	f.Add([]byte("0123456789012345678.hays"+"tack..................ne"+"edle..................ha"+
		"ystack....needle.......z"+"z.........zz............"), []byte{23}, uint64(0x0000010000000010), false, false, uint16(0))
	// Five 12-byte segments: [12,24) and [48,58) are held, then [24,36)
	// joins [12,24) and [36,48) fills the hole before [48,58) exactly, all
	// of them joining, and "haystack" and "bcd" straddle the seams. [12,24)
	// is retransmitted while it is held.
	f.Add([]byte("the needle and the haystack, zz abc bcd; a haystack needle"), []byte{11}, uint64(0x1b), false, false, uint16(0))
	// The same under LastWins: the retransmission rewrites its run in place.
	f.Add([]byte("the needle and the haystack, zz abc bcd; a haystack needle"), []byte{11}, uint64(0x1b), true, false, uint16(0))
	// [24,36) is held and [12,24) joins it, [0,12) drains the log empty and
	// frees it, then [48,58) opens a new one, which [36,48) drains.
	f.Add([]byte("the needle and the haystack, zz abc bcd; a haystack needle"), []byte{11}, uint64(7), false, false, uint16(0))
	// Five 20-byte segments (the last 19), where patterns straddle every
	// edge. Join on the left: [20,40) is held, then [40,60) joins it.
	joins := []byte("..needle..haystack..needle....haystack..zz..abc.bcd..needle....haystack.needle..zz.abcd..haystack..")
	f.Add(joins, []byte{19}, uint64(0x1e), false, false, uint16(0))
	// Join on the right: [60,80) is held, then [40,60) joins it.
	f.Add(joins, []byte{19}, uint64(1), false, false, uint16(0))
	// An exact three-way fill: [40,60) and [80,99) are held, [20,40) joins
	// the first on the right, and [60,80) fills the hole between the two.
	f.Add(joins, []byte{19}, uint64(0x12), false, false, uint16(0))
	// Under a 70-byte cap the segments arrive last first, each joining the
	// run it precedes, and a joined run is cut back to its prefix to make
	// room for the next.
	f.Add(joins, []byte{19}, uint64(0x10), false, false, uint16(70))
	// Under LastWins and a 70-byte cap, held segments are cut short, a
	// retransmission holds a cut segment's rest as a second whole run, and
	// the next one overwrites both runs in one call.
	f.Add(joins, []byte{19}, uint64(0x278), true, false, uint16(70))
	f.Fuzz(func(t *testing.T, stream []byte, cuts []byte, order uint64, lastWins, pureFin bool, maxFlowBuffer uint16) {
		if len(stream) == 0 || len(stream) > 2048 {
			t.Skip()
		}
		// A small overlap-heavy ruleset.
		m := testMatcher(t, literal("ab", "abc", "bcd", "needle", "eedl", "zz", "haystack"))
		// Segmentation driven by cuts; permutation and duplicates by an
		// LCG seeded from order.
		type span struct{ at, n int }
		var segs []span
		ci := 0
		for at := 0; at < len(stream); {
			n := 1
			if len(cuts) > 0 {
				n = 1 + int(cuts[ci%len(cuts)])%48
				ci++
			}
			if at+n > len(stream) {
				n = len(stream) - at
			}
			segs = append(segs, span{at, n})
			at += n
		}
		if pureFin {
			segs = append(segs, span{len(stream), 0})
		}
		perm := make([]int, len(segs))
		for i := range perm {
			perm[i] = i
		}
		lcg := order | 1
		next := func(n int) int {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return int((lcg >> 33) % uint64(n))
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		pol := FirstWins
		if lastWins {
			pol = LastWins
		}
		isn := uint32(order >> 32) // any base, wraparound included
		tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
		c := newCollector()
		gw := testGateway(t, m, 1, GatewayConfig{
			StreamWorkers: 1, OverlapPolicy: pol, GapTimeout: -1, MaxFlowBuffer: int(maxFlowBuffer),
		}, c.emit)
		// The SYN announces the base up front, so any data permutation is
		// reassemblable.
		ingestWorkload(t, gw, 1, GatewayPacket{Tuple: tup, Seq: isn, Flags: FlagSYN | FlagSeq})
		send := func(s span) {
			fl := FlagSeq
			if s.at+s.n == len(stream) && (s.n == 0) == pureFin {
				fl |= FlagFIN
			}
			err := gw.Ingest(GatewayPacket{
				Tuple: tup, Seq: isn + 1 + uint32(s.at), Flags: fl, Payload: stream[s.at : s.at+s.n],
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, pi := range perm {
			send(segs[pi])
			if next(4) == 0 { // exact-copy retransmission of a random segment
				send(segs[next(len(segs))])
			}
		}
		for i := 0; maxFlowBuffer != 0 && i < len(segs); i++ {
			send(segs[i])
		}
		closeCheckpoint(t, gw)
		want := m.FindAll(stream)
		got := c.matches(tup)
		if !sameMatches(got, want) {
			t.Fatalf("%d segs, policy %v: gateway %d matches, oracle %d\ngot  %+v\nwant %+v",
				len(segs), pol, len(got), len(want), got, want)
		}
		if st := gw.Stats(); st.BufferedBytes != 0 || st.FlowsFinished != 1 {
			t.Fatalf("%d bytes buffered after Close, %d connections finished (want 1)", st.BufferedBytes, st.FlowsFinished)
		}
	})
}
