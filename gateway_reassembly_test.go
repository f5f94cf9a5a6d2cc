package dpi

// Reassembly + verdict tests for the Gateway: the acceptance property
// (any segment permutation with overlaps/retransmits reassembles to the
// in-order per-flow FindAll oracle, and header-gated rules never fire on
// flows whose 5-tuple fails the rule), the policy-divergence and
// gap-skip edge cases, lifecycle flags, buffer-cap pressure, eviction
// mid-gap under race, and the Flush/Ingest serialization guard.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// fmCollector keeps whole FlowMatches (the plain collector in
// gateway_test.go keeps only the embedded Match), for verdict/rule
// attribution checks.
type fmCollector struct {
	mu      sync.Mutex
	byTuple map[FiveTuple][]FlowMatch
}

func newFMCollector() *fmCollector {
	return &fmCollector{byTuple: map[FiveTuple][]FlowMatch{}}
}

func (c *fmCollector) emit(fm FlowMatch) {
	c.mu.Lock()
	c.byTuple[fm.Tuple] = append(c.byTuple[fm.Tuple], fm)
	c.mu.Unlock()
}

// matches projects the embedded Matches for oracle comparison.
func (c *fmCollector) matches(t FiveTuple) []Match {
	ms := make([]Match, len(c.byTuple[t]))
	for i, fm := range c.byTuple[t] {
		ms[i] = fm.Match
	}
	return ms
}

// TestTrafficFlagValuesAlign pins the bit-for-bit agreement between
// traffic's flag constants and the gateway's TCPFlags: every sequenced
// workload consumer converts with a raw dpi.TCPFlags(p.Flags) cast, which
// compiles regardless of the values — this test is what breaks if either
// side renumbers.
func TestTrafficFlagValuesAlign(t *testing.T) {
	pairs := []struct {
		name    string
		gateway TCPFlags
		traffic byte
	}{
		{"FIN", FlagFIN, traffic.FlagFIN},
		{"SYN", FlagSYN, traffic.FlagSYN},
		{"RST", FlagRST, traffic.FlagRST},
		{"Seq", FlagSeq, traffic.FlagSeq},
	}
	for _, p := range pairs {
		if byte(p.gateway) != p.traffic {
			t.Errorf("%s: dpi bit %#x != traffic bit %#x", p.name, byte(p.gateway), p.traffic)
		}
	}
}

// ingestWorkload feeds a traffic.FlowWorkload through the gateway,
// carrying the sequenced TCP fields when present.
func ingestWorkload(t testing.TB, gw *Gateway, w *traffic.FlowWorkload) {
	t.Helper()
	for _, p := range w.Packets {
		err := gw.Ingest(GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: TCPFlags(p.Flags), Payload: p.Payload,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayReassemblyPermutationProperty is the acceptance property:
// across engine shard counts, reorder windows, retransmit densities and
// both overlap policies, every flow's gateway matches equal the in-order
// FindAll oracle (same (End, PatternID) sequence — retransmissions are
// exact copies, so the policies agree), verdict-gated flows are never
// scanned, and every rule-attributed match points at a rule whose header
// matches the tuple. Running the identical workloads at shards ∈ {1, 2, 4}
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
	m, set := gatewayMatcherBackend(t, 250, backend)
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
	cases := []struct {
		window  int
		retrans float64
		pol     OverlapPolicy
	}{
		{0, 0, FirstWins}, // in-order baseline through the reassembly path
		{2, 0.5, FirstWins},
		{4, 1.5, LastWins},
		{6, 1, FirstWins},
		{3, 2, LastWins},
	}
	for trial, tc := range cases {
		w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
			Flows: flows, SegmentsPerFlow: 7, SegmentBytes: 120, Seed: int64(100 + trial),
			CrossDensity: 1.5, AttackDensity: 1, Profile: traffic.Textual,
			Sequenced: true, ReorderWindow: tc.window, RetransmitDensity: tc.retrans,
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.CrossPlants() == 0 {
			t.Fatal("no cross-packet plants; property is vacuous")
		}
		c := newFMCollector()
		var vmu sync.Mutex
		verdicts := map[FiveTuple]FlowVerdict{}
		gw := testGateway(t, m, GatewayConfig{
			EngineShards:  engineShards,
			StreamWorkers: 3, OverlapPolicy: tc.pol, Rules: rules,
			OnVerdict: func(fv FlowVerdict) {
				vmu.Lock()
				verdicts[fv.Tuple] = fv
				vmu.Unlock()
			},
		}, c.emit)
		ingestWorkload(t, gw, w)
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}

		gated := 0
		for f, tuple := range w.Tuples {
			got := c.byTuple[tuple]
			if tuple.SrcPort >= 1024 && tuple.SrcPort <= 1029 {
				// Drop or pass verdict: the flow must never reach a scanner.
				if len(got) != 0 {
					t.Fatalf("trial %d: verdict-gated flow %d produced %d matches", trial, f, len(got))
				}
				gated++
				continue
			}
			want := m.FindAll(w.Streams[f])
			if !sameMatchSeq(c.matches(tuple), want) {
				t.Fatalf("trial %d (window=%d retrans=%.1f %v): flow %d diverged from oracle: got %d matches, want %d\ngot  %+v\nwant %+v",
					trial, tc.window, tc.retrans, tc.pol, f, len(got), len(want), got, want)
			}
			reported := map[[2]int]bool{}
			for _, mt := range got {
				if mt.RuleID != 3 || mt.Verdict != VerdictAlert {
					t.Fatalf("trial %d flow %d: match attribution %+v, want rule 3 alert", trial, f, mt)
				}
				if !rules[2].Header.Matches(tuple) {
					t.Fatalf("trial %d flow %d: rule fired on tuple %v that fails its header", trial, f, tuple)
				}
				reported[[2]int{mt.PatternID, mt.End}] = true
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
		if st.ReassemblyDrops != 0 || st.GapSkips != 0 {
			t.Errorf("trial %d: lossless workload dropped/skipped: %+v", trial, st)
		}
		if st.EngineShards != engineShards {
			t.Errorf("trial %d: Stats reports %d engine shards, want %d", trial, st.EngineShards, engineShards)
		}
		// Per-shard fan-out accounting: only scanned flows check scanner
		// state out of a shard's pool (gated flows never do), and with
		// several shards the hash must actually spread the flows around.
		var opened uint64
		busyShards := 0
		for _, ss := range gw.ShardStats() {
			opened += ss.FlowsOpened
			if ss.FlowsOpened > 0 {
				busyShards++
			}
		}
		if opened != flows-6 {
			t.Errorf("trial %d: %d flows opened across shards, want %d", trial, opened, flows-6)
		}
		if engineShards > 1 && busyShards < 2 {
			t.Errorf("trial %d: all %d scanned flows landed on one of %d shards", trial, opened, engineShards)
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

// TestGatewayRetransmitConflictPolicies pins the end-to-end consequence of
// the overlap policy when a retransmission carries different bytes: the
// first copy of an undelivered range says "needle", the second says
// garbage — FirstWins alerts, LastWins does not (and vice versa).
func TestGatewayRetransmitConflictPolicies(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	run := func(pol OverlapPolicy, first, second string) []Match {
		c := newCollector()
		gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1, OverlapPolicy: pol}, c.emit)
		ingest := func(seq uint32, payload string, flags TCPFlags) {
			t.Helper()
			if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
				t.Fatal(err)
			}
		}
		ingest(1000, "", FlagSYN) // data base 1001
		// Range [6,12) sent twice with different bytes while [0,6) is
		// still missing, then the hole fills.
		ingest(1007, first, 0)
		ingest(1007, second, 0)
		ingest(1001, "AAAAAA", 0)
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		return c.byTuple[tup]
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
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1, GapTimeout: 2}, c.emit)
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	ingest := func(seq uint32, payload string, flags TCPFlags) {
		t.Helper()
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
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
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	got := c.byTuple[tup]
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

// TestGatewayBufferCapPressure: a flow whose out-of-order buffer exceeds
// MaxFlowBuffer sheds the furthest bytes (accounted as ReassemblyDrops)
// instead of growing without bound, and the shared budget drains to zero
// when the gateway closes.
func TestGatewayBufferCapPressure(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	gw := testGateway(t, m, GatewayConfig{
		StreamWorkers: 1, MaxFlowBuffer: 64, GapTimeout: -1,
	}, c.emit)
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: 0, Flags: FlagSYN | FlagSeq}); err != nil {
		t.Fatal(err)
	}
	// 128 out-of-order bytes against a 64-byte cap, closest-first plants:
	// "needle" sits in the first 64 held bytes and must survive.
	payload := make([]byte, 128)
	copy(payload, "..needle..")
	if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: 1 + 8, Flags: FlagSeq, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	gw.Flush()
	st := gw.Stats()
	if st.ReassemblyDrops != 64 {
		t.Fatalf("ReassemblyDrops = %d, want the 64 bytes over the cap", st.ReassemblyDrops)
	}
	if st.BufferedBytes != 64 {
		t.Fatalf("BufferedBytes = %d, want 64 held", st.BufferedBytes)
	}
	// Fill the hole: the surviving closest bytes (with the plant) scan.
	if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: 1, Flags: FlagSeq, Payload: []byte("12345678")}); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.byTuple[tup]; len(got) != 1 || got[0].End != 16 {
		t.Fatalf("matches = %+v, want the surviving needle ending at 16", got)
	}
	if st := gw.Stats(); st.BufferedBytes != 0 {
		t.Fatalf("budget leaked %d bytes after Close", st.BufferedBytes)
	}
}

// TestGatewayEvictionMidGapRace: flows with permanent holes are churned
// through a tiny flow table from several goroutines; eviction mid-gap must
// release every buffered byte back to the shared budget (run with -race).
func TestGatewayEvictionMidGapRace(t *testing.T) {
	m, set := gatewayMatcher(t, 120)
	w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: 300, SegmentsPerFlow: 4, SegmentBytes: 64, Seed: 33,
		CrossDensity: 0.5, Profile: traffic.Zeroish,
		Sequenced: true, ReorderWindow: 2, RetransmitDensity: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := testGateway(t, m, GatewayConfig{
		MaxFlows: 8, StreamWorkers: 4, GapTimeout: -1,
	}, func(FlowMatch) {})
	var wg sync.WaitGroup
	const ingesters = 2
	for gi := 0; gi < ingesters; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := gi; i < len(w.Packets); i += ingesters {
				p := w.Packets[i]
				if p.Seq == 1 && p.FlowID%3 == 0 && !p.Retransmit {
					continue // permanent hole: these flows stall mid-gap
				}
				err := gw.Ingest(GatewayPacket{
					Tuple: p.Tuple, Seq: p.TCPSeq, Flags: TCPFlags(p.Flags), Payload: p.Payload,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
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
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1}, c.emit)
	tup := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 80, Proto: ProtoTCP}
	ingest := func(seq uint32, payload string, flags TCPFlags) {
		t.Helper()
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	// Half-feed the signature and hold bytes ahead of a gap, then RST: the
	// completion must not match.
	ingest(0, "", FlagSYN)
	ingest(1, "nee", 0)
	ingest(10, "held", 0) // waits on the gap at [4,10)
	gw.Flush()
	if st := gw.Stats(); st.FlowsLive != 1 || st.BufferedBytes != 4 {
		t.Fatalf("before RST: %+v", st)
	}
	ingest(4, "", FlagRST)
	gw.Flush()
	// The reassembler never sees the RST: the table's Remove hands the
	// record to release, which drops its pin and books its held bytes as
	// abandoned.
	st := gw.Stats()
	if st.FlowsReset != 1 || st.FlowsLive != 0 || st.BufferedBytes != 0 || st.AbandonedBytes != 4 || !st.Ledger().Balanced() {
		t.Fatalf("RST teardown: %+v", st)
	}
	gw.auditGenerationPins(t)
	// Same tuple again: a fresh connection completes the pattern cleanly.
	ingest(100, "", FlagSYN)
	ingest(101, "dle", 0) // would complete the pre-RST "nee" if state leaked
	ingest(104, "needle", FlagFIN)
	gw.Flush()
	if got := c.byTuple[tup]; len(got) != 1 || got[0].Start != 3 || got[0].End != 9 {
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
	gw.Flush()
	if after := gw.Stats(); after.Matches != before || after.DuplicateBytes == 0 {
		t.Fatalf("straggler after FIN rescanned: %+v", after)
	}
	// A new SYN reopens the tuple as a clean connection, offsets from 0.
	ingest(500, "", FlagSYN)
	ingest(501, "needle", FlagFIN)
	gw.Flush()
	got := c.byTuple[tup]
	if len(got) != 2 || got[1].Start != 0 || got[1].End != 6 {
		t.Fatalf("SYN reopen matches = %+v, want a second needle at [0,6)", got)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayLifecycleAcrossVerdictsAndReopen: RST tears down a
// verdict-dropped flow too (it must not pin a table slot), and a SYN
// reopening a FIN-closed tuple is a new connection with its own OnVerdict
// event.
func TestGatewayLifecycleAcrossVerdictsAndReopen(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vrules := []VerdictRule{
		{ID: 1, Name: "drop-9", Verdict: VerdictDrop,
			Header: HeaderRule{Proto: ProtoTCP, SrcPorts: PortRange{Lo: 9, Hi: 9}}},
		{ID: 2, Name: "alert-rest", Verdict: VerdictAlert,
			Header: HeaderRule{Proto: ProtoTCP}},
	}
	var vmu sync.Mutex
	var events []FlowVerdict
	gw := testGateway(t, m, GatewayConfig{
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
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: seq, Flags: flags | FlagSeq, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
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
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayVerdictsBatchPath: stateless (UDP) packets are classified per
// packet — drop/pass traffic never reaches the engine, alert matches carry
// the rule attribution, and OnVerdict fires per packet.
func TestGatewayVerdictsBatchPath(t *testing.T) {
	rules := NewRuleset()
	rules.MustAdd("sig", []byte("needle"))
	m, err := Compile(rules, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vrules := []VerdictRule{
		{ID: 7, Name: "drop-dns", Verdict: VerdictDrop,
			Header: HeaderRule{Proto: ProtoUDP, DstPorts: PortRange{Lo: 53, Hi: 53}}},
		{ID: 8, Name: "pass-ntp", Verdict: VerdictPass,
			Header: HeaderRule{Proto: ProtoUDP, DstPorts: PortRange{Lo: 123, Hi: 123}}},
		{ID: 9, Name: "alert-rest", Verdict: VerdictAlert,
			Header: HeaderRule{Proto: ProtoUDP}},
	}
	c := newFMCollector()
	var vmu sync.Mutex
	verdictCount := map[Verdict]int{}
	gw := testGateway(t, m, GatewayConfig{
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
			if err := gw.Ingest(GatewayPacket{Tuple: mk(port, i), Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
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
		if got := c.byTuple[mk(53, i)]; len(got) != 0 {
			t.Fatalf("dropped packet scanned: %+v", got)
		}
		if got := c.byTuple[mk(123, i)]; len(got) != 0 {
			t.Fatalf("passed packet scanned: %+v", got)
		}
		got := c.byTuple[mk(4444, i)]
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
	m, set := gatewayMatcher(t, 80)
	pkts, err := traffic.Generate(set, traffic.Config{Packets: 300, Bytes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gw := testGateway(t, m, GatewayConfig{QueueDepth: 2, StreamWorkers: 1}, func(FlowMatch) {})
	var wg sync.WaitGroup
	const ingesters = 3
	for gi := 0; gi < ingesters; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := gi; i < len(pkts); i += ingesters {
				tup := FiveTuple{SrcIP: uint32(i), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
				if i%3 == 0 {
					tup.Proto = ProtoTCP
				}
				if err := gw.Ingest(GatewayPacket{Tuple: tup, Payload: pkts[i].Payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}(gi)
	}
	// Hammer Flush while the ingesters run: every packet counted before a
	// Flush begins must be scanned by its return (Flush holds out new
	// Ingests while it drains; packets admitted after it releases the lock
	// may be counted-but-unscanned by the time Stats is read, so the
	// assertion is against the pre-flush count).
	for i := 0; i < 50; i++ {
		pre := gw.Stats().Packets
		gw.Flush()
		st := gw.Stats()
		if st.StreamPackets+st.BatchPackets < pre {
			t.Fatalf("Flush returned with %d of the %d pre-flush packets unscanned",
				pre-(st.StreamPackets+st.BatchPackets), pre)
		}
	}
	wg.Wait()
	gw.Flush()
	st := gw.Stats()
	if st.Packets != uint64(len(pkts)) || st.StreamPackets+st.BatchPackets != st.Packets {
		t.Fatalf("final accounting: %+v", st)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReassemblyEquivalence: any segmentation, permutation and duplicate
// schedule of a byte stream must scan identically to the in-order FindAll
// oracle — the fuzz form of the acceptance property. pureFin sends the FIN as
// a segment of its own, with no payload, permuted like the others — so it may
// arrive ahead of every gap.
func FuzzReassemblyEquivalence(f *testing.F) {
	f.Add([]byte("the needle in the haystack, and abc bcd zz"), []byte{5, 16, 3}, uint64(0x9E3779B97F4A7C15), false, false)
	f.Add([]byte("needleneedleneedle"), []byte{1, 2, 3}, uint64(42), true, false)
	f.Add([]byte("zzabczz"), []byte{1}, uint64(0xFFFFFFFF00000001), false, false)
	// The pure FIN arrives first, ahead of the whole stream.
	f.Add([]byte("the needle in the haystack"), []byte{7, 9}, uint64(0x000100000000000A), false, true)
	// ISN 0xFFFFFFF4: the first segment sent, [10,16), straddles 2^32 and is
	// held, and so is [16,20) past the wrap.
	f.Add([]byte("zzneedlezzabczzhaystackzz"), []byte{5, 3}, uint64(0xFFFFFFF400000001), false, false)
	f.Fuzz(func(t *testing.T, stream []byte, cuts []byte, order uint64, lastWins, pureFin bool) {
		if len(stream) == 0 || len(stream) > 2048 {
			t.Skip()
		}
		m := fuzzMatcher(t)
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
		gw := testGateway(t, m, GatewayConfig{
			StreamWorkers: 1, OverlapPolicy: pol, GapTimeout: -1,
		}, c.emit)
		// The SYN announces the base up front, so any data permutation is
		// reassemblable.
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: isn, Flags: FlagSYN | FlagSeq}); err != nil {
			t.Fatal(err)
		}
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
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		want := m.FindAll(stream)
		got := c.byTuple[tup]
		if !sameMatchSeq(got, want) {
			t.Fatalf("%d segs, policy %v: gateway %d matches, oracle %d\ngot  %+v\nwant %+v",
				len(segs), pol, len(got), len(want), got, want)
		}
		if st := gw.Stats(); st.BufferedBytes != 0 || st.FlowsFinished != 1 {
			t.Fatalf("%d bytes buffered after Close, %d connections finished (want 1)", st.BufferedBytes, st.FlowsFinished)
		}
	})
}

var (
	fuzzMatcherOnce sync.Once
	fuzzMatcherVal  *Matcher
	fuzzMatcherErr  error
)

// fuzzMatcher compiles a small overlap-heavy ruleset once for the fuzzer.
func fuzzMatcher(t *testing.T) *Matcher {
	fuzzMatcherOnce.Do(func() {
		rs := NewRuleset()
		for _, p := range []string{"ab", "abc", "bcd", "needle", "eedl", "zz", "haystack"} {
			rs.MustAdd(p, []byte(p))
		}
		fuzzMatcherVal, fuzzMatcherErr = Compile(rs, Config{})
	})
	if fuzzMatcherErr != nil {
		t.Fatal(fuzzMatcherErr)
	}
	return fuzzMatcherVal
}
