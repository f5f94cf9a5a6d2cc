package dpi

// The gateway test harness: one of each helper the gateway's tests share.
// A test builds its matcher with testMatcher (compileRules where it needs a
// generation of its own), starts its gateway with testGateway, gathers the
// matches with a collector, feeds packets and workloads with ingestWorkload,
// states what each flow it follows must match with an oracle, and at every
// drained point calls checkpoint, which holds the gateway to its ledgers,
// its generation refcounts and that oracle.

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/traffic"
)

// soakSeedBase is the fault-injection harness's one knob: every soak and
// swap test writes its ruleset, workload and injector seeds as
// soakSeed(constant), so a plain run uses the constants and
// `go test -run 'TestChaosSoak|TestSwap' . -args -soak.seed=N` replays the
// whole harness at another seed.
var soakSeedBase = flag.Int64("soak.seed", 0, "base added to every soak/swap test's ruleset, workload and injector seeds")

// soakSeed returns k offset by -soak.seed.
func soakSeed(k int64) int64 { return *soakSeedBase + k }

// ruleSpec names a test ruleset: GenerateSnortLike(n, seed) when n > 0,
// then one rule per literal pattern, named by its own text (a literal that
// repeats a generated pattern is skipped), compiled on backend.
type ruleSpec struct {
	n       int
	seed    int64
	lit     []string
	backend string
}

// snortLike is the generated form of a ruleSpec.
func snortLike(n int, seed int64, backend string) ruleSpec {
	return ruleSpec{n: n, seed: seed, backend: backend}
}

// literal is the literal form of a ruleSpec, on the default backend.
func literal(patterns ...string) ruleSpec { return ruleSpec{lit: patterns} }

var matcherCache = struct {
	sync.Mutex
	m map[string]*Matcher
}{m: map[string]*Matcher{}}

// testMatcher compiles rs once per test binary and hands every later
// caller the same Matcher. A Matcher is read-only to scans and gateways, so
// tests share it; but it is one generation, so a swap's target, a
// finalizer's subject and a heap measurement's image take compileRules.
func testMatcher(t testing.TB, rs ruleSpec) *Matcher {
	t.Helper()
	key := fmt.Sprintf("%d/%d/%s/%q", rs.n, rs.seed, rs.backend, rs.lit)
	matcherCache.Lock()
	defer matcherCache.Unlock()
	m := matcherCache.m[key]
	if m == nil {
		m = compileRules(t, rs)
		matcherCache.m[key] = m
	}
	return m
}

// compileRules compiles rs afresh: a new generation, newer than every
// matcher compiled before it.
func compileRules(t testing.TB, rs ruleSpec) *Matcher {
	t.Helper()
	rules := NewRuleset()
	if rs.n > 0 {
		var err error
		if rules, err = GenerateSnortLike(rs.n, rs.seed); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range rs.lit {
		if _, err := rules.Add(p, []byte(p)); err != nil && rs.n == 0 {
			t.Fatal(err)
		}
	}
	m, err := Compile(rules, Config{Backend: rs.backend})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testGateway starts a gateway over m with shards engine shards — the one
// place a test sets GatewayConfig.EngineShards — failing t if the
// constructor refuses, and closes it when the test ends.
func testGateway(t testing.TB, m *Matcher, shards int, cfg GatewayConfig, emit func(FlowMatch)) *Gateway {
	t.Helper()
	cfg.EngineShards = shards
	gw, err := NewGateway(m, cfg, emit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// collector gathers every FlowMatch by tuple, in emit order; emit runs on
// the lanes, so it locks.
type collector struct {
	mu      sync.Mutex
	byTuple map[FiveTuple][]FlowMatch
}

func newCollector() *collector {
	return &collector{byTuple: map[FiveTuple][]FlowMatch{}}
}

func (c *collector) emit(fm FlowMatch) {
	c.mu.Lock()
	c.byTuple[fm.Tuple] = append(c.byTuple[fm.Tuple], fm)
	c.mu.Unlock()
}

// matches is what tuple t has matched so far.
func (c *collector) matches(t FiveTuple) []FlowMatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byTuple[t]
}

// sameMatches reports whether got is want: the same patterns at the same
// offsets in the same canonical (End, PatternID) order. PacketID and the
// rule attribution are not compared (the oracle scans whole streams; the
// gateway attributes segments).
func sameMatches(got []FlowMatch, want []Match) bool {
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

// oracle is the per-flow oracle: what each flow a test follows must have
// matched — FindAll over the bytes it delivered, at their offsets in its
// stream — held against what its collector gathered.
type oracle struct {
	c    *collector
	want map[FiveTuple][]Match
}

func newOracle(c *collector) *oracle {
	return &oracle{c: c, want: map[FiveTuple][]Match{}}
}

// deliver follows tup and records that it delivered data at stream offset
// at, scanned by m. A flow's deliveries come in stream order; nil data
// follows a flow that must match nothing.
func (o *oracle) deliver(m *Matcher, tup FiveTuple, data []byte, at int) {
	if o.want[tup] == nil {
		o.want[tup] = []Match{}
	}
	for _, mt := range m.FindAll(data) {
		mt.Start, mt.End = mt.Start+at, mt.End+at
		o.want[tup] = append(o.want[tup], mt)
	}
}

// check fails t unless every followed flow has matched exactly its oracle,
// and returns how many matches that is, for the tests' vacuity guards.
func (o *oracle) check(t testing.TB, when string) (matched int) {
	t.Helper()
	for tup, want := range o.want {
		if got := o.c.matches(tup); !sameMatches(got, want) {
			t.Fatalf("%s: flow %v: %d matches, FindAll over its delivered bytes %d\ngot  %+v\nwant %+v",
				when, tup, len(got), len(want), got, want)
		}
		matched += len(want)
	}
	return matched
}

// flowWorkload generates cfg's flows over m's patterns.
func flowWorkload(t testing.TB, m *Matcher, cfg traffic.FlowConfig) *traffic.FlowWorkload {
	t.Helper()
	w, err := traffic.GenerateFlows(m.rules.set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ingestWorkload feeds pkts through gw: GatewayPackets as they are, a
// generated workload's FlowPackets with each one's TCP sequence number and
// flags carried over. One feeder ingests them in order on the test's own
// goroutine; feeders > 1 split them round-robin over that many goroutines,
// each in order, and it returns once they all have.
func ingestWorkload[P GatewayPacket | traffic.FlowPacket](t testing.TB, gw *Gateway, feeders int, pkts ...P) {
	t.Helper()
	var failed atomic.Bool
	feed := func(f int) {
		for i := f; i < len(pkts); i += feeders {
			var p GatewayPacket
			switch q := any(pkts[i]).(type) {
			case GatewayPacket:
				p = q
			case traffic.FlowPacket:
				p = GatewayPacket{Tuple: q.Tuple, Seq: q.TCPSeq, Flags: q.Flags, Payload: q.Payload}
			}
			if err := gw.Ingest(p); err != nil {
				t.Error(err)
				failed.Store(true)
				return
			}
		}
	}
	if feeders == 1 {
		feed(0)
	} else {
		var wg sync.WaitGroup
		for f := range feeders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				feed(f)
			}()
		}
		wg.Wait()
	}
	if failed.Load() {
		t.FailNow()
	}
}

// checkpoint holds a drained gateway to everything that must hold at a
// drained point: it flushes gw, then requires the gateway's ledger and
// every lane's to balance with Stats the sum of LaneStats
// (requireLaneSums), each lane's class counts and each live generation's
// flow count to equal the records that hold them (auditGenerationPins),
// each lane's flow table to pass its own Audit (index, LRU list, husk
// ring and counts), and, given the test's oracle, every followed flow to have matched
// exactly FindAll over the bytes it delivered; it returns that oracle's
// match count. A drained point is one with no feeder or flusher running:
// a lane that is still being fed reads short of its ledger.
func checkpoint(t testing.TB, gw *Gateway, when string, o ...*oracle) (matched int) {
	t.Helper()
	gw.Flush()
	if l := gw.Stats().Ledger(); !l.Balanced() {
		t.Fatalf("%s: conservation law violated: %+v", when, l)
	}
	requireLaneSums(t, gw, when)
	gw.auditGenerationPins(t)
	gw.eachLane(func(ln *gwLane) {
		if err := ln.table.Audit(); err != nil {
			t.Fatalf("%s: a lane's flow table: %v", when, err)
		}
	})
	for _, o := range o {
		matched += o.check(t, when)
	}
	return matched
}

// closeCheckpoint closes gw, failing t if Close errs, and runs checkpoint on
// the closed gateway: the last drained point every gateway has.
func closeCheckpoint(t testing.TB, gw *Gateway, o ...*oracle) (matched int) {
	t.Helper()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return checkpoint(t, gw, "after Close", o...)
}

// requireLaneSums checks a drained gateway's lanes against its totals: every
// field of Stats but the gateway-wide ones is the sum of that field over
// LaneStats, and each lane's own ledger balances — a bucket charged on
// another lane than the one that took the bytes fails here.
func requireLaneSums(t testing.TB, gw *Gateway, when string) {
	t.Helper()
	st, lanes := gw.Stats(), gw.LaneStats()
	sum := GatewayStats{Packets: st.Packets, Generation: st.Generation, RulesetSwaps: st.RulesetSwaps,
		GenerationsInstalled: st.GenerationsInstalled, GenerationsRetired: st.GenerationsRetired, GenerationsLive: st.GenerationsLive}
	sv := reflect.ValueOf(&sum).Elem()
	for l, ls := range lanes {
		if lg := ls.Ledger(); !lg.Balanced() {
			t.Fatalf("%s: lane %d's ledger does not balance: %+v", when, l, lg)
		}
		lv := reflect.ValueOf(ls)
		for i := range lv.NumField() {
			switch f := sv.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(f.Uint() + lv.Field(i).Uint())
			case reflect.Int:
				f.SetInt(f.Int() + lv.Field(i).Int())
			}
		}
	}
	if sum != st {
		t.Fatalf("%s: Stats is not the sum of its lanes\nStats %+v\nsum   %+v", when, st, sum)
	}
}

// rangeFlows runs fn on every live flow record, lane table by lane table,
// with the pipeline quiesced — the tests' audit of what the lanes hold.
func (g *Gateway) rangeFlows(fn func(FiveTuple, *gwFlow)) {
	g.eachLane(func(ln *gwLane) { ln.table.Range(fn) })
}

// rangePins runs fn on every live flow record with the generation its class
// pins (nil for none), as rangeFlows does: the one way a test reads a pin.
func (g *Gateway) rangePins(fn func(FiveTuple, *gwFlow, *gwGeneration)) {
	g.eachLane(func(ln *gwLane) {
		ln.table.Range(func(k FiveTuple, fl *gwFlow) {
			var gen *gwGeneration
			if fl.class&^notifiedBit != 0 {
				gen = ln.classOf(fl).gen
			}
			fn(k, fl, gen)
		})
	})
}

// auditGenerationPins checks the class and generation refcounts exactly, in
// one quiesced walk of every lane table: each lane's class counts equal the
// records on each class, a class no record is on is cleared, each live
// generation's flows count equals the records pinned to it, and no record is
// pinned to a generation that has left the live list.
func (g *Gateway) auditGenerationPins(t testing.TB) {
	t.Helper()
	g.quiesce()
	defer g.resume()
	pinned := map[*gwGeneration]int64{}
	for i, ln := range g.lanes {
		on := make([]int32, len(ln.classes))
		ln.table.Range(func(k FiveTuple, fl *gwFlow) {
			c := int(fl.class &^ notifiedBit)
			if c == 0 || c > len(ln.classes) {
				t.Errorf("lane %d: flow %v has class %d of %d", i, k, c, len(ln.classes))
				return
			}
			on[c-1]++
			if gen := ln.classes[c-1].gen; gen != nil {
				pinned[gen]++
			}
		})
		for c, cl := range ln.classes {
			if cl.flows != on[c] || cl.flows == 0 && cl != (gwClass{}) {
				t.Errorf("lane %d: class %d %+v counts %d flows, %d records are on it", i, c+1, cl, cl.flows, on[c])
			}
		}
	}
	g.genMu.Lock()
	defer g.genMu.Unlock()
	for _, gen := range g.gens {
		if n := gen.flows.Load(); n != pinned[gen] {
			t.Errorf("generation %d counts %d pinned flows, %d records hold it", gen.id, n, pinned[gen])
		}
		delete(pinned, gen)
	}
	for gen, n := range pinned {
		t.Errorf("%d records pinned to generation %d, which is not live", n, gen.id)
	}
}

// recordingTB is a testing.TB whose failures are recorded, not raised: a
// check run against it reports what it would have failed on and returns.
type recordingTB struct {
	testing.TB
	failures []string
}

func (r *recordingTB) Helper() {}

func (r *recordingTB) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *recordingTB) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// TestCheckpointRefusesCorruption: checkpoint is not vacuous. On a drained
// 2 × 2 gateway holding open flows it reports nothing; with one lane's
// Scanned bucket overwritten, the way TestGatewayCountersSurfacedExactlyOnce
// writes a counter slot, and the current generation's pinned-flow count
// raised by one, it reports both — each by name — and once both are put
// back, nothing again.
func TestCheckpointRefusesCorruption(t *testing.T) {
	m := testMatcher(t, literal("needle"))
	c := newCollector()
	gw := testGateway(t, m, 2, GatewayConfig{StreamWorkers: 2}, c.emit)
	o := newOracle(c)
	for i := range 16 {
		tup, payload := footprintTuple(i), []byte("..needle..")
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: 7, Flags: FlagSeq | FlagSYN}); err != nil {
			t.Fatal(err)
		}
		if err := gw.Ingest(GatewayPacket{Tuple: tup, Seq: 8, Flags: FlagSeq, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		o.deliver(m, tup, payload, 0)
	}
	run := func() []string {
		rec := &recordingTB{TB: t}
		checkpoint(rec, gw, "probe", o)
		return rec.failures
	}
	if got := run(); len(got) != 0 {
		t.Fatalf("a sound gateway fails its checkpoint: %q", got)
	}
	ln, gen := gw.lanes[1], gw.cur.Load()
	if gen.flows.Load() == 0 || ln.n[cScannedBytes].Load() == 0 {
		t.Fatal("lane 1 scanned nothing or the generation pins no flow; the probe is vacuous")
	}
	ln.n[cScannedBytes].Store(ln.n[cScannedBytes].Load() + 5)
	gen.flows.Add(1)
	got := strings.Join(run(), "\n")
	for _, name := range []string{"lane 1's ledger", fmt.Sprintf("generation %d counts", gen.id)} {
		if !strings.Contains(got, name) {
			t.Errorf("the checkpoint does not name %q; it reported:\n%s", name, got)
		}
	}
	ln.n[cScannedBytes].Store(ln.n[cScannedBytes].Load() - 5)
	gen.flows.Add(-1)
	if got := run(); len(got) != 0 {
		t.Fatalf("a repaired gateway fails its checkpoint: %q", got)
	}
}
