package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/ruleset"
)

// buildGrouped compiles n strings the way bench/pipeline.go does: one group,
// the only kind an Engine takes.
func buildGrouped(t testing.TB, n int) *core.Grouped {
	t.Helper()
	set, err := ruleset.Generate(ruleset.GenConfig{N: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.BuildGrouped(set, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func payloadWith(set *ruleset.Set, id int) []byte {
	for _, p := range set.Patterns {
		if p.ID == id {
			return append(append([]byte(".. "), p.Data...), []byte(" ..")...)
		}
	}
	return nil
}

// TestNewRefusesGroupedRuleset: software scans one machine; the group split
// is the hardware model's.
func TestNewRefusesGroupedRuleset(t *testing.T) {
	set, err := ruleset.Generate(ruleset.GenConfig{N: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.BuildGrouped(set, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a two-group ruleset")
		}
	}()
	New(g, 1)
}

// TestScanPacketsPerPacketEqualsFindAll: each result is FindAll's canonical
// order as scanned — the batch path sorts nothing.
func TestScanPacketsPerPacketEqualsFindAll(t *testing.T) {
	g := buildGrouped(t, 300)
	var payloads [][]byte
	for id := 0; id < 40; id++ {
		payloads = append(payloads, payloadWith(g.Sets[0], id))
	}
	e := New(g, 4)
	got := e.ScanPacketsInto(payloads, nil)
	if len(got) != len(payloads) {
		t.Fatalf("got %d results for %d payloads", len(got), len(payloads))
	}
	for i, p := range payloads {
		if want := g.FindAll(p); !slices.Equal(got[i], want) {
			t.Fatalf("packet %d: engine %v, FindAll %v", i, got[i], want)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g := buildGrouped(t, 200)
	var payloads [][]byte
	for id := 0; id < 17; id++ {
		payloads = append(payloads, payloadWith(g.Sets[0], id))
	}
	want := New(g, 1).ScanPacketsInto(payloads, nil)
	for _, workers := range []int{2, 3, 8, 64} {
		got := New(g, workers).ScanPacketsInto(payloads, nil)
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("workers=%d packet %d: %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestFlowPoolReuseIsClean(t *testing.T) {
	g := buildGrouped(t, 100)
	e := New(g, 1)
	target := g.Sets[0].Patterns[0].Data

	// Leave a flow mid-pattern, close it, and ensure nothing of it leaks
	// into the next flow.
	f := e.Flow()
	f.Write(target[:len(target)-1])
	f.Close()

	f2 := e.Flow()
	defer f2.Close()
	if ms := f2.Write(target[len(target)-1:]); len(ms) != 0 {
		t.Fatalf("stale scanner state produced matches: %v", ms)
	}
}

// TestFlowStateReopenInPlace: a state that served one connection is
// re-opened for the next without allocating (it has nothing to allocate),
// starts from clean registers, and is counted as a new connection.
func TestFlowStateReopenInPlace(t *testing.T) {
	g := buildGrouped(t, 120)
	e := New(g, 1)
	target := g.Sets[0].Patterns[0].Data
	var st FlowState
	e.Open(&st)
	e.Write(&st, target[:len(target)-1], nil)
	allocs := testing.AllocsPerRun(10, func() { e.Open(&st) })
	if !raceEnabled && allocs != 0 {
		t.Fatalf("re-open allocated %.1f times", allocs)
	}
	if st.Consumed() != 0 {
		t.Fatalf("re-opened state at %d", st.Consumed())
	}
	if ms := e.Write(&st, target[len(target)-1:], nil); len(ms) != 0 {
		t.Fatalf("match spans a re-open: %v", ms)
	}
	if got := e.Stats().FlowsOpened; got != 12 {
		t.Fatalf("FlowsOpened = %d, want 12 (one per Open)", got)
	}
}

// TestFlowStateCloneIsIndependent: the state is plain data, so the struct
// copy is the clone — taken mid-pattern it completes the match on its own
// whatever the original is fed meanwhile.
func TestFlowStateCloneIsIndependent(t *testing.T) {
	g := buildGrouped(t, 120)
	e := New(g, 1)
	target := g.Sets[0].Patterns[0].Data
	var st FlowState
	e.Open(&st)
	e.Write(&st, target[:len(target)-1], nil)
	cl := st
	e.Write(&st, []byte{0}, nil)
	want := g.FindAll(target)
	if ms := e.Write(&cl, target[len(target)-1:], nil); !slices.Equal(ms, want) {
		t.Fatalf("copy found %v, want %v", ms, want)
	}
}

func TestConcurrentFlowsShareOneAutomaton(t *testing.T) {
	g := buildGrouped(t, 300)
	e := New(g, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := i % 60
			payload := payloadWith(g.Sets[0], id)
			want := g.FindAll(payload)
			f := e.Flow()
			defer f.Close()
			var got []ac.Match
			for off := 0; off < len(payload); off++ {
				got = append(got, f.Write(payload[off:off+1])...)
			}
			if !slices.Equal(got, want) {
				errs <- fmt.Sprintf("flow %d: got %v, want %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestFlowSkipGap: a gap skip invalidates match state across the unseen
// bytes while keeping later match offsets absolute in the stream.
func TestFlowSkipGap(t *testing.T) {
	set := &ruleset.Set{Patterns: []ruleset.Pattern{{ID: 0, Data: []byte("needle"), Name: "needle"}}}
	g, err := core.BuildGrouped(set, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, 1)
	f := e.Flow()
	defer f.Close()
	f.Write([]byte("xxneed")) // half a match, then 10 unseen bytes
	f.SkipGap(10)
	if ms := f.Write([]byte("le")); len(ms) != 0 {
		t.Fatalf("match spans a gap: %+v", ms)
	}
	if f.Consumed() != 18 {
		t.Fatalf("Consumed = %d, want 18", f.Consumed())
	}
	ms := f.Write([]byte("..needle"))
	if len(ms) != 1 || ms[0].End != 26 {
		t.Fatalf("post-gap match = %+v, want End 26 (absolute)", ms)
	}
}

// TestStatsCounters pins the per-engine work accounting a sharded
// front-end reads per replica: batch calls/packets/bytes from
// ScanPacketsInto, flow checkouts and streamed bytes from the Flow API, and
// independence between two engines over the same automaton.
func TestStatsCounters(t *testing.T) {
	g := buildGrouped(t, 100)
	e := New(g, 2)
	other := New(g, 2) // a sibling shard: its counters must stay untouched

	payloads := [][]byte{[]byte("abcd"), []byte("efghij"), nil}
	e.ScanPacketsInto(payloads, nil)
	e.ScanPacketsInto(payloads[:1], nil)

	f := e.Flow()
	f.Write([]byte("hello"))
	f.Write([]byte("wo"))
	f.SkipGap(100) // unseen bytes: not streamed through the scanner
	f.Close()

	st := e.Stats()
	want := Stats{Batches: 2, BatchPkts: 4, BatchBytes: 14, FlowsOpened: 1, StreamBytes: 7}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if o := other.Stats(); o != (Stats{}) {
		t.Fatalf("sibling engine counters moved: %+v", o)
	}
	// An empty batch is a no-op, not a counted batch.
	e.ScanPacketsInto(nil, nil)
	if st := e.Stats(); st.Batches != 2 {
		t.Fatalf("empty batch counted: %+v", st)
	}
}

// TestScanPacketsIntoSteadyStateZeroAlloc locks in the batch scan's
// contract: with a single worker (no goroutine fan-out) and a reused
// results buffer, a match-free burst costs zero allocations per batch.
// (Packets with matches still allocate their exact-size output slices —
// those are the scan's product and may be retained by the caller.)
func TestScanPacketsIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	set := &ruleset.Set{Patterns: []ruleset.Pattern{
		{ID: 0, Data: []byte("needle"), Name: "needle"},
		{ID: 1, Data: []byte("haystack"), Name: "haystack"},
	}}
	g, err := core.BuildGrouped(set, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, 1)
	payloads := make([][]byte, 16)
	for i := range payloads {
		payloads[i] = []byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	results := e.ScanPacketsInto(payloads, nil) // warm-up sizes the buffer
	allocs := testing.AllocsPerRun(20, func() {
		results = e.ScanPacketsInto(payloads, results)
	})
	if allocs != 0 {
		t.Fatalf("ScanPacketsInto allocated %.1f times per batch in steady state", allocs)
	}
	for i, ms := range results {
		if len(ms) != 0 {
			t.Fatalf("packet %d unexpectedly matched: %+v", i, ms)
		}
	}
}
