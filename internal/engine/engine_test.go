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
