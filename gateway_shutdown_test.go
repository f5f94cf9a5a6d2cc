package dpi

// Shutdown semantics: the teardown guarantees operators lean on. Close is
// idempotent; Flush is re-entrant, cheap when drained, and safe after
// Close; ingestion after Close fails with an error instead of wedging or
// panicking; and a scrape or health probe racing the teardown sees a
// consistent snapshot. Run with -race — the concurrent test is the point.

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/traffic"
)

// TestGatewayShutdownUnderConcurrentLoad drives Ingest, Flush, metrics
// scrapes and health probes from separate goroutines while the gateway is
// closed mid-stream. Nothing may race, deadlock or panic; ingestion
// observes either admission or the closed error, never a third state; and
// the final drained snapshot still balances the byte ledger.
func TestGatewayShutdownUnderConcurrentLoad(t *testing.T) {
	m, set := gatewayMatcher(t, 120)
	w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: 12, SegmentsPerFlow: 8, SegmentBytes: 120, Seed: 77,
		CrossDensity: 1, AttackDensity: 1, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := testGateway(t, m, GatewayConfig{EngineShards: 2, StreamWorkers: 2}, func(FlowMatch) {})

	var wg sync.WaitGroup
	start := make(chan struct{})
	closed := make(chan struct{})

	// Ingesters: feed until the gateway reports closed.
	var sq Sequencer
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			<-start
			for {
				for _, p := range w.Packets {
					if int(p.FlowID)%2 != part {
						continue
					}
					if _, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: p.Tuple, Payload: p.Payload})); err != nil {
						if !strings.Contains(err.Error(), "closed") {
							t.Errorf("unexpected ingest error: %v", err)
						}
						return
					}
				}
			}
		}(i)
	}
	// Flusher: drain barriers must stay safe during and after teardown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for {
			gw.Flush()
			select {
			case <-closed:
				return
			default:
			}
		}
	}()
	// Scraper + prober: observability surfaces racing the teardown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for {
			var buf bytes.Buffer
			if _, err := gw.Metrics().WriteTo(&buf); err != nil {
				t.Errorf("scrape failed: %v", err)
			}
			if h := gw.Health(); h.Panics != 0 {
				t.Errorf("unexpected panics during shutdown test: %+v", h)
			}
			select {
			case <-closed:
				return
			default:
			}
		}
	}()

	close(start)
	// Let the load run briefly, then tear down underneath it.
	for i := 0; i < 50; i++ {
		gw.Flush()
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	wg.Wait()

	st := gw.Stats()
	if l := st.Ledger(); !l.Balanced() {
		t.Fatalf("ledger unbalanced after teardown under load: %+v", l)
	}
	// Late ingestion is an error, not a hang or a panic.
	if admitted, err := gw.TryIngest(sq.Seq(GatewayPacket{Tuple: w.Tuples[0], Payload: []byte("late")})); err == nil || admitted {
		t.Fatalf("TryIngest after Close: admitted=%v err=%v, want refusal with error", admitted, err)
	}
	// Counters are frozen: the refused packet must not be counted.
	if got := gw.Stats(); got.Packets != st.Packets || got.Bytes != st.Bytes {
		t.Fatalf("closed gateway still counting: before %+v after %+v", st, got)
	}
}

// TestGatewayFlushIdempotent pins Flush's re-entrancy contract: back-to-
// back flushes on a drained gateway return immediately, concurrent flushes
// don't interleave with each other destructively, and Flush after Close
// remains legal (it observes an empty pipeline).
func TestGatewayFlushIdempotent(t *testing.T) {
	m, _ := gatewayMatcher(t, 60)
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
	if err := gw.Ingest(GatewayPacket{Tuple: FiveTuple{Proto: ProtoUDP}, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	gw.Flush()
	gw.Flush() // double-Flush: a no-op on a drained pipeline
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); gw.Flush() }()
	}
	wg.Wait()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	gw.Flush() // Flush after Close: still legal, still returns
	if err := gw.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
}

// TestGatewayStageCensus counts the pipeline's goroutines: one per lane —
// EngineShards × StreamWorkers — and nothing else, no stage between admission
// and the lanes and no second kind of scanner, and all of them gone after
// Close, which makes this the standing goroutine-leak check.
func TestGatewayStageCensus(t *testing.T) {
	m, _ := gatewayMatcher(t, 60)
	// settled samples the goroutine count until it holds still (bounded),
	// riding out goroutines — this gateway's after Close, an earlier test's
	// before the baseline — that have signalled completion but not exited.
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			next := runtime.NumGoroutine()
			if next == n {
				break
			}
			n = next
		}
		return n
	}
	base := settled()
	gw := testGateway(t, m, GatewayConfig{EngineShards: 2, StreamWorkers: 3}, func(FlowMatch) {})
	if got := runtime.NumGoroutine() - base; got != 2*3 {
		t.Fatalf("gateway started %d goroutines, want EngineShards × StreamWorkers = 6", got)
	}
	var sq Sequencer
	for _, proto := range []uint8{ProtoTCP, ProtoUDP} {
		if err := gw.Ingest(sq.Seq(GatewayPacket{Tuple: FiveTuple{Proto: proto}, Payload: []byte("x")})); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := settled(); got != base {
		t.Fatalf("%d goroutines after Close, %d before the gateway started", got, base)
	}
}
