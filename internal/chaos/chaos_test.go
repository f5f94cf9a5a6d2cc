package chaos

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	dpi "repro"
	"repro/internal/capture"
	"repro/internal/nids"
	"repro/internal/ruleset"
	"repro/internal/traffic"
)

func stormWorkload(t *testing.T) *traffic.FlowWorkload {
	t.Helper()
	set, err := ruleset.Generate(ruleset.GenConfig{N: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.GenerateFlows(set, traffic.FlowConfig{
		Flows: 8, SegmentsPerFlow: 12, SegmentBytes: 256, Seed: 11,
		CrossDensity: 1, AttackDensity: 1, Sequenced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStormDeterministic: the harness's whole value is reproducibility —
// same seed, same config, byte-identical storm.
func TestStormDeterministic(t *testing.T) {
	w := stormWorkload(t)
	cfg := StormConfig{DupFactor: 1.5, ReorderSpan: 64}
	a := New(42).Storm(w.Packets, cfg)
	b := New(42).Storm(w.Packets, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different storms")
	}
	c := New(43).Storm(w.Packets, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical storms (suspicious)")
	}
}

// TestStormInvariants: every original packet survives exactly once (dups
// are marked), and no packet of a flow precedes its flow's SYN — the two
// properties that keep oracle and conservation assertions computable over
// a storm.
func TestStormInvariants(t *testing.T) {
	w := stormWorkload(t)
	out := New(7).Storm(w.Packets, StormConfig{DupFactor: 2, ReorderSpan: 128})

	var originals, dups int
	seenSYN := map[int]bool{}
	for _, p := range out {
		if p.Flags&dpi.FlagSYN != 0 {
			seenSYN[p.FlowID] = true
		} else if !seenSYN[p.FlowID] {
			t.Fatalf("flow %d packet (seq %d) emitted before its SYN", p.FlowID, p.Seq)
		}
		if p.Retransmit {
			dups++
		} else {
			originals++
		}
	}
	// The generator itself emits no retransmissions here, so originals in
	// the storm must be exactly the input packets.
	if originals != len(w.Packets) {
		t.Fatalf("storm has %d originals, want %d", originals, len(w.Packets))
	}
	if dups == 0 {
		t.Fatal("DupFactor 2 produced no duplicates")
	}
	// Per flow, the multiset of original segments is preserved.
	want := map[int]int{}
	for _, p := range w.Packets {
		want[p.FlowID]++
	}
	got := map[int]int{}
	for _, p := range out {
		if !p.Retransmit {
			got[p.FlowID]++
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-flow original counts drifted: want %v got %v", want, got)
	}
}

// TestMangleNeverPanicsCapture: every mangled pcap variant must be
// digestible by the capture reader/translator — errors and skips are fine,
// a panic is not, and the translator's ledger must account every frame it
// saw (the same invariant FuzzCaptureTranslate fuzzes at the root).
func TestMangleNeverPanicsCapture(t *testing.T) {
	var buf bytes.Buffer
	pw, err := capture.NewWriter(&buf, capture.WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tup := nids.FiveTuple{SrcIP: nids.IPv4(10, 0, 0, 1), DstIP: nids.IPv4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: nids.ProtoTCP}
	frames := [][]byte{
		capture.TCPFrame(tup, 1000, 0x02, nil, capture.FrameOptions{}),
		capture.TCPFrame(tup, 1001, 0x10, []byte("GET / HTTP/1.1\r\n"), capture.FrameOptions{}),
		capture.UDPFrame(tup, []byte("payload"), capture.FrameOptions{}),
		capture.ARPFrame(),
	}
	for i, f := range frames {
		if err := pw.WriteRecord(uint32(i), 0, f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range New(99).Mangle(buf.Bytes(), 64) {
		src, err := capture.NewSource(bytes.NewReader(m))
		if err != nil {
			continue // corrupted file header: rejected cleanly, good
		}
		frames := 0
		for {
			_, err := src.Next()
			if err != nil {
				if err != io.EOF && frames > 10000 {
					t.Fatal("translator failed to terminate on corrupt input")
				}
				break
			}
			frames++
		}
		st := src.Stats()
		sum := st.TCPSegments + st.UDPPackets + st.OtherIP + st.NonIP +
			st.Fragments + st.Short + st.EmptyTCP
		if st.Frames != sum {
			t.Fatalf("translator ledger leaked on mangled input: Frames=%d sum=%d (%+v)", st.Frames, sum, st)
		}
	}
}

// TestMangleDeterministic pins the corpus-reproducibility contract.
func TestMangleDeterministic(t *testing.T) {
	base := bytes.Repeat([]byte{0xd4, 0xc3, 0xb2, 0xa1, 0x55}, 40)
	a := New(3).Mangle(base, 16)
	b := New(3).Mangle(base, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different mangled corpora")
	}
}

// TestPanicOnceFiresExactlyOnce: the trigger detonates on one match only,
// even under concurrent emission, and all other matches pass through.
func TestPanicOnceFiresExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	var forwarded, panics int
	emit := PanicOnce(func(dpi.FlowMatch) {
		mu.Lock()
		forwarded++
		mu.Unlock()
	}, func(dpi.FlowMatch) bool { return true })

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				func() {
					defer func() {
						if recover() != nil {
							mu.Lock()
							panics++
							mu.Unlock()
						}
					}()
					emit(dpi.FlowMatch{})
				}()
			}
		}()
	}
	wg.Wait()
	if panics != 1 {
		t.Fatalf("injected panic fired %d times, want exactly 1", panics)
	}
	if forwarded != 8*100-1 {
		t.Fatalf("forwarded %d matches, want %d", forwarded, 8*100-1)
	}
}

// TestStallOnceReleases: the stalled emission resumes when released and
// nothing is lost.
func TestStallOnceReleases(t *testing.T) {
	release := make(chan struct{})
	got := make(chan dpi.FlowMatch, 2)
	emit := StallOnce(func(m dpi.FlowMatch) { got <- m }, func(dpi.FlowMatch) bool { return true }, release)

	done := make(chan struct{})
	go func() {
		emit(dpi.FlowMatch{RuleID: 1})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stalled emission returned before release")
	default:
	}
	close(release)
	<-done
	emit(dpi.FlowMatch{RuleID: 2})
	if len(got) != 2 {
		t.Fatalf("%d matches forwarded, want 2", len(got))
	}
}
