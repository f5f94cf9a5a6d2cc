package dpi

// Concurrency and ordering tests for the scan APIs: concurrent Streams over
// one Matcher, and the canonical match-order guarantees shared by FindAll,
// Scan and Stream. Run with -race to exercise the shared-automaton paths.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/traffic"
)

// scanWorkload builds a deterministic attack-laden workload against a
// 500-string ruleset and returns its matcher and payloads.
func scanWorkload(t testing.TB) (*Matcher, [][]byte) {
	t.Helper()
	m := testMatcher(t, snortLike(500, 23, BackendAuto))
	pkts, err := traffic.Generate(m.rules.set, traffic.Config{
		Packets: 24, Bytes: 1200, Seed: 17, AttackDensity: 2, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(pkts))
	for i, p := range pkts {
		payloads[i] = p.Payload
	}
	return m, payloads
}

// unevenChunks cuts p where a stream's writes would cross scanner-state
// boundaries: the chunk at offset off is 1 + (off*mul+salt)%mod bytes.
func unevenChunks(p []byte, mul, salt, mod int) [][]byte {
	var chunks [][]byte
	for off := 0; off < len(p); {
		n := min(1+(off*mul+salt)%mod, len(p)-off)
		chunks, off = append(chunks, p[off:off+n]), off+n
	}
	return chunks
}

// TestEngineConcurrentFlows is the shared-immutable-automaton proof, in the
// paper's sense of "engine" — a register set reading the one state memory:
// one Stream per goroutine, all over one Matcher, each fed in
// uneven chunks and each equal to FindAll of its own payload. Under -race
// any write to the automaton from the scan path fails here.
func TestEngineConcurrentFlows(t *testing.T) {
	m, payloads := scanWorkload(t)
	var wg sync.WaitGroup
	errs := make(chan string, len(payloads))
	for pid, payload := range payloads {
		wg.Add(1)
		go func(pid int, payload []byte) {
			defer wg.Done()
			var got []Match
			f := m.NewStream(func(mt Match) { got = append(got, mt) })
			for _, chunk := range unevenChunks(payload, 7, pid, 97) {
				if _, err := f.Write(chunk); err != nil {
					errs <- err.Error()
					return
				}
			}
			if f.Consumed() != len(payload) {
				errs <- fmt.Sprintf("flow %d consumed %d of %d", pid, f.Consumed(), len(payload))
				return
			}
			if want := m.FindAll(payload); !slices.Equal(got, want) {
				errs <- fmt.Sprintf("flow %d found %d matches, FindAll %d\ngot  %+v\nwant %+v", pid, len(got), len(want), got, want)
			}
		}(pid, payload)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScanStreamOrderEquivalence: FindAll's sequence is canonical — ascending
// End, ties by ascending PatternID, which nothing sorts into place: it is
// the machine's own emission order — and Scan and Stream emit exactly it.
func TestScanStreamOrderEquivalence(t *testing.T) {
	m, payloads := scanWorkload(t)
	for pid, payload := range payloads {
		want := m.FindAll(payload)
		for i := 1; i < len(want); i++ {
			if a, b := want[i-1], want[i]; a.End > b.End || a.End == b.End && a.PatternID >= b.PatternID {
				t.Fatalf("packet %d: FindAll emits %+v before %+v", pid, a, b)
			}
		}

		var scanned []Match
		m.Scan(payload, func(mt Match) { scanned = append(scanned, mt) })
		if !slices.Equal(scanned, want) {
			t.Fatalf("packet %d: Scan emitted %d matches, FindAll %d\ngot  %+v\nwant %+v", pid, len(scanned), len(want), scanned, want)
		}

		var streamed []Match
		s := m.NewStream(func(mt Match) { streamed = append(streamed, mt) })
		for _, chunk := range unevenChunks(payload, 13, pid, 61) {
			s.Write(chunk)
		}
		if !slices.Equal(streamed, want) {
			t.Fatalf("packet %d: Stream emitted %d matches, FindAll %d\ngot  %+v\nwant %+v", pid, len(streamed), len(want), streamed, want)
		}
	}
}

// TestScanAPIEquivalenceProperty is the FindAll-equivalence contract as a
// property over randomized rulesets: for any compiled ruleset and any
// packet batch, per-packet Stream writes must produce the identical match
// multiset in the identical canonical (PacketID, End, PatternID) order as
// the FindAll oracle. The hardware model's leg over the same trials is
// package fpga's TestAcceleratorEquivalenceProperty.
func TestScanAPIEquivalenceProperty(t *testing.T) {
	profiles := []traffic.Profile{traffic.Uniform, traffic.Textual, traffic.Zeroish}
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			seed := int64(1000 + 37*trial)
			m := testMatcher(t, snortLike(80+40*trial, seed, BackendAuto))
			pkts, err := traffic.Generate(m.rules.set, traffic.Config{
				Packets: 10, Bytes: 300 + 50*trial, Seed: seed,
				AttackDensity: 1.5, Profile: profiles[trial%len(profiles)],
			})
			if err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, len(pkts))
			for i, p := range pkts {
				payloads[i] = p.Payload
			}

			// Oracle: FindAll per payload, stamped with the packet index.
			var want []Match
			for pid, p := range payloads {
				for _, mt := range m.FindAll(p) {
					mt.PacketID = pid
					want = append(want, mt)
				}
			}

			// Per-packet Stream writes: one stream, Reset between packets,
			// payload delivered in uneven chunks, matches stamped with the
			// packet index via WritePacket.
			var flowed []Match
			f := m.NewStream(func(mt Match) { flowed = append(flowed, mt) })
			for pid, p := range payloads {
				for _, chunk := range unevenChunks(p, 11, pid+trial, 73) {
					if _, err := f.WritePacket(chunk, pid); err != nil {
						t.Fatal(err)
					}
				}
				f.Reset()
			}
			if !slices.Equal(flowed, want) {
				t.Fatalf("Stream.WritePacket: %d matches, oracle %d\ngot  %+v\nwant %+v", len(flowed), len(want), flowed, want)
			}
		})
	}
}

func TestRulesetLargeAddAndLookup(t *testing.T) {
	// 10k adds with per-add duplicate checks; quadratic scans would make
	// this test conspicuously slow.
	r := NewRuleset()
	for i := 0; i < 10000; i++ {
		r.MustAdd(fmt.Sprintf("r%d", i), []byte(fmt.Sprintf("pattern-%08d", i)))
	}
	if r.Len() != 10000 {
		t.Fatalf("Len = %d", r.Len())
	}
	if _, err := r.Add("dup", []byte("pattern-00004567")); err == nil {
		t.Fatal("duplicate accepted")
	}
	if r.Name(9999) != "r9999" {
		t.Fatalf("Name(9999) = %q", r.Name(9999))
	}
	if !bytes.Equal(r.Content(1234), []byte("pattern-00001234")) {
		t.Fatalf("Content(1234) = %q", r.Content(1234))
	}
}
