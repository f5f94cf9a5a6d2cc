package dpi

// Pcap scenario regression tests: the committed corpora under
// testdata/pcap/ replay through the full sharded gateway and must
// reproduce the per-flow FindAll oracle exactly — every match the truth
// streams contain, at the same stream offsets, attributed to the same
// tuples, and nothing else. The corpora are themselves programs
// (internal/capture/corpus); the drift guard below pins the committed
// bytes to those programs so neither can change without the other.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/capture/corpus"
	"repro/internal/core"
)

// corpusMatcher compiles the corpus ruleset with the given backend.
func corpusMatcher(t *testing.T, backend string) *Matcher {
	t.Helper()
	rs := NewRuleset()
	for _, r := range corpus.Rules() {
		rs.MustAdd(r.Name, []byte(r.Content))
	}
	m, err := Compile(rs, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matchKey identifies one match for multiset comparison. PacketID is
// deliberately excluded: attribution of a match to the packet that
// completed it is covered by the gateway tests; the oracle here is about
// bytes, offsets and patterns.
type matchKey struct {
	tuple      FiveTuple
	pid        int
	start, end int
}

// oracleCounts runs FindAll over a corpus's truth streams and stateless
// payloads, producing the multiset of matches a correct replay must emit.
func oracleCounts(m *Matcher, c *corpus.Corpus) map[matchKey]int {
	want := map[matchKey]int{}
	for _, f := range c.TCPFlows {
		for _, mm := range m.FindAll(f.Stream) {
			want[matchKey{f.Tuple, mm.PatternID, mm.Start, mm.End}]++
		}
	}
	for _, p := range c.Stateless {
		for _, mm := range m.FindAll(p.Payload) {
			want[matchKey{p.Tuple, mm.PatternID, mm.Start, mm.End}]++
		}
	}
	return want
}

// TestCommittedCorporaMatch is the drift guard: the committed pcap bytes
// must equal what the corpus definitions generate. Regenerate with
// `go run ./cmd/pcapgen` after changing a definition.
func TestCommittedCorporaMatch(t *testing.T) {
	for _, c := range corpus.All() {
		path := filepath.Join("testdata", "pcap", c.File)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `go run ./cmd/pcapgen` to generate)", path, err)
		}
		if !bytes.Equal(got, c.Bytes()) {
			t.Errorf("%s: committed bytes differ from the corpus definition; run `go run ./cmd/pcapgen`", path)
		}
	}
}

// TestPcapScenarioOracle replays each committed corpus through gateways
// with 1, 2 and 4 engine shards and requires the emitted match multiset to
// equal the FindAll oracle over the corpus truth exactly.
func TestPcapScenarioOracle(t *testing.T) {
	for _, c := range corpus.All() {
		m := corpusMatcher(t, BackendAuto)
		want := oracleCounts(m, c)
		raw, err := os.ReadFile(filepath.Join("testdata", "pcap", c.File))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			var mu sync.Mutex
			got := map[matchKey]int{}
			gw := testGateway(t, m, GatewayConfig{StreamWorkers: 2, EngineShards: shards}, func(fm FlowMatch) {
				mu.Lock()
				got[matchKey{fm.Tuple, fm.PatternID, fm.Start, fm.End}]++
				mu.Unlock()
			})
			rs, err := gw.ReplayPcap(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("%s/shards=%d: replay: %v", c.Name, shards, err)
			}
			gw.Flush()
			gw.Close()

			if rs.Frames != c.Stats.Frames || rs.TCPSegments != c.Stats.TCPSegments ||
				rs.UDPPackets != c.Stats.UDPPackets || rs.OtherIPPackets != c.Stats.OtherIP ||
				rs.NonIP != c.Stats.NonIP || rs.Fragments != c.Stats.Fragments ||
				rs.PureAcks != c.Stats.EmptyTCP || rs.VLANTags != c.Stats.VLANTags ||
				rs.Truncated != c.Stats.Truncated {
				t.Errorf("%s/shards=%d: replay stats %+v disagree with corpus accounting %+v",
					c.Name, shards, rs, c.Stats)
			}
			if rs.Ingested != rs.TCPSegments+rs.UDPPackets+rs.OtherIPPackets {
				t.Errorf("%s/shards=%d: Ingested %d != delivered sum", c.Name, shards, rs.Ingested)
			}

			for k, n := range want {
				if got[k] != n {
					t.Errorf("%s/shards=%d: match %+v: got %d, oracle %d", c.Name, shards, k, got[k], n)
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("%s/shards=%d: unexpected match %+v ×%d", c.Name, shards, k, n)
				}
			}
		}
	}
}

// TestPcapScenarioOracleAllBackends replays the evasion corpus (the one
// with wraparound and reordering) through every registered backend on a
// sharded gateway — the capture edge must not disturb the byte-exactness
// contract the backends are proven against.
func TestPcapScenarioOracleAllBackends(t *testing.T) {
	c := corpus.EvasionWrap()
	raw, err := os.ReadFile(filepath.Join("testdata", "pcap", c.File))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range core.RegisteredBackends() {
		m := corpusMatcher(t, backend)
		want := oracleCounts(m, c)
		var mu sync.Mutex
		got := map[matchKey]int{}
		gw := testGateway(t, m, GatewayConfig{StreamWorkers: 2, EngineShards: 2}, func(fm FlowMatch) {
			mu.Lock()
			got[matchKey{fm.Tuple, fm.PatternID, fm.Start, fm.End}]++
			mu.Unlock()
		})
		if _, err := gw.ReplayPcap(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: replay: %v", backend, err)
		}
		gw.Flush()
		gw.Close()
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%s: match %+v: got %d, oracle %d", backend, k, got[k], n)
			}
		}
		for k := range got {
			if want[k] == 0 {
				t.Errorf("%s: unexpected match %+v", backend, k)
			}
		}
	}
}

// TestPcapReplayAcrossFileBoundary splits the evasion corpus's records
// into two pcap files — rotated captures of one link — and replays both
// into one gateway. Flows (including the sequence-wraparound flow, whose
// segments and planted pattern straddle the split) must continue across
// the file boundary as if the capture had never rotated.
func TestPcapReplayAcrossFileBoundary(t *testing.T) {
	c := corpus.EvasionWrap()
	m := corpusMatcher(t, BackendAuto)
	want := oracleCounts(m, c)

	// Split mid-sequence: the corpus interleaves its flows across the whole
	// record list precisely so any midpoint cuts through live flows.
	half := len(c.Records) / 2
	part := func(recs []corpus.Record) []byte {
		sub := &corpus.Corpus{Writer: c.Writer, Records: recs}
		return sub.Bytes()
	}
	fileA, fileB := part(c.Records[:half]), part(c.Records[half:])

	var mu sync.Mutex
	got := map[matchKey]int{}
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 2, EngineShards: 2}, func(fm FlowMatch) {
		mu.Lock()
		got[matchKey{fm.Tuple, fm.PatternID, fm.Start, fm.End}]++
		mu.Unlock()
	})
	for _, raw := range [][]byte{fileA, fileB} {
		if _, err := gw.ReplayPcap(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}
	gw.Flush()
	gw.Close()

	for k, n := range want {
		if got[k] != n {
			t.Errorf("match %+v: got %d, oracle %d", k, got[k], n)
		}
	}
	for k := range got {
		if want[k] == 0 {
			t.Errorf("unexpected match %+v", k)
		}
	}
}

// TestPcapReplayTruncatedFile: a capture cut mid-record reports
// io.ErrUnexpectedEOF together with the partial accounting, rather than
// passing as a short but clean replay.
func TestPcapReplayTruncatedFile(t *testing.T) {
	c := corpus.HTTPMixed()
	raw := c.Bytes()
	m := corpusMatcher(t, BackendAuto)
	gw := testGateway(t, m, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})
	defer gw.Close()

	rs, err := gw.ReplayPcap(bytes.NewReader(raw[:len(raw)-7]))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated replay error = %v, want io.ErrUnexpectedEOF", err)
	}
	if rs.Frames != c.Stats.Frames-1 {
		t.Errorf("partial replay read %d frames, want %d", rs.Frames, c.Stats.Frames-1)
	}

	// A non-pcap reader fails at the header, before any ingestion.
	if _, err := gw.ReplayPcap(bytes.NewReader([]byte("not a pcap file at all"))); err == nil {
		t.Error("garbage input did not error")
	}
}
