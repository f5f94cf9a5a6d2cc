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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/capture/corpus"
	"repro/internal/core"
)

// corpusRules is the corpus ruleset on backend.
func corpusRules(backend string) ruleSpec {
	rs := ruleSpec{backend: backend}
	for _, r := range corpus.Rules() {
		rs.lit = append(rs.lit, r.Content)
	}
	return rs
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

// replayCounts replays the pcap files raws, in turn, into one fresh
// gateway over m with shards engine shards and two lanes each, closes it,
// and returns the multiset of matches it emitted and the last replay's
// stats.
func replayCounts(t *testing.T, m *Matcher, shards int, raws ...[]byte) (map[matchKey]int, ReplayStats) {
	t.Helper()
	var mu sync.Mutex
	got := map[matchKey]int{}
	gw := testGateway(t, m, shards, GatewayConfig{StreamWorkers: 2}, func(fm FlowMatch) {
		mu.Lock()
		got[matchKey{fm.Tuple, fm.PatternID, fm.Start, fm.End}]++
		mu.Unlock()
	})
	var rs ReplayStats
	for _, raw := range raws {
		var err error
		if rs, err = gw.ReplayPcap(bytes.NewReader(raw)); err != nil {
			t.Fatalf("shards=%d: replay: %v", shards, err)
		}
	}
	closeCheckpoint(t, gw)
	return got, rs
}

// requireCounts fails t unless got and want are the same multiset of
// matches.
func requireCounts(t *testing.T, label string, got, want map[matchKey]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: match %+v: got %d, oracle %d", label, k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("%s: unexpected match %+v ×%d", label, k, n)
		}
	}
}

// TestPcapScenarioOracle replays each committed corpus through gateways
// with 1, 2 and 4 engine shards and requires the emitted match multiset to
// equal the FindAll oracle over the corpus truth exactly.
func TestPcapScenarioOracle(t *testing.T) {
	for _, c := range corpus.All() {
		m := testMatcher(t, corpusRules(BackendAuto))
		want := oracleCounts(m, c)
		raw, err := os.ReadFile(filepath.Join("testdata", "pcap", c.File))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			got, rs := replayCounts(t, m, shards, raw)
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
			requireCounts(t, fmt.Sprintf("%s/shards=%d", c.Name, shards), got, want)
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
		m := testMatcher(t, corpusRules(backend))
		got, _ := replayCounts(t, m, 2, raw)
		requireCounts(t, backend, got, oracleCounts(m, c))
	}
}

// TestPcapReplayAcrossFileBoundary splits the evasion corpus's records
// into two pcap files — rotated captures of one link — and replays both
// into one gateway. Flows (including the sequence-wraparound flow, whose
// segments and planted pattern straddle the split) must continue across
// the file boundary as if the capture had never rotated.
func TestPcapReplayAcrossFileBoundary(t *testing.T) {
	c := corpus.EvasionWrap()
	m := testMatcher(t, corpusRules(BackendAuto))

	// Split mid-sequence: the corpus interleaves its flows across the whole
	// record list precisely so any midpoint cuts through live flows.
	half := len(c.Records) / 2
	part := func(recs []corpus.Record) []byte {
		sub := &corpus.Corpus{Writer: c.Writer, Records: recs}
		return sub.Bytes()
	}
	got, _ := replayCounts(t, m, 2, part(c.Records[:half]), part(c.Records[half:]))
	requireCounts(t, "two files", got, oracleCounts(m, c))
}

// TestPcapReplayTruncatedFile: a capture cut mid-record reports
// io.ErrUnexpectedEOF together with the partial accounting, rather than
// passing as a short but clean replay.
func TestPcapReplayTruncatedFile(t *testing.T) {
	c := corpus.HTTPMixed()
	raw := c.Bytes()
	m := testMatcher(t, corpusRules(BackendAuto))
	gw := testGateway(t, m, 1, GatewayConfig{StreamWorkers: 1}, func(FlowMatch) {})

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
