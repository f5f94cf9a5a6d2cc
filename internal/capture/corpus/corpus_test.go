package corpus

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/capture"
	"repro/internal/nids"
	"repro/internal/reassembly"
)

// countAll counts every occurrence of pat in b, overlapping included —
// the same semantics as the engine's FindAll.
func countAll(b, pat []byte) int {
	n := 0
	for off := 0; ; {
		i := bytes.Index(b[off:], pat)
		if i < 0 {
			return n
		}
		n++
		off += i + 1
	}
}

// TestCorpusDeterminism: building a corpus twice yields identical bytes —
// the property the committed files and the drift guard depend on.
func TestCorpusDeterminism(t *testing.T) {
	for _, build := range []func() *Corpus{HTTPMixed, EvasionWrap} {
		a, b := build(), build()
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two builds differ", a.Name)
		}
	}
}

// TestCorpusTruthReassembly replays each corpus through a Translator and
// per-direction reassembly streams — the same machinery the gateway uses —
// and requires the recovered streams, stateless payloads and translator
// accounting to equal the corpus's declared ground truth exactly. This is
// the corpus validating itself bottom-up; the root package's scenario
// tests then validate the full gateway against the same truth.
func TestCorpusTruthReassembly(t *testing.T) {
	for _, c := range All() {
		t.Run(c.Name, func(t *testing.T) {
			src, err := capture.NewSource(bytes.NewReader(c.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			type dir struct {
				asm *reassembly.Stream
				got bytes.Buffer
			}
			flows := map[nids.FiveTuple]*dir{}
			var stateless []PacketTruth
			for {
				pkt, err := src.Next()
				if err != nil {
					break
				}
				if pkt.Flags&capture.FlagSeq == 0 {
					stateless = append(stateless, PacketTruth{Tuple: pkt.Tuple, Payload: pkt.Payload})
					continue
				}
				d := flows[pkt.Tuple]
				if d == nil {
					d = &dir{asm: reassembly.NewStream(reassembly.Config{})}
					flows[pkt.Tuple] = d
				}
				if pkt.Flags&capture.FlagRST != 0 {
					// Tearing the connection down is the flow's owner's
					// business, as in the gateway; the stream only gives
					// back what it holds.
					d.asm.Release()
					continue
				}
				var fl reassembly.Flags
				if pkt.Flags&capture.FlagFIN != 0 {
					fl |= reassembly.FIN
				}
				if pkt.Flags&capture.FlagSYN != 0 {
					fl |= reassembly.SYN
				}
				d.asm.Segment(pkt.Seq, pkt.Payload, fl, 0, func(chunk []byte, skipped int) {
					if skipped != 0 {
						t.Errorf("flow %v: unexpected gap skip of %d bytes", pkt.Tuple, skipped)
					}
					d.got.Write(chunk)
				})
			}

			if len(flows) != len(c.TCPFlows) {
				t.Errorf("reassembled %d TCP directions, truth has %d", len(flows), len(c.TCPFlows))
			}
			for _, truth := range c.TCPFlows {
				d := flows[truth.Tuple]
				if d == nil {
					t.Errorf("flow %v: never seen", truth.Tuple)
					continue
				}
				if !bytes.Equal(d.got.Bytes(), truth.Stream) {
					t.Errorf("flow %v: reassembled %d bytes != truth %d bytes",
						truth.Tuple, d.got.Len(), len(truth.Stream))
				}
			}

			if len(stateless) != len(c.Stateless) {
				t.Fatalf("delivered %d stateless packets, truth has %d", len(stateless), len(c.Stateless))
			}
			for i, truth := range c.Stateless {
				if stateless[i].Tuple != truth.Tuple || !bytes.Equal(stateless[i].Payload, truth.Payload) {
					t.Errorf("stateless packet %d: delivered payload differs from truth", i)
				}
			}

			got, want := src.Stats(), c.Stats
			got.PayloadBytes, want.PayloadBytes = 0, 0 // derivable, not asserted
			if got != want {
				t.Errorf("translator stats:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCorpusOracleCounts pins the per-rule oracle counts for both corpora.
// These are the numbers the CI sensor-smoke job gates on; changing a
// corpus definition must consciously update them here and in ci.yml.
func TestCorpusOracleCounts(t *testing.T) {
	want := map[string]int{
		"http-mixed":   9, // one plant per rule, plus etc-passwd again in the truncated UDP record
		"evasion-wrap": 7,
	}
	for _, c := range All() {
		total := 0
		perRule := map[string]int{}
		for _, r := range Rules() {
			pat := []byte(r.Content)
			n := 0
			for _, f := range c.TCPFlows {
				n += countAll(f.Stream, pat)
			}
			for _, p := range c.Stateless {
				n += countAll(p.Payload, pat)
			}
			perRule[r.Name] = n
			total += n
		}
		if total != want[c.Name] {
			t.Errorf("%s: oracle total %d, want %d (per rule: %v)", c.Name, total, want[c.Name], perRule)
		}
		viaMethod := c.OracleMatches(func(stream []byte) int {
			n := 0
			for _, r := range Rules() {
				n += countAll(stream, []byte(r.Content))
			}
			return n
		})
		if viaMethod != total {
			t.Errorf("%s: OracleMatches %d != recount %d", c.Name, viaMethod, total)
		}
	}
}

// TestCorpusPlantsAreIntentional: every rule matches somewhere across the
// corpora (no dead rules), and the fragment canary's pattern appears in
// the skipped frame but not in any truth stream from that tuple.
func TestCorpusPlantsAreIntentional(t *testing.T) {
	for _, r := range Rules() {
		found := false
		for _, c := range All() {
			if c.OracleMatches(func(s []byte) int { return countAll(s, []byte(r.Content)) }) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("rule %q never matches in any corpus", r.Name)
		}
	}
}

// Example of the expected per-corpus record counts, pinned so that an
// accidental edit to a corpus builder shows up as a diff here before it
// shows up as a binary diff in testdata.
func TestCorpusShape(t *testing.T) {
	for _, c := range All() {
		if len(c.Records) == 0 || len(c.TCPFlows) == 0 {
			t.Fatalf("%s: degenerate corpus", c.Name)
		}
		sum := fmt.Sprintf("%s: %d records, %d flows, %d stateless",
			c.Name, len(c.Records), len(c.TCPFlows), len(c.Stateless))
		want := map[string]string{
			"http-mixed":   "http-mixed: 38 records, 8 flows, 7 stateless",
			"evasion-wrap": "evasion-wrap: 28 records, 5 flows, 0 stateless",
		}[c.Name]
		if sum != want {
			t.Errorf("corpus shape changed:\n got %s\nwant %s", sum, want)
		}
	}
}
