// Package corpus defines the two committed pcap corpora under
// testdata/pcap/ — not as opaque binary blobs, but as deterministic
// programs that build them. Each corpus carries its own ground truth: the
// exact per-flow reassembled streams and per-packet payloads a correct
// capture→reassembly→scan pipeline must recover from the frames. The
// scenario tests in the root package replay the committed files through the
// full sharded gateway and compare every flow's matches against FindAll
// over these truth streams; a drift-guard test asserts the committed bytes
// equal the regenerated bytes, so the binary files can never silently
// diverge from the truth that validates them.
//
// Corpus one (http-mixed, little-endian/microsecond) is breadth: four
// interleaved bidirectional TCP connections with patterns planted across
// segment boundaries, VLAN-tagged and IPv4-options segments mid-flow, UDP
// with and without patterns, a snap-truncated UDP record, ICMP, ARP, a
// fragment carrying a pattern that must NOT match (a canary proving
// fragments are skipped), and pure ACKs.
//
// Corpus two (evasion-wrap, big-endian/nanosecond) is adversarial depth:
// a flow whose 32-bit sequence space wraps mid-pattern, out-of-order
// delivery with patterns crossing the reordered boundaries, exact-copy
// retransmissions plus a post-FIN straggler, a mid-stream pickup flow with
// no SYN, and a RST after FIN.
package corpus

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/capture"
	"repro/internal/nids"
	"repro/internal/rng"
)

// Rule is one pattern the corpora plant. Rules() is the shared ruleset:
// the sensor, the scenario tests and the -pcap bench all compile exactly
// this list, so the oracle counts they report are comparable.
type Rule struct {
	Name    string
	Content string
}

// Rules returns the fixed pattern set planted by both corpora. Every
// pattern contains at least one byte outside the filler alphabet
// (lowercase letters and spaces), so filler can never complete a match the
// planting code did not intend — but the oracle does not depend on that:
// it is FindAll over the truth streams, whatever they contain.
func Rules() []Rule {
	return []Rule{
		{Name: "web-phf", Content: "GET /cgi-bin/phf"},
		{Name: "etc-passwd", Content: "/etc/passwd"},
		{Name: "cmd-exe", Content: "cmd.exe /c"},
		{Name: "sqli-users", Content: "SELECT * FROM users"},
		{Name: "xss-script", Content: "<script>alert("},
		{Name: "nop-sled", Content: "\x90\x90\x90\x90\x90\x90"},
		{Name: "wget-evil", Content: "wget http://evil."},
		{Name: "ftp-anon", Content: "USER anonymous"},
	}
}

// pattern returns the content of the named rule; planting by name keeps
// the corpus code legible and panics loudly on a typo.
func pattern(name string) string {
	for _, r := range Rules() {
		if r.Name == name {
			return r.Content
		}
	}
	panic("corpus: unknown rule " + name)
}

// Record is one frame scheduled into a corpus pcap, with its capture
// timestamp and (for snap-truncated records) the original wire length.
type Record struct {
	Sec     uint32
	Subsec  uint32
	Data    []byte
	OrigLen int
}

// FlowTruth is the ground truth for one TCP direction: the tuple as the
// gateway keys it and the exact contiguous byte stream reassembly must
// recover. A flow that opened but moved no data has an empty Stream.
type FlowTruth struct {
	Tuple  nids.FiveTuple
	Stream []byte
}

// PacketTruth is the ground truth for one delivered stateless packet
// (UDP or other-IP): the tuple and the exact payload the batch scanner
// must see.
type PacketTruth struct {
	Tuple   nids.FiveTuple
	Payload []byte
}

// Corpus is one committed pcap plus everything needed to validate a replay
// of it: writer parameters, the record sequence, per-flow and per-packet
// ground truth, and the translator accounting the frames must produce.
type Corpus struct {
	Name      string // corpus identifier
	File      string // base name under testdata/pcap/
	Writer    capture.WriterConfig
	Records   []Record
	TCPFlows  []FlowTruth
	Stateless []PacketTruth

	// Stats is the exact TranslateStats a translator must report after the
	// whole corpus, minus PayloadBytes (derivable, not asserted).
	Stats capture.TranslateStats
}

// All returns both corpora, freshly built.
func All() []*Corpus {
	return []*Corpus{HTTPMixed(), EvasionWrap()}
}

// ByFile returns the corpus whose committed file has the given base name,
// or nil.
func ByFile(base string) *Corpus {
	for _, c := range All() {
		if c.File == base {
			return c
		}
	}
	return nil
}

// WritePcap serializes the corpus with its writer configuration. The
// output is byte-for-byte deterministic.
func (c *Corpus) WritePcap(w io.Writer) error {
	pw, err := capture.NewWriter(w, c.Writer)
	if err != nil {
		return err
	}
	for i, r := range c.Records {
		orig := r.OrigLen
		if orig == 0 {
			orig = len(r.Data)
		}
		if err := pw.WriteRecord(r.Sec, r.Subsec, r.Data, orig); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

// Bytes returns the serialized pcap.
func (c *Corpus) Bytes() []byte {
	var buf bytes.Buffer
	if err := c.WritePcap(&buf); err != nil {
		panic("corpus: " + err.Error()) // deterministic in-memory build cannot fail
	}
	return buf.Bytes()
}

// OracleMatches returns the total FindAll match count over all truth
// streams and stateless payloads — the single number the CI sensor-smoke
// job gates on. findAll must count every occurrence of pattern in stream
// (overlapping occurrences included), matching the scan semantics of the
// engine's FindAll.
func (c *Corpus) OracleMatches(findAll func(stream []byte) int) int {
	total := 0
	for _, f := range c.TCPFlows {
		total += findAll(f.Stream)
	}
	for _, p := range c.Stateless {
		total += findAll(p.Payload)
	}
	return total
}

// ---------------------------------------------------------------------------
// Corpus construction machinery.

// build accumulates records with monotonically increasing timestamps and
// keeps the expected translator accounting in lockstep with what it emits.
type build struct {
	c   *Corpus
	sec uint32
	sub uint32
}

func newBuild(name, file string, w capture.WriterConfig) *build {
	return &build{c: &Corpus{Name: name, File: file, Writer: w}, sec: 1_700_000_000}
}

// rec appends one frame, advancing the capture clock.
func (b *build) rec(frame []byte) { b.recOrig(frame, len(frame)) }

func (b *build) recOrig(frame []byte, origLen int) {
	b.c.Records = append(b.c.Records, Record{Sec: b.sec, Subsec: b.sub, Data: frame, OrigLen: origLen})
	b.sub += 997 // deliberately not round: subsec values should look like capture jitter
	if b.sub >= 1_000_000 {
		b.sub -= 1_000_000
		b.sec++
	}
	b.c.Stats.Frames++
}

// filler writes n deterministic bytes of lowercase-and-space text. The
// alphabet excludes every byte that could complete a planted pattern
// (all patterns contain '/', uppercase, punctuation or non-ASCII).
func filler(seed int64, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz      "
	src := rng.New(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[src.Intn(len(alphabet))]
	}
	return out
}

// plant overwrites stream[off:] with the named rule's pattern.
func plant(stream []byte, off int, ruleName string) {
	p := pattern(ruleName)
	if off < 0 || off+len(p) > len(stream) {
		panic("corpus: plant out of range")
	}
	copy(stream[off:], p)
}

// tcpFlow drives one TCP direction: it owns the tuple, the ISN and the
// truth stream, and hands out frames segment by segment so the corpus
// code can interleave flows and reorder deliveries explicitly.
type tcpFlow struct {
	b     *build
	tuple nids.FiveTuple
	isn   uint32
}

func (b *build) flow(srcIP, dstIP uint32, srcPort, dstPort uint16, isn uint32) *tcpFlow {
	return &tcpFlow{
		b: b,
		tuple: nids.FiveTuple{
			SrcIP: srcIP, DstIP: dstIP,
			SrcPort: srcPort, DstPort: dstPort,
			Proto: nids.ProtoTCP,
		},
		isn: isn,
	}
}

// syn emits the SYN segment (consuming one sequence number, per TCP).
func (f *tcpFlow) syn() {
	f.b.rec(capture.TCPFrame(f.tuple, f.isn, capture.FlagSYN, nil, capture.FrameOptions{}))
	f.b.c.Stats.TCPSegments++
}

// seg emits the data segment covering stream[from:to]. fin marks it the
// flow's last. The segment's sequence number is ISN+1+from — raw TCP
// numbering, wrapping naturally in uint32.
func (f *tcpFlow) seg(stream []byte, from, to int, fin bool, opt capture.FrameOptions) {
	var flags nids.TCPFlags
	if fin {
		flags |= capture.FlagFIN
	}
	f.b.rec(capture.TCPFrame(f.tuple, f.isn+1+uint32(from), flags, stream[from:to], opt))
	f.b.c.Stats.TCPSegments++
	if opt.VLAN != 0 {
		f.b.c.Stats.VLANTags++
	}
}

// ack emits a pure ACK — a frame the translator must count and skip.
func (f *tcpFlow) ack(seenUpTo int) {
	f.b.rec(capture.TCPFrame(f.tuple, f.isn+1+uint32(seenUpTo), 0, nil, capture.FrameOptions{}))
	f.b.c.Stats.EmptyTCP++
}

// rst emits a bare RST at the given stream offset.
func (f *tcpFlow) rst(at int) {
	f.b.rec(capture.TCPFrame(f.tuple, f.isn+1+uint32(at), capture.FlagRST, nil, capture.FrameOptions{}))
	f.b.c.Stats.TCPSegments++
}

// truth records the direction's ground-truth stream.
func (f *tcpFlow) truth(stream []byte) {
	f.b.c.TCPFlows = append(f.b.c.TCPFlows, FlowTruth{Tuple: f.tuple, Stream: stream})
}

// udp emits one UDP packet and records its truth.
func (b *build) udp(srcIP, dstIP uint32, srcPort, dstPort uint16, payload []byte) {
	t := nids.FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: nids.ProtoUDP}
	b.rec(capture.UDPFrame(t, payload, capture.FrameOptions{}))
	b.c.Stats.UDPPackets++
	b.c.Stateless = append(b.c.Stateless, PacketTruth{Tuple: t, Payload: payload})
}

// icmp emits one ICMP echo frame (other-IP stateless path).
func (b *build) icmp(srcIP, dstIP uint32, echoType byte, body string) {
	t := nids.FiveTuple{SrcIP: srcIP, DstIP: dstIP, Proto: nids.ProtoICMP}
	transport := append([]byte{echoType, 0, 0, 0, 0, 1, 0, 1}, body...)
	b.rec(capture.IPFrame(t, transport, capture.FrameOptions{}))
	b.c.Stats.OtherIP++
	b.c.Stateless = append(b.c.Stateless, PacketTruth{Tuple: t, Payload: transport})
}

// ip4 packs a dotted quad.
func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// ---------------------------------------------------------------------------
// Corpus one: http-mixed.

// HTTPMixed builds the breadth corpus: four interleaved bidirectional TCP
// connections, UDP, ICMP, ARP, a fragment canary and a snap-truncated
// record, written little-endian with microsecond timestamps.
func HTTPMixed() *Corpus {
	b := newBuild("http-mixed", "http-mixed.pcap", capture.WriterConfig{})

	server := ip4(192, 0, 2, 10)
	server2 := ip4(192, 0, 2, 11)

	// Connection 1: patterns at stream start and crossing a segment cut.
	c1 := b.flow(ip4(10, 0, 0, 1), server, 40001, 80, 1000)
	s1 := b.flow(server, ip4(10, 0, 0, 1), 80, 40001, 5000)
	c1req := filler(101, 360)
	plant(c1req, 0, "web-phf")
	plant(c1req, 145, "etc-passwd") // crosses the cut at 150
	s1resp := filler(102, 400)
	plant(s1resp, 190, "xss-script") // crosses the cut at 200

	// Connection 2: VLAN-tagged middle segment; patterns in-segment and
	// crossing a cut.
	c2 := b.flow(ip4(10, 0, 0, 2), server, 40002, 80, 77777)
	s2 := b.flow(server, ip4(10, 0, 0, 2), 80, 40002, 2_200_000_000)
	c2req := filler(103, 300)
	plant(c2req, 120, "cmd-exe")
	s2resp := filler(104, 250)
	plant(s2resp, 95, "sqli-users") // crosses the cut at 100

	// Connection 3: IPv4 options on the first segment, then tiny segments
	// whose frames get Ethernet-padded — the total-length clamp must strip
	// the padding or the stream is corrupted.
	c3 := b.flow(ip4(10, 0, 0, 3), server2, 40003, 80, 0x7fffffcc)
	s3 := b.flow(server2, ip4(10, 0, 0, 3), 80, 40003, 31337)
	c3req := filler(105, 200)
	plant(c3req, 92, "wget-evil")     // crosses the cut at 100
	recordRoute := []byte{7, 7, 4, 0} // record-route option, padded to 4 bytes

	// Connection 4: a binary pattern (nop sled) amid text.
	c4 := b.flow(ip4(10, 0, 0, 4), ip4(192, 0, 2, 12), 40004, 443, 42)
	s4 := b.flow(ip4(192, 0, 2, 12), ip4(10, 0, 0, 4), 443, 40004, 99)
	c4req := filler(106, 180)
	plant(c4req, 30, "nop-sled")

	// Interleave the four connections the way a capture point would see
	// them: handshakes first, then data segments round-robin with ACKs.
	c1.syn()
	s1.syn()
	c2.syn()
	c1.seg(c1req, 0, 150, false, capture.FrameOptions{})
	s2.syn()
	c3.syn()
	s1.ack(0)
	s1.seg(s1resp, 0, 200, false, capture.FrameOptions{})
	c2.seg(c2req, 0, 100, false, capture.FrameOptions{})
	s3.syn()
	c4.syn()
	c1.seg(c1req, 150, 300, false, capture.FrameOptions{})
	c3.seg(c3req, 0, 100, false, capture.FrameOptions{IPOptions: recordRoute})
	c2.seg(c2req, 100, 200, false, capture.FrameOptions{VLAN: 42})
	s4.syn()
	s2.seg(s2resp, 0, 100, false, capture.FrameOptions{})
	c1.ack(200)
	c4.seg(c4req, 0, 90, false, capture.FrameOptions{})
	c3.seg(c3req, 100, 103, false, capture.FrameOptions{}) // 3-byte segment: padded frame
	s1.seg(s1resp, 200, 400, true, capture.FrameOptions{})
	c2.seg(c2req, 200, 300, true, capture.FrameOptions{})
	c3.seg(c3req, 103, 104, false, capture.FrameOptions{}) // 1-byte segment: padded frame
	s2.seg(s2resp, 100, 250, true, capture.FrameOptions{})
	c1.seg(c1req, 300, 360, true, capture.FrameOptions{})
	c4.seg(c4req, 90, 180, true, capture.FrameOptions{})
	c3.seg(c3req, 104, 200, true, capture.FrameOptions{})
	s3.seg(nil, 0, 0, true, capture.FrameOptions{}) // bare FIN, no server data
	s4.seg(nil, 0, 0, true, capture.FrameOptions{})
	c1.ack(400)

	c1.truth(c1req)
	s1.truth(s1resp)
	c2.truth(c2req)
	s2.truth(s2resp)
	c3.truth(c3req)
	s3.truth(nil)
	c4.truth(c4req)
	s4.truth(nil)

	// UDP: one packet with a planted pattern, one clean, two telemetry
	// heartbeats on a distinct tuple (the sensor's pass-rule target).
	dns := filler(107, 80)
	plant(dns, 40, "ftp-anon")
	b.udp(ip4(10, 0, 0, 9), ip4(192, 0, 2, 53), 5353, 53, dns)
	b.udp(ip4(10, 0, 0, 9), ip4(192, 0, 2, 53), 5353, 53, filler(108, 60))
	b.udp(ip4(10, 0, 0, 8), ip4(192, 0, 2, 99), 9999, 9999, []byte("telemetry heartbeat one"))
	b.udp(ip4(10, 0, 0, 8), ip4(192, 0, 2, 99), 9999, 9999, []byte("telemetry heartbeat two"))

	// A snap-truncated UDP record: 300 payload bytes on the wire, captured
	// frame cut at 120 bytes. The translator must deliver exactly the
	// captured payload prefix (120 - 14 eth - 20 ip - 8 udp = 78 bytes) and
	// count the record as Truncated.
	bigUDP := filler(109, 300)
	plant(bigUDP, 10, "etc-passwd")
	truncTuple := nids.FiveTuple{SrcIP: ip4(10, 0, 0, 7), DstIP: ip4(192, 0, 2, 53), SrcPort: 4000, DstPort: 53, Proto: nids.ProtoUDP}
	full := capture.UDPFrame(truncTuple, bigUDP, capture.FrameOptions{})
	b.recOrig(full[:120], len(full))
	b.c.Stats.UDPPackets++
	b.c.Stats.Truncated++
	b.c.Stateless = append(b.c.Stateless, PacketTruth{Tuple: truncTuple, Payload: bigUDP[:78]})

	// ICMP echo pair: pattern-free, scanned on the stateless path.
	b.icmp(ip4(10, 0, 0, 5), server, 8, "icmp echo request body")
	b.icmp(server, ip4(10, 0, 0, 5), 0, "icmp echo reply body")

	// ARP: non-IP, counted and skipped.
	b.rec(capture.ARPFrame())
	b.c.Stats.NonIP++

	// Fragment canary: an IPv4 fragment whose payload contains a pattern.
	// The translator must skip it; if it ever leaked through, the oracle
	// comparison would fail with one extra match.
	fragPayload := append([]byte("fragment canary "), pattern("etc-passwd")...)
	fragTuple := nids.FiveTuple{SrcIP: ip4(10, 0, 0, 6), DstIP: server, SrcPort: 1234, DstPort: 80, Proto: nids.ProtoTCP}
	b.rec(capture.TCPFrame(fragTuple, 7777, 0, fragPayload, capture.FrameOptions{FragField: 0x2000}))
	b.c.Stats.Fragments++

	return b.c
}

// ---------------------------------------------------------------------------
// Corpus two: evasion-wrap.

// EvasionWrap builds the adversarial corpus: sequence wraparound
// mid-pattern, out-of-order delivery, exact-copy retransmissions with a
// post-FIN straggler, mid-stream pickup without a SYN, and RST after FIN —
// written big-endian with nanosecond timestamps. The flows are interleaved
// across the whole record sequence so that splitting the records at any
// midpoint (the cross-file rotation test) cuts through live flows.
func EvasionWrap() *Corpus {
	b := newBuild("evasion-wrap", "evasion-wrap.pcap", capture.WriterConfig{BigEndian: true, Nano: true})

	srv := ip4(198, 51, 100, 5)
	srv2 := ip4(198, 51, 100, 6)

	// flowW: ISN 2^32-129, so the data sequence space wraps after 128
	// bytes — inside the pattern planted at offset 115.
	fw := b.flow(ip4(10, 1, 0, 1), srv, 50001, 80, 0xFFFFFF7F)
	wStream := filler(201, 600)
	plant(wStream, 0, "web-phf")
	plant(wStream, 115, "sqli-users") // bytes 115..133 straddle the wrap at 128

	// flowO: segments delivered out of order, patterns crossing the
	// reordered cut points.
	fo := b.flow(ip4(10, 1, 0, 2), srv, 50002, 80, 3_000_000_000)
	oStream := filler(202, 500)
	plant(oStream, 195, "etc-passwd") // crosses the cut at 200
	plant(oStream, 394, "cmd-exe")    // crosses the cut at 400

	// flowR: exact-copy retransmissions (policy-independent by
	// construction) and a straggler retransmit after the FIN.
	fr := b.flow(ip4(10, 1, 0, 3), srv, 50003, 80, 123456)
	rStream := filler(203, 400)
	plant(rStream, 95, "xss-script") // crosses the cut at 100

	// flowM: mid-stream pickup — no SYN ever captured; the first observed
	// segment establishes the stream base, exactly as a sensor joining a
	// long-lived connection.
	fm := b.flow(ip4(10, 1, 0, 4), srv2, 50004, 80, 555_000_000-1)
	mStream := filler(204, 300)
	plant(mStream, 142, "wget-evil") // crosses the cut at 150

	// flowT: clean flow, FIN, then RST against the finished flow.
	ft := b.flow(ip4(10, 1, 0, 5), srv, 50005, 80, 888888)
	tStream := filler(205, 200)
	plant(tStream, 50, "ftp-anon")

	// Interleave everything; flowW spans the entire sequence so any file
	// split cuts it.
	fw.syn()
	fo.syn()
	fw.seg(wStream, 0, 100, false, capture.FrameOptions{})
	fr.syn()
	fo.seg(oStream, 200, 300, false, capture.FrameOptions{}) // out of order: 3rd segment first
	fw.seg(wStream, 100, 200, false, capture.FrameOptions{}) // wrap happens inside this segment
	fm.seg(mStream, 0, 150, false, capture.FrameOptions{})   // mid-stream pickup, no SYN
	fo.seg(oStream, 0, 100, false, capture.FrameOptions{})
	ft.syn()
	fr.seg(rStream, 0, 100, false, capture.FrameOptions{})
	fw.seg(wStream, 200, 300, false, capture.FrameOptions{})
	fo.seg(oStream, 100, 200, false, capture.FrameOptions{})
	fr.seg(rStream, 100, 200, false, capture.FrameOptions{})
	ft.seg(tStream, 0, 100, false, capture.FrameOptions{})
	fr.seg(rStream, 100, 200, false, capture.FrameOptions{}) // exact-copy retransmit
	fw.seg(wStream, 300, 400, false, capture.FrameOptions{})
	fo.seg(oStream, 400, 500, true, capture.FrameOptions{}) // FIN delivered before segment 4
	fm.seg(mStream, 150, 300, false, capture.FrameOptions{})
	fr.seg(rStream, 200, 300, false, capture.FrameOptions{})
	fo.seg(oStream, 300, 400, false, capture.FrameOptions{}) // last gap fills; flow finishes
	ft.seg(tStream, 100, 200, true, capture.FrameOptions{})
	fw.seg(wStream, 400, 500, false, capture.FrameOptions{})
	fr.ack(300)
	fr.seg(rStream, 300, 400, true, capture.FrameOptions{})
	ft.rst(200)                                              // RST against an already-finished flow: teardown, no reset count
	fr.seg(rStream, 100, 200, false, capture.FrameOptions{}) // straggler after FIN
	fw.seg(wStream, 500, 600, true, capture.FrameOptions{})
	fo.ack(500)

	fw.truth(wStream)
	fo.truth(oStream)
	fr.truth(rStream)
	fm.truth(mStream)
	ft.truth(tStream)

	return b.c
}
