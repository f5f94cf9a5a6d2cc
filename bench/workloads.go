package main

// The five packet-shape workloads. Each is generated from the seed with
// traffic.GenerateFlows, framed into an in-memory pcap image at set-up,
// and carries its own oracle: FindAll over every flow's sender-side byte
// stream plus every datagram's payload. The shapes differ in the one
// property each is named for, so that a change to one layer moves one
// workload and leaves its opposite alone (see README.md).

import (
	"bytes"
	"fmt"
	"io"

	dpi "repro"
	"repro/internal/capture"
	"repro/internal/nids"
	"repro/internal/traffic"
)

// rulesetStrings is the paper's Snort-derived set size (§V.A).
const rulesetStrings = 634

// spec describes one workload at full scale.
type spec struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	// waves × flows.Flows connections per pass; waves run back to back, so
	// at most flows.Flows connections are live at once.
	waves int
	flows traffic.FlowConfig
	// udpEvery > 0 inserts one udpBytes datagram after every udpEvery-th
	// TCP segment (the stateless burst lane).
	udpEvery, udpBytes int
	gapTimeout         int // GatewayConfig.GapTimeout
	idleTimeout        int // GatewayConfig.IdleTimeout
	latencyKpps        int // fixed open-loop rate, about a fifth of capacity
}

var specs = []spec{
	{
		name:  "mtu-clean",
		why:   "256 long flows of 1460 B segments, clean: scan-bound, so core and engine set the rate and per-packet layers do not",
		waves: 1,
		flows: traffic.FlowConfig{Flows: 256, SegmentsPerFlow: 64, SegmentBytes: 1460,
			Profile: traffic.Uniform, AttackDensity: 0.25, CrossDensity: 0.25},
		latencyKpps: 40,
	},
	{
		name:  "small-pkt",
		why:   "4096 flows of 64 B segments: per-packet-bound, so admission, collector, lane hops, flow table and capture set the rate and the kernel does not",
		waves: 1,
		flows: traffic.FlowConfig{Flows: 4096, SegmentsPerFlow: 32, SegmentBytes: 64,
			Profile: traffic.Uniform, AttackDensity: 0.05, CrossDensity: 0.05},
		latencyKpps: 200,
	},
	{
		name:  "reorder-retx",
		why:   "512 B segments displaced up to 6 places with 4 retransmissions per flow: reassembly leaves its in-order fast path",
		waves: 1,
		flows: traffic.FlowConfig{Flows: 256, SegmentsPerFlow: 32, SegmentBytes: 512,
			Profile: traffic.Uniform, AttackDensity: 0.5, CrossDensity: 0.5,
			ReorderWindow: 6, RetransmitDensity: 4},
		// The gap clock is gateway-wide: with hundreds of interleaved flows a
		// 6-place displacement outlasts the default 4096 packets, gaps get
		// skipped and matches are lost. Loss never happens here, so no skip.
		gapTimeout:  -1,
		latencyKpps: 60,
	},
	{
		name:  "attack-heavy",
		why:   "mtu-clean's shape on textual traffic with a match every ~23 B: kernels fall back to the exact path and the emit path is hot",
		waves: 1,
		flows: traffic.FlowConfig{Flows: 256, SegmentsPerFlow: 64, SegmentBytes: 1460,
			Profile: traffic.Textual, AttackDensity: 256, CrossDensity: 8},
		latencyKpps: 25,
	},
	{
		name:  "churn-mixed",
		why:   "16384 three-segment connections per pass plus a UDP datagram per three segments: flow creation, idle eviction, pool cycling and the burst lane",
		waves: 64,
		flows: traffic.FlowConfig{Flows: 256, SegmentsPerFlow: 3, SegmentBytes: 512,
			Profile: traffic.Uniform, AttackDensity: 0.25, CrossDensity: 0.25},
		udpEvery: 3, udpBytes: 256,
		// Idle eviction, not a small MaxFlows: capacity eviction takes the
		// toucher's shard tail and can evict a live flow while finished husks
		// remain elsewhere (README.md, pitfalls).
		idleTimeout: 16384,
		latencyKpps: 80,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload's flow count by div for the tier-1 tests; the
// per-flow shape, which is what the workload is about, is kept.
func (s spec) scaled(div int) spec {
	if s.waves > 1 {
		s.waves = max(2, s.waves/div)
	}
	s.flows.Flows = max(8, s.flows.Flows/div)
	if s.idleTimeout > 0 {
		// Still a third of a pass, so a finished connection is evicted
		// before the next pass reuses its tuple.
		s.idleTimeout = s.waves * s.flows.Flows * s.flows.SegmentsPerFlow / 3
	}
	return s
}

// gatewayConfig is the one gateway shape every end-to-end number is
// measured on.
func (s spec) gatewayConfig() dpi.GatewayConfig {
	return dpi.GatewayConfig{
		EngineShards:   1,
		StreamWorkers:  2,
		OverloadPolicy: dpi.Block,
		GapTimeout:     s.gapTimeout,
		IdleTimeout:    s.idleTimeout,
	}
}

// workload is one generated instance: the pcap image the gateway replays,
// the same packets pre-translated for the open-loop feeder, and what a
// correct sensor must report for one pass.
type workload struct {
	spec
	image     []byte   // classic pcap, Ethernet
	half      int      // image[:half] holds the first half of the records
	packets   int      // records per pass, all deliverable
	streams   [][]byte // per TCP flow, the sender's byte stream
	datagrams [][]byte // UDP payloads
}

const pcapHeaderLen = 24

// flowTuple gives connection g of a pass its own 5-tuple; GenerateFlows
// numbers flows per call, so waves would collide without this.
func flowTuple(g int) nids.FiveTuple {
	return nids.FiveTuple{
		SrcIP:   nids.IPv4(10, byte(g>>16), byte(g>>8), byte(g)),
		DstIP:   nids.IPv4(192, 168, 0, 1),
		SrcPort: uint16(1024 + g%50000),
		DstPort: 80,
		Proto:   nids.ProtoTCP,
	}
}

func datagramTuple(d int) nids.FiveTuple {
	return nids.FiveTuple{
		SrcIP:   nids.IPv4(10, 128|byte(d>>16), byte(d>>8), byte(d)),
		DstIP:   nids.IPv4(192, 168, 0, 53),
		SrcPort: uint16(20000 + d%40000),
		DstPort: 53,
		Proto:   nids.ProtoUDP,
	}
}

// build generates the workload for seed. Same seed, same bytes.
func (s spec) build(rules *dpi.Ruleset, seed int64) (*workload, error) {
	set := rules.InternalSet()
	w := &workload{spec: s}
	var buf bytes.Buffer
	pw, err := capture.NewWriter(&buf, capture.WriterConfig{})
	if err != nil {
		return nil, err
	}
	total := s.waves * s.flows.Flows * s.flows.SegmentsPerFlow
	var dgrams []traffic.Packet
	if s.udpEvery > 0 {
		dgrams, err = traffic.Generate(set, traffic.Config{
			Packets: total / s.udpEvery, Bytes: s.udpBytes, Seed: seed ^ 0x5bd1e995,
			AttackDensity: s.flows.AttackDensity, Profile: s.flows.Profile,
		})
		if err != nil {
			return nil, err
		}
	}
	var ends []int // image length after each record, to find the half
	record := func(frame []byte) error {
		n := uint32(w.packets)
		w.packets++
		err := pw.WriteRecord(n/1000000, n%1000000, frame, len(frame))
		ends = append(ends, buf.Len())
		return err
	}
	tcp := 0
	for wave := 0; wave < s.waves; wave++ {
		fc := s.flows
		fc.Sequenced = true
		fc.Seed = seed*1000003 + int64(wave)
		fw, err := traffic.GenerateFlows(set, fc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		w.streams = append(w.streams, fw.Streams...)
		for _, p := range fw.Packets {
			t := flowTuple(wave*s.flows.Flows + p.FlowID)
			// FlagSeq is implied on the wire; SYN/FIN bits coincide.
			fr := capture.TCPFrame(t, p.TCPSeq, p.Flags&^traffic.FlagSeq, p.Payload, capture.FrameOptions{})
			if err := record(fr); err != nil {
				return nil, err
			}
			tcp++
			if s.udpEvery > 0 && tcp%s.udpEvery == 0 && len(w.datagrams) < len(dgrams) {
				d := dgrams[len(w.datagrams)]
				fr := capture.UDPFrame(datagramTuple(len(w.datagrams)), d.Payload, capture.FrameOptions{})
				if err := record(fr); err != nil {
					return nil, err
				}
				w.datagrams = append(w.datagrams, d.Payload)
			}
		}
	}
	w.half = ends[len(ends)/2-1]
	w.image = buf.Bytes()
	return w, nil
}

// firstHalf and secondHalf split one pass at the mid-pass checkpoint; the
// second half is given a pcap header of its own.
func (w *workload) firstHalf() io.Reader { return bytes.NewReader(w.image[:w.half]) }
func (w *workload) secondHalf() io.Reader {
	return io.MultiReader(bytes.NewReader(w.image[:pcapHeaderLen]), bytes.NewReader(w.image[w.half:]))
}

// oracle is the match count one pass must produce: FindAll over what the
// senders sent, whatever order and however often the segments arrived.
func (w *workload) oracle(m *dpi.Matcher) uint64 {
	var n uint64
	for _, s := range w.streams {
		n += uint64(len(m.FindAll(s)))
	}
	for _, d := range w.datagrams {
		n += uint64(len(m.FindAll(d)))
	}
	return n
}

// translate turns the image into the packets ReplayPcap would ingest, for
// feeders that pace Ingest themselves.
func (w *workload) translate() ([]dpi.GatewayPacket, error) {
	src, err := capture.NewSource(bytes.NewReader(w.image))
	if err != nil {
		return nil, err
	}
	out := make([]dpi.GatewayPacket, 0, w.packets)
	for {
		p, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, gatewayPacket(p))
	}
}

// gatewayPacket is the capture→gateway seam, flag by flag as ReplayPcap
// does it.
func gatewayPacket(p capture.Packet) dpi.GatewayPacket {
	var fl dpi.TCPFlags
	if p.Flags&capture.FlagSeq != 0 {
		fl |= dpi.FlagSeq
	}
	if p.Flags&capture.FlagFIN != 0 {
		fl |= dpi.FlagFIN
	}
	if p.Flags&capture.FlagSYN != 0 {
		fl |= dpi.FlagSYN
	}
	if p.Flags&capture.FlagRST != 0 {
		fl |= dpi.FlagRST
	}
	return dpi.GatewayPacket{Tuple: p.Tuple, Seq: p.Seq, Flags: fl, Payload: p.Payload}
}
