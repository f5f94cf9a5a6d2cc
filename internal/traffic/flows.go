package traffic

// Multi-flow workload synthesis for the gateway layer: many concurrent
// connections, each delivered as an interleaved sequence of segments, with
// exact ground truth for planted patterns — including plants deliberately
// straddling segment boundaries, which only survive demultiplexing if the
// scanner carries per-flow state across packets.

import (
	"fmt"

	"repro/internal/nids"
	"repro/internal/rng"
	"repro/internal/ruleset"
)

// TCP control-flag bits for FlowPacket.Flags: the one flag word,
// nids.TCPFlags, so a feed passes them through unchanged.
const (
	FlagFIN = nids.FlagFIN
	FlagSYN = nids.FlagSYN
	FlagRST = nids.FlagRST
	FlagSeq = nids.FlagSeq // TCPSeq is meaningful: reassemble by sequence
)

// FlowPacket is one segment of one flow, tagged for demultiplexing.
type FlowPacket struct {
	FlowID  int
	Tuple   nids.FiveTuple
	Seq     int // position within the flow's in-order segmentation, 0-based
	Payload []byte
	Last    bool // final segment of its flow (carries FIN when Sequenced)
	// TCPSeq and Flags are populated by Sequenced workloads: TCPSeq is the
	// TCP sequence number of Payload[0] (of the SYN itself on the SYN
	// segment), and Flags carries FlagSeq plus SYN on the first segment and
	// FIN on the last.
	TCPSeq uint32
	Flags  nids.TCPFlags
	// Retransmit marks a duplicate emission of an earlier segment (exact
	// byte copy), so consumers can separate originals from retransmissions.
	Retransmit bool
}

// Plant records one intact planted pattern occurrence in a flow's stream.
// Unlike Packet.Planted, plants never overlap each other, so every Plant is
// guaranteed to appear verbatim in the final stream: an exhaustive matcher
// must report (PatternID, End) for each one.
type Plant struct {
	PatternID   int32
	End         int  // stream offset one past the pattern's last byte
	CrossPacket bool // spans at least one segment boundary
}

// FlowWorkload is an interleaved multi-flow packet sequence with oracle
// material: the per-flow reassembled streams and the exact plants.
type FlowWorkload struct {
	Packets []FlowPacket     // ingest order: per-flow in order, flows interleaved
	Tuples  []nids.FiveTuple // per flow
	Streams [][]byte         // per flow: the concatenation of its segments
	Planted [][]Plant        // per flow, in planting order
}

// CrossPlants counts the boundary-straddling plants across all flows.
func (w *FlowWorkload) CrossPlants() int {
	n := 0
	for _, plants := range w.Planted {
		for _, p := range plants {
			if p.CrossPacket {
				n++
			}
		}
	}
	return n
}

// FlowConfig controls multi-flow workload synthesis.
type FlowConfig struct {
	Flows           int
	SegmentsPerFlow int
	SegmentBytes    int
	Seed            int64
	// CrossDensity is the expected number of plants per flow that straddle
	// a segment boundary (requires SegmentsPerFlow >= 2).
	CrossDensity float64
	// AttackDensity is the expected number of additional plants per flow
	// placed anywhere in the stream.
	AttackDensity float64
	Profile       Profile
	// Proto tags every generated tuple; 0 selects TCP (the stream-routed
	// protocol).
	Proto byte
	// Sequenced assigns each flow a random ISN and stamps every segment
	// with its TCP sequence number and flags (FlagSeq everywhere, SYN on
	// the first segment, FIN on the last), making the workload consumable
	// by a reassembling gateway. Off, the TCPSeq/Flags fields stay zero and
	// generation is byte-identical to earlier versions for a given seed.
	Sequenced bool
	// ReorderWindow shuffles each flow's segment delivery order (segments
	// after the SYN segment, which always goes first so the sequence base
	// is known) with every segment displaced at most this many positions —
	// an out-of-order network path. Requires Sequenced. 0 keeps order.
	ReorderWindow int
	// RetransmitDensity is the expected number of duplicated segment
	// emissions per flow (exact byte copies of an earlier segment,
	// delivered again later — what a retransmitting sender produces).
	// Requires Sequenced. The SYN segment is never duplicated, so a
	// retransmission can't restart a completed connection as a new one.
	RetransmitDensity float64
}

// GenerateFlows produces a deterministic interleaved multi-flow workload
// over the given pattern set. Plants are non-overlapping within a flow, so
// the recorded ground truth is exact: every Plant appears verbatim in the
// flow's stream (background bytes may still produce additional matches).
// Sequenced workloads additionally carry TCP sequence numbers and flags
// and may deliver segments out of order and retransmitted — duplicates are
// exact byte copies and every original segment is eventually delivered, so
// the ground truth stays exact for a reassembling consumer: the
// reassembled stream equals Streams[f] under either overlap policy.
func GenerateFlows(set *ruleset.Set, cfg FlowConfig) (*FlowWorkload, error) {
	if cfg.Flows <= 0 || cfg.SegmentsPerFlow <= 0 || cfg.SegmentBytes <= 0 {
		return nil, fmt.Errorf("traffic: need positive Flows/SegmentsPerFlow/SegmentBytes, got %d/%d/%d",
			cfg.Flows, cfg.SegmentsPerFlow, cfg.SegmentBytes)
	}
	if cfg.CrossDensity > 0 && cfg.SegmentsPerFlow < 2 {
		return nil, fmt.Errorf("traffic: cross-packet plants need at least 2 segments per flow")
	}
	if (cfg.ReorderWindow > 0 || cfg.RetransmitDensity > 0) && !cfg.Sequenced {
		return nil, fmt.Errorf("traffic: ReorderWindow/RetransmitDensity need Sequenced (segments must carry TCP seqs to be reorderable)")
	}
	proto := cfg.Proto
	if proto == 0 {
		proto = nids.ProtoTCP
	}
	src := rng.New(cfg.Seed)
	w := &FlowWorkload{
		Tuples:  make([]nids.FiveTuple, cfg.Flows),
		Streams: make([][]byte, cfg.Flows),
		Planted: make([][]Plant, cfg.Flows),
	}
	streamLen := cfg.SegmentsPerFlow * cfg.SegmentBytes
	for f := 0; f < cfg.Flows; f++ {
		w.Tuples[f] = flowTuple(f, proto)
		stream := make([]byte, streamLen)
		fillBackground(src, stream, cfg.Profile)
		var occupied []span
		if set != nil && set.Len() > 0 {
			if cfg.CrossDensity > 0 {
				n := poissonish(src, cfg.CrossDensity)
				for k := 0; k < n; k++ {
					if pl, ok := plantCross(src, set, stream, cfg.SegmentBytes, &occupied); ok {
						w.Planted[f] = append(w.Planted[f], pl)
					}
				}
			}
			if cfg.AttackDensity > 0 {
				n := poissonish(src, cfg.AttackDensity)
				for k := 0; k < n; k++ {
					if pl, ok := plantAnywhere(src, set, stream, cfg.SegmentBytes, &occupied); ok {
						w.Planted[f] = append(w.Planted[f], pl)
					}
				}
			}
		}
		w.Streams[f] = stream
	}

	// Per-flow emission schedule: segment indices in delivery order. The
	// in-order identity schedule reproduces the historical byte stream;
	// Sequenced workloads may shuffle it within the reorder window (SYN
	// segment pinned first, so the receiver knows the sequence base before
	// any data) and splice in exact-copy retransmissions.
	sched := make([][]int, cfg.Flows)
	var isn []uint32
	if cfg.Sequenced {
		isn = make([]uint32, cfg.Flows)
	}
	for f := range sched {
		order := make([]int, cfg.SegmentsPerFlow)
		for i := range order {
			order[i] = i
		}
		if cfg.Sequenced {
			isn[f] = uint32(src.Uint64()) // any ISN; wraparound included
			if cfg.ReorderWindow > 0 {
				// Windowed shuffle: each position trades with one at most
				// ReorderWindow back, displacing segments on the order of
				// the window while keeping position 0 (the SYN) fixed.
				for i := 1; i < len(order); i++ {
					lo := i - cfg.ReorderWindow
					if lo < 1 {
						lo = 1
					}
					j := lo + src.Intn(i-lo+1)
					order[i], order[j] = order[j], order[i]
				}
			}
			if cfg.RetransmitDensity > 0 {
				n := poissonish(src, cfg.RetransmitDensity)
				for k := 0; k < n && len(order) > 1; k++ {
					a := src.Intn(len(order))
					if order[a] == 0 {
						continue // never duplicate the SYN segment
					}
					b := a + 1 + src.Intn(len(order)-a) // strictly after a
					order = append(order, 0)
					copy(order[b+1:], order[b:])
					order[b] = order[a]
				}
			}
		}
		sched[f] = order
	}

	// Interleave: repeatedly pick a random non-exhausted flow and emit its
	// next scheduled segment, so segments of concurrent connections arrive
	// shuffled while each flow follows its own delivery schedule — what an
	// edge link (plus a lossy, reordering path) actually delivers.
	total := 0
	for _, o := range sched {
		total += len(o)
	}
	w.Packets = make([]FlowPacket, 0, total)
	alive := make([]int, cfg.Flows) // flow indices with segments remaining
	next := make([]int, cfg.Flows)  // next schedule position per flow
	seen := make([]uint64, cfg.Flows*((cfg.SegmentsPerFlow+63)/64))
	wordsPerFlow := (cfg.SegmentsPerFlow + 63) / 64
	for f := range alive {
		alive[f] = f
	}
	for len(alive) > 0 {
		ai := src.Intn(len(alive))
		f := alive[ai]
		s := sched[f][next[f]]
		next[f]++
		seg := w.Streams[f][s*cfg.SegmentBytes : (s+1)*cfg.SegmentBytes]
		fp := FlowPacket{
			FlowID:  f,
			Tuple:   w.Tuples[f],
			Seq:     s,
			Payload: seg,
			Last:    s == cfg.SegmentsPerFlow-1,
		}
		if cfg.Sequenced {
			fp.Flags = FlagSeq
			fp.TCPSeq = isn[f] + 1 + uint32(s*cfg.SegmentBytes)
			if s == 0 {
				fp.Flags |= FlagSYN
				fp.TCPSeq = isn[f] // data logically starts at ISN+1
			}
			if fp.Last {
				fp.Flags |= FlagFIN
			}
			word, bit := f*wordsPerFlow+s/64, uint(s%64)
			fp.Retransmit = seen[word]&(1<<bit) != 0
			seen[word] |= 1 << bit
		}
		w.Packets = append(w.Packets, fp)
		if next[f] == len(sched[f]) {
			alive[ai] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
	}
	return w, nil
}

// flowTuple derives a unique, deterministic 5-tuple for flow index f.
func flowTuple(f int, proto byte) nids.FiveTuple {
	return nids.FiveTuple{
		SrcIP:   nids.IPv4(10, byte(f>>16), byte(f>>8), byte(f)),
		DstIP:   nids.IPv4(192, 168, 0, 1),
		SrcPort: uint16(1024 + f%50000),
		DstPort: 80,
		Proto:   proto,
	}
}

type span struct{ lo, hi int } // [lo, hi)

func overlaps(occupied []span, lo, hi int) bool {
	for _, s := range occupied {
		if lo < s.hi && s.lo < hi {
			return true
		}
	}
	return false
}

// plantCross copies a pattern into stream so it straddles a segment
// boundary, avoiding previously planted spans. Returns false if no
// placement was found in a bounded number of attempts.
func plantCross(src *rng.Source, set *ruleset.Set, stream []byte, segBytes int, occupied *[]span) (Plant, bool) {
	segments := len(stream) / segBytes
	for attempt := 0; attempt < 16; attempt++ {
		p := set.Patterns[src.Intn(set.Len())]
		if len(p.Data) < 2 || len(p.Data) > len(stream) {
			continue
		}
		cut := (1 + src.Intn(segments-1)) * segBytes
		// Start k bytes before the boundary, 1 <= k <= len-1, so at least
		// one byte lands on each side.
		maxK := len(p.Data) - 1
		if maxK > cut {
			maxK = cut
		}
		k := 1 + src.Intn(maxK)
		start := cut - k
		end := start + len(p.Data)
		if end > len(stream) || end <= cut {
			continue
		}
		if overlaps(*occupied, start, end) {
			continue
		}
		copy(stream[start:], p.Data)
		*occupied = append(*occupied, span{start, end})
		return Plant{PatternID: int32(p.ID), End: end, CrossPacket: true}, true
	}
	return Plant{}, false
}

// plantAnywhere copies a pattern into a random non-overlapping position.
func plantAnywhere(src *rng.Source, set *ruleset.Set, stream []byte, segBytes int, occupied *[]span) (Plant, bool) {
	for attempt := 0; attempt < 16; attempt++ {
		p := set.Patterns[src.Intn(set.Len())]
		if len(p.Data) >= len(stream) {
			continue
		}
		start := src.Intn(len(stream) - len(p.Data))
		end := start + len(p.Data)
		if overlaps(*occupied, start, end) {
			continue
		}
		copy(stream[start:], p.Data)
		*occupied = append(*occupied, span{start, end})
		cross := start/segBytes != (end-1)/segBytes
		return Plant{PatternID: int32(p.ID), End: end, CrossPacket: cross}, true
	}
	return Plant{}, false
}
