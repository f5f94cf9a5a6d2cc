package hwsim

import (
	"cmp"
	"fmt"
	"slices"
)

// EnginesPerBlock is fixed by the architecture: 3 engines share each port
// of the true-dual-port state memory, their clocks 120° out of phase, with
// the memory running at 3× the engine clock (§IV.B, Figure 4).
const (
	EnginesPerBlock   = 6
	EnginesPerPort    = 3
	memClockPerEngine = 3
)

// Output is one reported match: pattern PatternID ends at byte offset End
// (exclusive) of packet PacketID.
type Output struct {
	PacketID  int
	PatternID int32
	End       int
}

// matchEvent is a scheduler queue entry: engine engineID hit a matching
// state whose string numbers start at Addr.
type matchEvent struct {
	packetID int
	end      int
	addr     uint16
}

// BlockStats instruments one block's run.
type BlockStats struct {
	MemCycles     int64 // memory-clock ticks simulated
	BytesScanned  int64
	Matches       int64
	MaxSchedQueue int // high-water mark of the match scheduler buffer
}

// Block simulates one string matching block: 6 engines fed round-robin
// from a packet queue, both memory ports serving 3 engines each, and a
// match scheduler draining string numbers from the match memory two per
// memory cycle.
type Block struct {
	Img     *Image
	Engines [EnginesPerBlock]*Engine
	Stats   BlockStats

	sched     []matchEvent
	schedAddr uint16 // current read address within the front event's list
	schedBusy bool
}

// NewBlock builds a block over a packed image.
func NewBlock(img *Image) *Block {
	b := &Block{Img: img}
	for i := range b.Engines {
		b.Engines[i] = NewEngine(img)
	}
	return b
}

// Packet is one unit of work for a block.
type Packet struct {
	ID      int
	Payload []byte
}

// ScanPackets runs the block until every packet is scanned and the match
// scheduler has drained, returning all matches in canonical order. The
// simulation advances in memory-clock ticks; on each tick, one engine per
// port consumes one payload byte (engines take ticks t, t+1, t+2 round
// robin — the 120° phase offsets), and the scheduler performs at most one
// match-memory read.
func (b *Block) ScanPackets(packets []Packet) ([]Output, error) {
	for _, p := range packets {
		if len(p.Payload) == 0 {
			return nil, fmt.Errorf("hwsim: packet %d has empty payload", p.ID)
		}
	}
	queue := packets
	type job struct {
		packet Packet
		pos    int
	}
	var jobs [EnginesPerBlock]*job
	var outputs []Output

	takeJob := func(engine int) bool {
		if len(queue) == 0 {
			return false
		}
		jobs[engine] = &job{packet: queue[0]}
		queue = queue[1:]
		b.Engines[engine].Reset()
		return true
	}
	busy := func() bool {
		if len(queue) > 0 || b.schedBusy || len(b.sched) > 0 {
			return true
		}
		for _, j := range jobs {
			if j != nil {
				return true
			}
		}
		return false
	}

	for tick := int64(0); busy(); tick++ {
		phase := int(tick % memClockPerEngine)
		// Port A serves engines 0..2, port B engines 3..5.
		for port := 0; port < 2; port++ {
			engine := port*EnginesPerPort + phase
			if jobs[engine] == nil && !takeJob(engine) {
				continue
			}
			j := jobs[engine]
			res := b.Engines[engine].Step(j.packet.Payload[j.pos])
			j.pos++
			b.Stats.BytesScanned++
			if res.Match {
				b.sched = append(b.sched, matchEvent{
					packetID: j.packet.ID,
					end:      j.pos,
					addr:     res.MatchAddr,
				})
				if len(b.sched) > b.Stats.MaxSchedQueue {
					b.Stats.MaxSchedQueue = len(b.sched)
				}
			}
			if j.pos == len(j.packet.Payload) {
				jobs[engine] = nil
			}
		}
		// Match scheduler: one match-memory read per memory cycle.
		b.schedulerTick(&outputs)
		b.Stats.MemCycles++
	}
	sortOutputs(outputs)
	return outputs, nil
}

// sortOutputs puts outputs in canonical (PacketID, End, PatternID) order.
func sortOutputs(outputs []Output) {
	slices.SortFunc(outputs, func(a, c Output) int {
		return cmp.Or(cmp.Compare(a.PacketID, c.PacketID), cmp.Compare(a.End, c.End), cmp.Compare(a.PatternID, c.PatternID))
	})
}

// schedulerTick processes the front of the match buffer: it reads one
// 27-bit word, emits up to two string numbers, and advances to the next
// buffered match when the word's last flag is set.
func (b *Block) schedulerTick(outputs *[]Output) {
	if !b.schedBusy {
		if len(b.sched) == 0 {
			return
		}
		b.schedAddr = b.sched[0].addr
		b.schedBusy = true
	}
	ev := b.sched[0]
	word := b.Img.Match[b.schedAddr]
	id1 := int32(word & (1<<matchIDBits - 1))
	id2 := int32(word >> matchIDBits & (1<<matchIDBits - 1))
	last := word>>(2*matchIDBits)&1 == 1

	*outputs = append(*outputs, Output{PacketID: ev.packetID, PatternID: id1, End: ev.end})
	b.Stats.Matches++
	if id2 != MatchPadID {
		*outputs = append(*outputs, Output{PacketID: ev.packetID, PatternID: id2, End: ev.end})
		b.Stats.Matches++
	}
	if last {
		b.sched = b.sched[1:]
		b.schedBusy = false
	} else {
		b.schedAddr++
	}
}

// PortUtilization reports the fraction of port-cycles that carried a byte:
// 1.0 means both ports streamed continuously (6 busy engines).
func (s BlockStats) PortUtilization() float64 {
	if s.MemCycles == 0 {
		return 0
	}
	return float64(s.BytesScanned) / float64(2*s.MemCycles)
}
