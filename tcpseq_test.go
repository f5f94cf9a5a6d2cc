package dpi

import "sync"

// Sequencer numbers TCP segments the way a capture does, for tests that
// build their feed by hand: it stamps each packet of a TCP tuple with
// FlagSeq and the tuple's running stream offset, and advances the offset
// past the payload (and past the SYN's own sequence number on a SYN), so
// one tuple's packets, numbered in ingest order, are in sequence. A packet
// the gateway sheds still advanced its tuple's offset: its bytes are a hole
// in sequence space, not a shift of what follows. Payloads and every other
// protocol's packets pass through unchanged. The zero value is ready, and it
// is safe for concurrent use.
type Sequencer struct {
	mu   sync.Mutex
	next map[FiveTuple]uint32
}

// Seq returns p numbered as its tuple's next segment.
func (s *Sequencer) Seq(p GatewayPacket) GatewayPacket {
	if p.Tuple.Proto != ProtoTCP {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == nil {
		s.next = map[FiveTuple]uint32{}
	}
	p.Seq = s.next[p.Tuple]
	p.Flags |= FlagSeq
	s.next[p.Tuple] = p.Seq + uint32(len(p.Payload))
	if p.Flags&FlagSYN != 0 {
		s.next[p.Tuple]++
	}
	return p
}
