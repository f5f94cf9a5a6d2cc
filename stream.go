package dpi

import (
	"repro/internal/ac"
	"repro/internal/core"
)

// Stream scans a packet delivered in arbitrary chunks — the software
// analogue of an engine consuming bytes as they arrive from the wire.
// Matches spanning chunk boundaries are found; offsets are relative to the
// start of the stream (since the last Reset). Stream implements io.Writer.
//
// Ordering guarantee: matches found within one Write call are emitted in
// (End, PatternID) order, the automaton's own. A match is always discovered in the chunk
// containing its final byte and chunks arrive in stream order, so the full
// emission sequence across Writes is exactly the sequence FindAll would
// return for the concatenated stream.
//
// A Stream is not safe for concurrent use; give each concurrent flow its
// own Stream — they all read the Matcher's one immutable automaton and
// carry only their own scanner registers. A Stream is one allocation: the
// registers, one core.Regs, live in the handle itself.
type Stream struct {
	m    *Matcher
	r    core.Regs
	emit func(Match)
	buf  []ac.Match // per-chunk match buffer, reused across Writes
}

// NewStream returns a stream that calls emit for every match. One Stream
// corresponds to one packet/flow; create one per concurrent flow and Reset
// between packets.
func (m *Matcher) NewStream(emit func(Match)) *Stream {
	s := &Stream{m: m, emit: emit}
	s.r.Reset()
	return s
}

// Write consumes the next chunk of payload. It never fails; the error is
// part of the io.Writer contract. Match offsets are already
// stream-relative because the registers' position persists across Write
// calls. Matches for this chunk are emitted in canonical
// (End, PatternID) order with PacketID -1 — see the Stream ordering
// guarantee.
func (s *Stream) Write(p []byte) (int, error) {
	return s.WritePacket(p, -1)
}

// WritePacket is Write with match attribution: matches completed by this
// chunk are emitted with PacketID set to packetID. Start and End remain
// stream-relative, so a demultiplexer feeding reassembled segments through
// a per-flow Stream can tie a cross-packet match back to the segment that
// finished it.
func (s *Stream) WritePacket(p []byte, packetID int) (int, error) {
	buf := s.m.machine.ScanAppend(&s.r, p, ac.RecycleMatches(s.buf))
	// Detach the buffer while replaying so an emit that writes to this same
	// stream cannot recycle the slice being iterated.
	s.buf = nil
	for _, am := range buf {
		s.emit(s.m.convert(am, packetID))
	}
	s.buf = buf
	return len(p), nil
}

// Reset rewinds the stream to start-of-packet: automaton states and the
// 2-byte histories are cleared, and offsets restart at zero.
func (s *Stream) Reset() { s.r.Reset() }

// SkipGap advances the stream position by n bytes that were never seen (a
// TCP reassembly gap skipped on loss): scanner registers are invalidated —
// a match cannot span unseen bytes — but offsets of later matches remain
// absolute in the true byte stream. The Gateway does the same to a flow
// whose gap timeout expires. n <= 0 is a no-op.
func (s *Stream) SkipGap(n int) { s.r.SkipAhead(n) }

// Consumed returns the stream position: bytes scanned plus gap bytes
// skipped since the last Reset.
func (s *Stream) Consumed() int { return s.r.Pos() }
