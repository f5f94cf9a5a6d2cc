package capture

import (
	"fmt"
	"io"

	"repro/internal/nids"
)

// TCP control-flag bits for Packet.Flags: the one flag word, nids.TCPFlags.
const (
	FlagFIN = nids.FlagFIN
	FlagSYN = nids.FlagSYN
	FlagRST = nids.FlagRST
	FlagSeq = nids.FlagSeq // Seq is meaningful: route through TCP reassembly
)

// Packet is one translated, scannable packet in the sensor's one packet
// model (nids.Packet). For TCP segments, Flags carries FlagSeq plus any
// SYN/FIN/RST bits; for UDP and other IP protocols, Seq and Flags are
// zero. Payload is a copy; it never aliases the capture buffer, so handing
// it to a Gateway (which takes ownership) is safe.
type Packet = nids.Packet

// TranslateStats counts every frame by its fate. Frames is the total;
// TCPSegments+UDPPackets+OtherIP is what was delivered; the remaining
// counters classify the skips. Nothing is ever silently discarded.
type TranslateStats struct {
	Frames      uint64 // frames offered to the translator
	TCPSegments uint64 // delivered TCP segments (reassembly path)
	UDPPackets  uint64 // delivered UDP packets (stateless path)
	OtherIP     uint64 // delivered other-IP-protocol packets (stateless path)

	NonIP     uint64 // skipped: not IPv4 (ARP, IPv6, LLC, unknown EtherType)
	Fragments uint64 // skipped: IPv4 fragments (no IP-level reassembly)
	Short     uint64 // skipped: frame ends inside a link/IP/TCP/UDP header
	EmptyTCP  uint64 // skipped: payload-less TCP with no SYN/FIN/RST (pure ACKs)

	VLANTags     uint64 // 802.1Q/802.1ad tags stripped (tags, not frames)
	Truncated    uint64 // delivered frames whose payload the capture cut short
	PayloadBytes uint64 // payload bytes delivered
}

// Translator turns link-layer frames into Packets. One Translator serves
// one capture (its link type is fixed at construction); it is not safe for
// concurrent use.
type Translator struct {
	link  uint32
	stats TranslateStats
}

// NewTranslator returns a translator for the given pcap link type.
func NewTranslator(linkType uint32) (*Translator, error) {
	switch linkType {
	case LinkEthernet, LinkRawIP:
		return &Translator{link: linkType}, nil
	}
	return nil, fmt.Errorf("capture: unsupported link type %d (want Ethernet %d or raw IP %d)",
		linkType, LinkEthernet, LinkRawIP)
}

// Stats returns the running frame accounting.
func (t *Translator) Stats() TranslateStats { return t.stats }

// EtherType values the Ethernet parser acts on.
const (
	etherTypeIPv4  = 0x0800
	etherTypeVLAN  = 0x8100 // 802.1Q
	etherTypeQinQ  = 0x88a8 // 802.1ad
	etherTypeQinQ2 = 0x9100 // legacy QinQ
)

// Frame translates one captured frame. origLen is the frame's on-the-wire
// length (Record.OrigLen); when the capture truncated the frame, the
// translated payload is clamped to the captured bytes and the frame counts
// as Truncated. ok is false when the frame was skipped (see TranslateStats
// for why).
func (t *Translator) Frame(data []byte, origLen int) (pkt Packet, ok bool) {
	t.stats.Frames++
	ip := data
	if t.link == LinkEthernet {
		ip, ok = t.stripEthernet(data)
		if !ok {
			return Packet{}, false
		}
	}
	return t.ipv4(ip, origLen > len(data))
}

// stripEthernet removes the 14-byte Ethernet II header plus up to two
// stacked VLAN tags, returning the IPv4 payload.
func (t *Translator) stripEthernet(data []byte) ([]byte, bool) {
	if len(data) < 14 {
		t.stats.Short++
		return nil, false
	}
	etherType := uint16(data[12])<<8 | uint16(data[13])
	off := 14
	for tags := 0; tags < 2; tags++ {
		switch etherType {
		case etherTypeVLAN, etherTypeQinQ, etherTypeQinQ2:
			if len(data) < off+4 {
				t.stats.Short++
				return nil, false
			}
			etherType = uint16(data[off+2])<<8 | uint16(data[off+3])
			off += 4
			t.stats.VLANTags++
		default:
			tags = 2
		}
	}
	if etherType != etherTypeIPv4 {
		t.stats.NonIP++
		return nil, false
	}
	return data[off:], true
}

// ipv4 parses the IP header and dispatches on the transport protocol.
// wireTruncated records whether the capture already cut the frame short of
// its wire length; a total-length field pointing past the captured bytes
// independently marks truncation, while a total length *shorter* than the
// captured bytes is Ethernet minimum-frame padding and is stripped.
func (t *Translator) ipv4(b []byte, wireTruncated bool) (Packet, bool) {
	if len(b) < 20 {
		t.stats.Short++
		return Packet{}, false
	}
	if b[0]>>4 != 4 {
		t.stats.NonIP++ // IPv6 or garbage
		return Packet{}, false
	}
	ihl := int(b[0]&0x0f) * 4
	totalLen := int(b[2])<<8 | int(b[3])
	if ihl < 20 || totalLen < ihl {
		t.stats.Short++
		return Packet{}, false
	}
	truncated := wireTruncated
	if totalLen > len(b) {
		truncated = true // snap length cut inside the IP payload
	} else {
		b = b[:totalLen] // strip link-layer padding
	}
	if len(b) < ihl {
		t.stats.Short++
		return Packet{}, false
	}
	// Fragments are skipped whole: first fragments (MF set, offset 0)
	// would deliver a stream prefix with no way to ever complete it, and
	// later fragments carry no transport header at all.
	if fragField := uint16(b[6])<<8 | uint16(b[7]); fragField&0x3fff != 0 {
		t.stats.Fragments++
		return Packet{}, false
	}
	tuple := nids.FiveTuple{
		SrcIP: uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15]),
		DstIP: uint32(b[16])<<24 | uint32(b[17])<<16 | uint32(b[18])<<8 | uint32(b[19]),
		Proto: b[9],
	}
	payload := b[ihl:]
	switch tuple.Proto {
	case nids.ProtoTCP:
		return t.tcp(tuple, payload, truncated)
	case nids.ProtoUDP:
		return t.udp(tuple, payload, truncated)
	}
	t.stats.OtherIP++
	return t.deliver(tuple, 0, 0, payload, truncated), true
}

func (t *Translator) tcp(tuple nids.FiveTuple, b []byte, truncated bool) (Packet, bool) {
	if len(b) < 20 {
		t.stats.Short++
		return Packet{}, false
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < 20 {
		t.stats.Short++
		return Packet{}, false
	}
	if len(b) < dataOff {
		// The capture cut inside the TCP options; the payload boundary is
		// unknowable, so the segment cannot be delivered.
		t.stats.Short++
		return Packet{}, false
	}
	tuple.SrcPort = uint16(b[0])<<8 | uint16(b[1])
	tuple.DstPort = uint16(b[2])<<8 | uint16(b[3])
	seq := uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	flags := FlagSeq
	if b[13]&0x01 != 0 {
		flags |= FlagFIN
	}
	if b[13]&0x02 != 0 {
		flags |= FlagSYN
	}
	if b[13]&0x04 != 0 {
		flags |= FlagRST
	}
	payload := b[dataOff:]
	if len(payload) == 0 && flags == FlagSeq {
		// A pure ACK moves no stream bytes and no lifecycle state; skipping
		// it here saves the whole pipeline trip for the most common packet
		// on a real link.
		t.stats.EmptyTCP++
		return Packet{}, false
	}
	t.stats.TCPSegments++
	return t.deliver(tuple, seq, flags, payload, truncated), true
}

func (t *Translator) udp(tuple nids.FiveTuple, b []byte, truncated bool) (Packet, bool) {
	if len(b) < 8 {
		t.stats.Short++
		return Packet{}, false
	}
	tuple.SrcPort = uint16(b[0])<<8 | uint16(b[1])
	tuple.DstPort = uint16(b[2])<<8 | uint16(b[3])
	udpLen := int(b[4])<<8 | int(b[5])
	payload := b[8:]
	if udpLen >= 8 && udpLen-8 < len(payload) {
		payload = payload[:udpLen-8]
	} else if udpLen > 8+len(payload) {
		truncated = true
	}
	t.stats.UDPPackets++
	return t.deliver(tuple, 0, 0, payload, truncated), true
}

// deliver finalizes a scannable packet: the payload is copied out of the
// capture buffer (the gateway takes ownership of what it ingests) and the
// delivery counters advance.
func (t *Translator) deliver(tuple nids.FiveTuple, seq uint32, flags nids.TCPFlags, payload []byte, truncated bool) Packet {
	if truncated {
		t.stats.Truncated++
	}
	t.stats.PayloadBytes += uint64(len(payload))
	var owned []byte
	if len(payload) > 0 {
		owned = make([]byte, len(payload))
		copy(owned, payload)
	}
	return Packet{Tuple: tuple, Seq: seq, Flags: flags, Payload: owned}
}

// Source fuses a Reader and a Translator into a pull iterator of scannable
// packets — the shape a replaying gateway consumes.
type Source struct {
	r *Reader
	t *Translator
}

// NewSource opens a pcap stream and validates its link type.
func NewSource(r io.Reader) (*Source, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	tr, err := NewTranslator(rd.Header().LinkType)
	if err != nil {
		return nil, err
	}
	return &Source{r: rd, t: tr}, nil
}

// Header returns the underlying pcap file header.
func (s *Source) Header() FileHeader { return s.r.Header() }

// Stats returns the translator's frame accounting so far.
func (s *Source) Stats() TranslateStats { return s.t.Stats() }

// Next returns the next scannable packet, transparently skipping frames
// the translator cannot deliver (each skip is counted in Stats). It
// returns io.EOF at a clean end of file and io.ErrUnexpectedEOF (wrapped)
// on a truncated capture.
func (s *Source) Next() (Packet, error) {
	for {
		rec, err := s.r.Next()
		if err != nil {
			return Packet{}, err
		}
		if pkt, ok := s.t.Frame(rec.Data, int(rec.OrigLen)); ok {
			return pkt, nil
		}
	}
}
