package capture

import "repro/internal/nids"

// Frame builders — the translator's inverse, used by the committed corpus
// generator (cmd/pcapgen) and the tests. They emit Ethernet II frames with
// deterministic MAC addresses and zero checksums (the translator, like any
// software sensor behind a checksum-offloading NIC, never inspects them),
// and pad every frame to the 60-byte Ethernet minimum the way a real NIC
// would — which is exactly what forces the translator's IP total-length
// clamp to be correct: without it the pad bytes would leak into small
// packets' payloads and corrupt the reassembled stream.

// FrameOptions customizes a built frame beyond the common case.
type FrameOptions struct {
	// VLAN, when non-zero, inserts one 802.1Q tag with this VLAN ID.
	VLAN uint16
	// IPOptions appends raw IPv4 option bytes (length must be a multiple
	// of 4, at most 40), growing the IHL accordingly.
	IPOptions []byte
	// FragField, when non-zero, is written verbatim into the IPv4
	// flags/fragment-offset field — set 0x2000 (MF) or an offset to build
	// fragment frames.
	FragField uint16
	// NoPad suppresses padding to the 60-byte Ethernet minimum.
	NoPad bool
}

const ethMinFrame = 60 // minimum Ethernet frame length, FCS excluded

// TCPFrame builds Ethernet+IPv4+TCP carrying payload. flags takes the
// SYN/FIN/RST bits; FlagSeq is implied — every TCP segment carries its
// sequence number on the wire.
func TCPFrame(t nids.FiveTuple, seq uint32, flags nids.TCPFlags, payload []byte, opt FrameOptions) []byte {
	tcp := make([]byte, 20+len(payload))
	be16(tcp[0:], t.SrcPort)
	be16(tcp[2:], t.DstPort)
	be32(tcp[4:], seq)
	tcp[12] = 5 << 4   // data offset: 5 words, no TCP options
	var fb byte = 0x10 // ACK, the steady-state bit
	if flags&FlagSYN != 0 {
		fb = 0x02 // a bare SYN has no ACK
	}
	if flags&FlagFIN != 0 {
		fb |= 0x01
	}
	if flags&FlagRST != 0 {
		fb |= 0x04
	}
	tcp[13] = fb
	be16(tcp[14:], 65535) // window
	copy(tcp[20:], payload)
	return frame(t, nids.ProtoTCP, tcp, opt)
}

// UDPFrame builds Ethernet+IPv4+UDP carrying payload.
func UDPFrame(t nids.FiveTuple, payload []byte, opt FrameOptions) []byte {
	udp := make([]byte, 8+len(payload))
	be16(udp[0:], t.SrcPort)
	be16(udp[2:], t.DstPort)
	be16(udp[4:], uint16(8+len(payload)))
	copy(udp[8:], payload)
	return frame(t, nids.ProtoUDP, udp, opt)
}

// IPFrame builds Ethernet+IPv4 with an arbitrary transport payload for the
// protocol in t.Proto (ICMP echo bytes, say).
func IPFrame(t nids.FiveTuple, transport []byte, opt FrameOptions) []byte {
	return frame(t, t.Proto, transport, opt)
}

// ARPFrame builds a broadcast ARP request — a non-IP frame the translator
// must count and skip.
func ARPFrame() []byte {
	f := make([]byte, 14+28)
	fillMACs(f, 0xff)
	f[12], f[13] = 0x08, 0x06 // EtherType ARP
	// Hardware/protocol types and a who-has body; the translator never
	// looks past the EtherType.
	copy(f[14:], []byte{0, 1, 8, 0, 6, 4, 0, 1})
	return pad(f)
}

// frame assembles Ethernet(+VLAN)+IPv4(+options) around a transport PDU.
func frame(t nids.FiveTuple, proto byte, transport []byte, opt FrameOptions) []byte {
	ihl := 20 + len(opt.IPOptions)
	if len(opt.IPOptions)%4 != 0 || len(opt.IPOptions) > 40 {
		panic("capture: IPv4 options must be a multiple of 4 bytes, at most 40")
	}
	ethLen := 14
	if opt.VLAN != 0 {
		ethLen += 4
	}
	f := make([]byte, ethLen+ihl+len(transport))
	fillMACs(f, 0x02)
	if opt.VLAN != 0 {
		f[12], f[13] = 0x81, 0x00
		be16(f[14:], opt.VLAN)
		f[16], f[17] = 0x08, 0x00
	} else {
		f[12], f[13] = 0x08, 0x00
	}
	ip := f[ethLen:]
	ip[0] = 0x40 | byte(ihl/4)
	be16(ip[2:], uint16(ihl+len(transport)))
	be16(ip[6:], opt.FragField)
	ip[8] = 64 // TTL
	ip[9] = proto
	be32(ip[12:], t.SrcIP)
	be32(ip[16:], t.DstIP)
	copy(ip[20:], opt.IPOptions)
	copy(ip[ihl:], transport)
	if opt.NoPad {
		return f
	}
	return pad(f)
}

func pad(f []byte) []byte {
	for len(f) < ethMinFrame {
		f = append(f, 0)
	}
	return f
}

func fillMACs(f []byte, dstFirst byte) {
	f[0] = dstFirst
	for i := 1; i < 6; i++ {
		f[i] = 0x11
	}
	f[6] = 0x02
	for i := 7; i < 12; i++ {
		f[i] = 0x22
	}
}

func be16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
