// Package nids holds the header half of the intrusion-detection rule the
// paper's accelerator serves (§I): "The rules used for DPI in an intrusion
// detection system such as Snort consist of two parts. The first part is a
// header rule which involves performing 5-tuple packet classification on a
// packet's header. The second part is a content rule where a specific
// string or strings must be searched for in a packet's payload at given
// locations."
//
// The package provides the 5-tuple (FiveTuple, whose Hash64 pins a flow
// to its gateway lane), the header classifier (HeaderRule over Prefix
// and PortRange) and the packet a rule classifies (Packet, with its
// TCPFlags): capture, the traffic generators, the gateway and reassembly
// all read this one declaration, so a flag means the same bit from the
// wire to the lane. The content half is the Ruleset the Matcher compiles
// and scans: the gateway's VerdictRule classifies a flow's header with a
// HeaderRule and scans its reassembled stream with the Matcher, so a
// content split across segments is still found.
package nids

import "fmt"

// Proto numbers follow IP.
const (
	ProtoAny  byte = 0
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// FiveTuple is a packet's classification header.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   byte
}

// Hash64 returns a well-mixed 64-bit hash of the tuple, suitable for
// sharding flow tables and pinning flows to scan lanes. All five fields
// feed the hash; the SplitMix64 finalizer spreads them so that flows
// differing only in a port still land on different shards.
func (t FiveTuple) Hash64() uint64 {
	h := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	h ^= uint64(t.SrcPort)<<16 ^ uint64(t.DstPort) ^ uint64(t.Proto)<<40
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// String renders the tuple in the usual "proto src > dst" form.
func (t FiveTuple) String() string {
	proto := fmt.Sprintf("ip(%d)", t.Proto)
	switch t.Proto {
	case ProtoAny:
		proto = "any"
	case ProtoICMP:
		proto = "icmp"
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s:%d > %s:%d", proto, ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// TCPFlags carries the TCP control bits a sensor acts on, plus FlagSeq,
// which marks a packet's Seq as meaningful.
type TCPFlags uint8

const (
	FlagFIN TCPFlags = 1 << 0 // connection finished after this segment
	FlagSYN TCPFlags = 1 << 1 // connection start; Seq is the ISN
	FlagRST TCPFlags = 1 << 2 // abort: tear the flow down immediately
	FlagSeq TCPFlags = 1 << 7 // Seq is valid: place the bytes by it
)

// Packet is one packet in the sensor's model: a payload tagged with its
// flow's 5-tuple and, for TCP segments, the sequence number and control
// flags that drive reassembly and the connection's lifecycle.
//
// Seq is the TCP sequence number of Payload[0], or of the SYN itself on a
// SYN segment; FlagSeq marks it as valid. Both Seq and Flags are ignored
// for protocols other than TCP. Whoever receives a Packet owns its
// Payload: a sender that reuses buffers must copy first.
type Packet struct {
	Tuple   FiveTuple
	Seq     uint32
	Flags   TCPFlags
	Payload []byte
}

// Prefix is an IPv4 CIDR prefix. Bits==0 matches any address.
type Prefix struct {
	Addr uint32
	Bits int
}

// AnyPrefix is the match-all prefix.
var AnyPrefix = Prefix{}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	if p.Bits <= 0 {
		return true
	}
	if p.Bits > 32 {
		return false
	}
	mask := ^uint32(0) << uint(32-p.Bits)
	return ip&mask == p.Addr&mask
}

// PortRange is an inclusive port interval. The zero value (0,0) matches
// any port.
type PortRange struct {
	Lo, Hi uint16
}

// AnyPort matches every port.
var AnyPort = PortRange{}

// Contains reports whether port falls inside the range.
func (r PortRange) Contains(port uint16) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return port >= r.Lo && port <= r.Hi
}

// HeaderRule is the 5-tuple classification part of a rule.
type HeaderRule struct {
	Proto    byte // ProtoAny matches everything
	SrcNet   Prefix
	DstNet   Prefix
	SrcPorts PortRange
	DstPorts PortRange
}

// Matches classifies one header.
func (h HeaderRule) Matches(t FiveTuple) bool {
	if h.Proto != ProtoAny && h.Proto != t.Proto {
		return false
	}
	return h.SrcNet.Contains(t.SrcIP) && h.DstNet.Contains(t.DstIP) &&
		h.SrcPorts.Contains(t.SrcPort) && h.DstPorts.Contains(t.DstPort)
}

// IPv4 packs four octets into the uint32 address form used here.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
