// Package nids implements the intrusion-detection rule model the paper's
// accelerator serves (§I): "The rules used for DPI in an intrusion
// detection system such as Snort consist of two parts. The first part is a
// header rule which involves performing 5-tuple packet classification on a
// packet's header. The second part is a content rule where a specific
// string or strings must be searched for in a packet's payload at given
// locations."
//
// The package provides the 5-tuple header classifier, location-constrained
// content requirements (Snort offset/depth semantics), a rule compiler that
// deduplicates content strings into one string-matching pass, and the
// evaluation engine that turns raw matches into per-rule alerts.
package nids

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ruleset"
)

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

// Content is one payload requirement with Snort location semantics: the
// string must start at or after Offset, and when Depth > 0 it must lie
// entirely within the Depth-byte search window starting at Offset (so
// Depth must be at least len(Data); NewEngine validates this, as Snort
// does).
type Content struct {
	Data   []byte
	Offset int
	Depth  int
}

// allows reports whether a match starting at `start` satisfies the
// location constraint.
func (c Content) allows(start int) bool {
	if start < c.Offset {
		return false
	}
	if c.Depth > 0 && start+len(c.Data) > c.Offset+c.Depth {
		return false
	}
	return true
}

// Rule is one complete NIDS rule: header classification plus one or more
// content requirements, all of which must be satisfied.
type Rule struct {
	ID       int
	Name     string
	Header   HeaderRule
	Contents []Content
}

// Alert reports one rule firing on one packet.
type Alert struct {
	PacketID int
	RuleID   int
	RuleName string
}

// contentRef ties a deduplicated pattern back to (rule, content index).
type contentRef struct {
	rule int // index into Engine.rules
	idx  int // index into Rule.Contents
}

// Engine is a compiled NIDS: one string-matching machine over the union of
// all content strings (deduplicated — the paper's accelerator searches
// "6,275 unique strings" extracted from many more rules), plus the header
// classifier and per-rule content accounting.
type Engine struct {
	rules   []Rule
	machine *core.Machine
	// refs[patternID] lists every (rule, content) the pattern serves.
	refs map[int32][]contentRef
	set  *ruleset.Set
}

// NewEngine compiles rules. Every rule must have at least one content
// requirement (pure header rules belong to a classifier, not a DPI
// engine) and a unique ID.
func NewEngine(rules []Rule) (*Engine, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("nids: no rules")
	}
	e := &Engine{refs: make(map[int32][]contentRef)}
	seenID := map[int]bool{}
	byContent := map[string]int{} // content bytes -> pattern ID
	e.set = &ruleset.Set{}
	for ri, r := range rules {
		if len(r.Contents) == 0 {
			return nil, fmt.Errorf("nids: rule %d (%s) has no content requirements", r.ID, r.Name)
		}
		if len(r.Contents) > 32 {
			return nil, fmt.Errorf("nids: rule %d has %d contents; the evaluator tracks at most 32", r.ID, len(r.Contents))
		}
		if seenID[r.ID] {
			return nil, fmt.Errorf("nids: duplicate rule ID %d", r.ID)
		}
		seenID[r.ID] = true
		for ci, c := range r.Contents {
			if len(c.Data) == 0 {
				return nil, fmt.Errorf("nids: rule %d content %d is empty", r.ID, ci)
			}
			if c.Offset < 0 || c.Depth < 0 {
				return nil, fmt.Errorf("nids: rule %d content %d has negative offset/depth", r.ID, ci)
			}
			if c.Depth > 0 && c.Depth < len(c.Data) {
				return nil, fmt.Errorf("nids: rule %d content %d: depth %d below content length %d",
					r.ID, ci, c.Depth, len(c.Data))
			}
			key := string(c.Data)
			pid, ok := byContent[key]
			if !ok {
				pid = len(e.set.Patterns)
				byContent[key] = pid
				e.set.Patterns = append(e.set.Patterns, ruleset.Pattern{
					ID:   pid,
					Data: append([]byte(nil), c.Data...),
					Name: fmt.Sprintf("content-%d", pid),
				})
			}
			e.refs[int32(pid)] = append(e.refs[int32(pid)], contentRef{rule: ri, idx: ci})
		}
		e.rules = append(e.rules, r)
	}
	m, err := core.Build(e.set, core.Options{})
	if err != nil {
		return nil, err
	}
	e.machine = m
	return e, nil
}

// NumPatterns returns the number of unique content strings compiled — the
// quantity the paper's Table II columns are parameterized by.
func (e *Engine) NumPatterns() int { return e.set.Len() }

// Rules returns the compiled rules.
func (e *Engine) Rules() []Rule { return e.rules }

// Inspect evaluates one packet: header classification gates which rules
// are candidates, a single scan of the payload finds all content strings,
// and a rule fires when every one of its contents matched within its
// location constraint. Alerts are reported in rule order, at most once per
// rule per packet.
func (e *Engine) Inspect(packetID int, hdr FiveTuple, payload []byte) []Alert {
	// Candidate rules by header.
	candidate := make([]bool, len(e.rules))
	anyCandidate := false
	for i, r := range e.rules {
		if r.Header.Matches(hdr) {
			candidate[i] = true
			anyCandidate = true
		}
	}
	if !anyCandidate || len(payload) == 0 {
		return nil
	}
	// One matching pass over the payload, shared by every rule.
	satisfied := make([]int, len(e.rules)) // bitmask of satisfied contents
	for _, m := range e.machine.FindAll(payload) {
		start := m.End - len(e.set.Patterns[m.PatternID].Data)
		for _, ref := range e.refs[m.PatternID] {
			if !candidate[ref.rule] {
				continue
			}
			if e.rules[ref.rule].Contents[ref.idx].allows(start) {
				satisfied[ref.rule] |= 1 << uint(ref.idx)
			}
		}
	}
	var alerts []Alert
	for i, r := range e.rules {
		if !candidate[i] {
			continue
		}
		want := 1<<uint(len(r.Contents)) - 1
		if satisfied[i] == want {
			alerts = append(alerts, Alert{PacketID: packetID, RuleID: r.ID, RuleName: r.Name})
		}
	}
	return alerts
}

// IPv4 packs four octets into the uint32 address form used here.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}
