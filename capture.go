package dpi

// The capture seam: ReplayPcap is where recorded traffic (classic libpcap
// files, read by internal/capture) enters the gateway pipeline. The
// translator turns each captured Ethernet/IPv4 frame into the one packet
// model, nids.Packet — 5-tuple, raw TCP sequence number, FlagSeq plus
// SYN/FIN/RST in the one flag word — which is a GatewayPacket, so the
// packet is ingested as it comes and treated exactly like live traffic:
// TCP segments route through reassembly (sequence wraparound, overlaps
// and mid-stream pickup included), UDP and other IP protocols are scanned
// per packet on the same lanes. Frames the translator cannot deliver (non-IPv4,
// fragments, header-truncated records, pure ACKs) are counted in
// ReplayStats, never silently dropped — the same nothing-is-dropped
// accounting contract GatewayStats keeps.

import (
	"io"

	"repro/internal/capture"
)

// ReplayStats accounts one pcap replay: every captured frame is either
// delivered to the gateway (Ingested) or counted under the skip reason
// that excluded it. Frames == Ingested + NonIP + Fragments + ShortHeaders
// + PureAcks.
type ReplayStats struct {
	Frames   uint64 // records read from the pcap
	Ingested uint64 // packets delivered to Gateway.Ingest

	TCPSegments    uint64 // delivered TCP segments (reassembly path)
	UDPPackets     uint64 // delivered UDP packets (stateless path)
	OtherIPPackets uint64 // delivered other-IP packets (stateless path)

	NonIP        uint64 // skipped: not IPv4 (ARP, IPv6, unknown EtherType)
	Fragments    uint64 // skipped: IPv4 fragments
	ShortHeaders uint64 // skipped: capture ends inside a link/IP/transport header
	PureAcks     uint64 // skipped: payload-less TCP with no SYN/FIN/RST

	VLANTags     uint64 // 802.1Q/802.1ad tags stripped
	Truncated    uint64 // delivered packets whose payload the snap length cut
	PayloadBytes uint64 // payload bytes delivered
}

func replayStats(ts capture.TranslateStats, ingested uint64) ReplayStats {
	return ReplayStats{
		Frames:         ts.Frames,
		Ingested:       ingested,
		TCPSegments:    ts.TCPSegments,
		UDPPackets:     ts.UDPPackets,
		OtherIPPackets: ts.OtherIP,
		NonIP:          ts.NonIP,
		Fragments:      ts.Fragments,
		ShortHeaders:   ts.Short,
		PureAcks:       ts.EmptyTCP,
		VLANTags:       ts.VLANTags,
		Truncated:      ts.Truncated,
		PayloadBytes:   ts.PayloadBytes,
	}
}

// ReplayPcap reads one classic libpcap capture from r and ingests every
// translatable packet, blocking on the gateway's backpressure as it goes.
// It does not Flush or Close the gateway, so captures can be replayed
// back-to-back into one gateway (rotated capture files of the same link:
// flows — TCP sequence wraparound included — continue across file
// boundaries); call Flush before reading Stats.
//
// A clean end of file is not an error. A capture truncated mid-record
// returns io.ErrUnexpectedEOF (wrapped) along with the stats accumulated
// up to the cut, so a partial replay is visible rather than mistaken for a
// short capture.
func (g *Gateway) ReplayPcap(r io.Reader) (ReplayStats, error) {
	src, err := capture.NewSource(r)
	if err != nil {
		return ReplayStats{}, err
	}
	var ingested uint64
	for {
		pkt, err := src.Next()
		if err == io.EOF {
			return replayStats(src.Stats(), ingested), nil
		}
		if err != nil {
			return replayStats(src.Stats(), ingested), err
		}
		if err := g.Ingest(pkt); err != nil {
			return replayStats(src.Stats(), ingested), err
		}
		ingested++
	}
}
