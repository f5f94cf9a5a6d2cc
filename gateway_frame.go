package dpi

// The wire format of IngestReader feeds.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame format v2 for IngestReader/WriteFrame: a 23-byte big-endian header —
// Version(1)=2 SrcIP(4) DstIP(4) SrcPort(2) DstPort(2) Proto(1) Flags(1)
// Seq(4) PayloadLen(4) — followed by PayloadLen payload bytes. v2 extends
// the original 17-byte format with the leading version byte plus the TCP
// Flags/Seq fields that drive reassembly; v1 frames (which had no version
// byte) are no longer accepted — re-encode feeds with WriteFrame.
const (
	frameVersion   = 2
	frameHeaderLen = 23
)

// WriteFrame writes pkt in the gateway's frame format.
func WriteFrame(w io.Writer, pkt GatewayPacket) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = frameVersion
	binary.BigEndian.PutUint32(hdr[1:], pkt.Tuple.SrcIP)
	binary.BigEndian.PutUint32(hdr[5:], pkt.Tuple.DstIP)
	binary.BigEndian.PutUint16(hdr[9:], pkt.Tuple.SrcPort)
	binary.BigEndian.PutUint16(hdr[11:], pkt.Tuple.DstPort)
	hdr[13] = pkt.Tuple.Proto
	hdr[14] = byte(pkt.Flags)
	binary.BigEndian.PutUint32(hdr[15:], pkt.Seq)
	binary.BigEndian.PutUint32(hdr[19:], uint32(len(pkt.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt.Payload)
	return err
}

// ReadFrame reads one framed packet. It returns io.EOF cleanly at a frame
// boundary and io.ErrUnexpectedEOF on a truncated frame. Frames with an
// unknown version byte are rejected immediately; frames whose payload
// exceeds maxPayload are rejected without allocating.
func ReadFrame(r io.Reader, maxPayload int) (GatewayPacket, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return GatewayPacket{}, err // io.EOF here is a clean end of feed
	}
	if hdr[0] != frameVersion {
		return GatewayPacket{}, fmt.Errorf("dpi: unsupported frame version %d (want %d)", hdr[0], frameVersion)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return GatewayPacket{}, err
	}
	n := binary.BigEndian.Uint32(hdr[19:])
	if int64(n) > int64(maxPayload) {
		return GatewayPacket{}, fmt.Errorf("dpi: frame payload %d exceeds limit %d", n, maxPayload)
	}
	pkt := GatewayPacket{
		Tuple: FiveTuple{
			SrcIP:   binary.BigEndian.Uint32(hdr[1:]),
			DstIP:   binary.BigEndian.Uint32(hdr[5:]),
			SrcPort: binary.BigEndian.Uint16(hdr[9:]),
			DstPort: binary.BigEndian.Uint16(hdr[11:]),
			Proto:   hdr[13],
		},
		Flags: TCPFlags(hdr[14]),
		Seq:   binary.BigEndian.Uint32(hdr[15:]),
	}
	if n > 0 {
		pkt.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, pkt.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return GatewayPacket{}, err
		}
	}
	return pkt, nil
}
