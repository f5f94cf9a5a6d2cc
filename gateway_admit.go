package dpi

// Admission — the first stage, on the caller's goroutine — and the drain barrier.

import (
	"fmt"
	"time"
)

type seqPacket struct {
	tuple   FiveTuple
	payload []byte
	seq     int // global ingest sequence number (PacketID attribution)
	seq32   uint32
	flags   TCPFlags
}

// laneOf is the lane a tuple's packets ride: its hash modulo the lane count,
// one rule for every protocol.
func (g *Gateway) laneOf(t FiveTuple) *gwLane {
	return g.lanes[t.Hash64()%uint64(len(g.lanes))]
}

// Ingest queues one packet. Under OverloadPolicy Block (the default) it
// blocks when the pipeline is saturated — the backpressure contract: a
// caller reading from a NIC or file cannot outrun the scan stages by more
// than the lane queues. Under a shedding policy it may drop the
// packet instead (fully accounted; see TryIngest to observe which). It
// returns an error only on a closed gateway or a packet TryIngest refuses.
func (g *Gateway) Ingest(pkt GatewayPacket) error {
	_, err := g.TryIngest(pkt)
	return err
}

// TryIngest is Ingest reporting the admission decision: admitted is false
// when the configured shedding policy dropped the packet (always true under
// Block). A shed packet still counts in Packets/Bytes — it reached the
// sensor — and its payload lands in the Shed ledger bucket. A shed TCP
// segment is a hole in its flow's sequence space, as if lost upstream: the
// flow holds what arrives behind it until GapTimeout skips the hole, so the
// exactness contract holds over the bytes that were delivered. A TCP packet
// without FlagSeq is refused with a wrapped ErrBadPacket before anything
// is counted.
func (g *Gateway) TryIngest(pkt GatewayPacket) (admitted bool, err error) {
	tcp := pkt.Tuple.Proto == ProtoTCP
	if tcp && pkt.Flags&FlagSeq == 0 {
		return false, fmt.Errorf("%w: TCP packet without FlagSeq", ErrBadPacket)
	}
	pol := g.cfg.OverloadPolicy
	ln := g.laneOf(pkt.Tuple)
	ln.gate.RLock()
	defer ln.gate.RUnlock()
	if g.closed {
		return false, fmt.Errorf("%w: Ingest", ErrClosed)
	}
	seq := g.seq.Add(1) - 1
	ln.n[cBytes].Add(uint64(len(pkt.Payload)))
	p := seqPacket{tuple: pkt.Tuple, payload: pkt.Payload, seq: int(seq), seq32: pkt.Seq, flags: pkt.Flags}
	// The lane's depth is raised across the (possibly blocking) send: a
	// concurrent Flush cannot declare the lane drained while this packet
	// may still slip in (TryIngest holds the gate shared, Flush takes it
	// exclusively), and the watchdog is stamped on the empty→busy edge so a
	// queue that is never dequeued shows its true stall age.
	if ln.depth.Add(1) == 1 {
		ln.lastProgress.Store(time.Now().UnixNano())
	}
	if pol == Block {
		ln.q <- p
		return true, nil
	}
	// Shedding admission: try without waiting.
	select {
	case ln.q <- p:
		return true, nil
	default:
	}
	newFlow := false
	if pol == ShedNewFlows {
		// Established TCP connections keep today's backpressure — a flow
		// already under inspection is never starved mid-stream. Only
		// packets that would create state (unknown TCP tuples, stateless
		// traffic) are sheddable, so overload cannot grow the flow table.
		// Asked only now that the queue is full, and of the lane's table
		// through the one method it answers from a foreign goroutine; the
		// answer must be exact, because a fresh tuple taken for established
		// would block here behind a stalled lane.
		newFlow = !tcp || !ln.table.Has(pkt.Tuple)
		if !newFlow {
			ln.q <- p
			return true, nil
		}
	}
	// Then wait out the deadline.
	if d := g.cfg.IngestDeadline; d > 0 {
		t := time.NewTimer(d)
		select {
		case ln.q <- p:
			t.Stop()
			return true, nil
		case <-t.C:
		}
	}
	ln.depth.Add(-1)
	ln.n[cShedPackets].Add(1)
	ln.n[cShedBytes].Add(uint64(len(p.payload)))
	if newFlow {
		ln.n[cShedNewFlows].Add(1)
	}
	return false, nil
}

// Flush blocks until every packet ingested before the call has been
// scanned (every lane queue is drained), making Stats
// and EvictIdleFlows deterministic checkpoints. Flush serializes against
// Ingest: concurrent Ingest calls block until the flush completes, so the
// drain barrier cannot be raced past — Flush returns only at a true
// everything-scanned point.
func (g *Gateway) Flush() {
	g.quiesce()
	g.resume()
}

// quiesce is the control plane's stop-the-world: it takes every lane's
// admission gate exclusively, in lane order — no Ingest is inside a send
// and none can start one until resume — then spins until every admitted
// packet has been scanned. The lanes consume whatever is queued, so every
// queue's depth — raised by admission before the send, lowered by the lane
// after each vector it took, panics contained per packet — reaches zero
// without outside help and, with admission stopped, stays there, which makes
// waiting the queues out one after another a barrier over all of them.
func (g *Gateway) quiesce() {
	for _, ln := range g.lanes {
		ln.gate.Lock()
	}
	for _, ln := range g.lanes {
		ln.drain()
	}
}

// resume reopens admission after quiesce.
func (g *Gateway) resume() {
	for _, ln := range g.lanes {
		ln.gate.Unlock()
	}
}
