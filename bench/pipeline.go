package main

// The gateway's data path, composed by hand from the layers' public
// functions and run on one goroutine, a batch of packets per layer call:
//
//	capture.Source.Next → FiveTuple.Hash64 → flowtable.Table.DoHashed →
//	reassembly.Stream.Segment → engine.Flow.Write | Engine.ScanPacketsInto
//
// It makes the decisions gwFlow.ingest makes for this traffic (SYN reopens
// a FIN husk, stragglers of a finished connection are duplicates, FIN
// returns the scanner to the pool) and none of the gateway's own machinery:
// no admission, queue, collector, lanes, locks beyond the table's, or
// counters. What the gateway costs beyond this stack is therefore its own.

import (
	"bytes"
	"fmt"
	"io"

	dpi "repro"
	"repro/internal/ac"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flowtable"
	"repro/internal/nids"
	"repro/internal/reassembly"
)

// batchPackets is how many packets one layer call covers.
const batchPackets = 256

// Gateway defaults the pipeline has to restate (GatewayConfig.withDefaults).
const (
	defaultGapTimeout     = 4096
	defaultMaxFlows       = 1 << 16
	defaultMaxTotalBuffer = 16 << 20
)

// pflow is one connection's state, as gwFlow holds it.
type pflow struct {
	f    *engine.Flow // nil until the engine stage opens it, and after FIN
	asm  *reassembly.Stream
	done bool // finished by FIN; a husk until a SYN reopens it
}

// chunk is one in-order piece on its way from reassembly to the scanner.
type chunk struct {
	fl      *pflow
	data    []byte
	skipped int
	finish  bool // after this chunk the connection is complete
}

// layerCounts are the ratios measured where the work happens.
type layerCounts struct {
	packets, tcp, udp           uint64
	payloadBytes                uint64
	bufferedSegs, bufferedBytes uint64
	dupBytes                    uint64
	flowsOpened                 uint64
	matches                     uint64
}

type pipeline struct {
	w      *workload
	eng    *engine.Engine
	table  *flowtable.Table[*pflow]
	asmCfg reassembly.Config
	tr     *tracer
	tick   uint64 // the gateway's stream-packet clock
	n      layerCounts
	batch  int32
	stage  int32 // span the table's New/Evict callbacks are children of

	// per-batch scratch
	pkts   []capture.Packet
	hashes []uint64
	flows  []*pflow
	chunks []chunk
	udp    [][]byte
	burst  [][]ac.Match
	got    *pflow
	grab   func(*pflow)
}

func newPipeline(w *workload, g *core.Grouped, tr *tracer) *pipeline {
	p := &pipeline{
		w: w, eng: engine.New(g, 1), tr: tr,
		pkts:   make([]capture.Packet, 0, batchPackets),
		hashes: make([]uint64, batchPackets),
		flows:  make([]*pflow, batchPackets),
	}
	p.grab = func(fl *pflow) { p.got = fl }
	gap := uint64(defaultGapTimeout)
	switch {
	case w.gapTimeout < 0:
		gap = 0
	case w.gapTimeout > 0:
		gap = uint64(w.gapTimeout)
	}
	p.asmCfg = reassembly.Config{Budget: reassembly.NewBudget(defaultMaxTotalBuffer), GapTimeout: gap}
	p.table = flowtable.New(flowtable.Config[*pflow]{
		New: func(flowtable.Key) *pflow { return &pflow{} },
		Evict: func(_ flowtable.Key, fl *pflow) {
			if fl.f != nil {
				id := p.tr.begin("engine.flow_close", p.stage, p.batch)
				fl.f.Close()
				fl.f = nil
				p.tr.end(id, 1, 0)
			}
			if fl.asm != nil {
				fl.asm.Release()
			}
		},
		MaxFlows:  defaultMaxFlows,
		IdleTicks: uint64(w.idleTimeout),
	})
	return p
}

// pass runs the whole image through the stack once.
func (p *pipeline) pass() error {
	src, err := capture.NewSource(bytes.NewReader(p.w.image))
	if err != nil {
		return err
	}
	for eof := false; !eof; p.batch++ {
		root := p.tr.begin("batch", -1, p.batch)

		id := p.tr.begin("capture.next", root, p.batch)
		p.pkts = p.pkts[:0]
		nbytes := 0
		for len(p.pkts) < batchPackets {
			pkt, err := src.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			p.pkts = append(p.pkts, pkt)
			nbytes += len(pkt.Payload)
		}
		p.tr.end(id, len(p.pkts), nbytes)
		p.n.packets += uint64(len(p.pkts))
		p.n.payloadBytes += uint64(nbytes)

		id = p.tr.begin("nids.hash", root, p.batch)
		tcp := 0
		for i := range p.pkts {
			if p.pkts[i].Tuple.Proto == nids.ProtoTCP {
				p.hashes[i] = p.pkts[i].Tuple.Hash64()
				tcp++
			}
		}
		p.tr.end(id, tcp, 0)
		p.n.tcp += uint64(tcp)
		p.n.udp += uint64(len(p.pkts) - tcp)

		id = p.tr.begin("flowtable.do", root, p.batch)
		p.stage = id
		for i := range p.pkts {
			if p.pkts[i].Tuple.Proto == nids.ProtoTCP {
				p.table.DoHashed(p.pkts[i].Tuple, p.hashes[i], p.grab)
				p.flows[i] = p.got
			}
		}
		p.tr.end(id, tcp, 0)

		id = p.tr.begin("reassembly.segment", root, p.batch)
		p.chunks, p.udp = p.chunks[:0], p.udp[:0]
		segBytes := 0
		for i := range p.pkts {
			pkt := &p.pkts[i]
			if pkt.Tuple.Proto != nids.ProtoTCP {
				p.udp = append(p.udp, pkt.Payload)
				continue
			}
			segBytes += len(pkt.Payload)
			p.segment(p.flows[i], pkt)
		}
		p.tr.end(id, tcp, segBytes)

		id = p.tr.begin("engine.write", root, p.batch)
		written := 0
		for _, c := range p.chunks {
			fl := c.fl
			if fl.f == nil {
				oid := p.tr.begin("engine.flow_open", id, p.batch)
				fl.f = p.eng.Flow()
				p.tr.end(oid, 1, 0)
				p.n.flowsOpened++
			}
			if c.skipped > 0 {
				fl.f.SkipGap(c.skipped)
			}
			p.n.matches += uint64(len(fl.f.Write(c.data)))
			written += len(c.data)
			if c.finish {
				cid := p.tr.begin("engine.flow_close", id, p.batch)
				fl.f.Close()
				fl.f = nil
				p.tr.end(cid, 1, 0)
			}
		}
		p.tr.end(id, len(p.chunks), written)

		if len(p.udp) > 0 {
			id = p.tr.begin("engine.burst", root, p.batch)
			p.burst = p.eng.ScanPacketsInto(p.udp, p.burst)
			ubytes := 0
			for i, ms := range p.burst {
				p.n.matches += uint64(len(ms))
				ubytes += len(p.udp[i])
			}
			p.tr.end(id, len(p.udp), ubytes)
		}
		p.tr.end(root, len(p.pkts), nbytes)
	}
	return nil
}

// segment is gwFlow.ingest for a FlagSeq segment of an unclassified flow,
// with the scanner calls deferred to the engine stage.
func (p *pipeline) segment(fl *pflow, pkt *capture.Packet) {
	p.tick++
	if fl.done {
		if pkt.Flags&capture.FlagSYN == 0 {
			p.n.dupBytes += uint64(len(pkt.Payload))
			return
		}
		fl.done, fl.asm = false, nil
	}
	if fl.asm == nil {
		fl.asm = reassembly.NewStream(p.asmCfg)
	}
	var rf reassembly.Flags
	if pkt.Flags&capture.FlagFIN != 0 {
		rf |= reassembly.FIN
	}
	if pkt.Flags&capture.FlagSYN != 0 {
		rf |= reassembly.SYN
	}
	// Delivered chunks alias the payload or buffers the stream has let go
	// of, so they stay valid until the engine stage of this batch.
	res := fl.asm.Segment(pkt.Seq, pkt.Payload, rf, p.tick, func(data []byte, skipped int) {
		p.chunks = append(p.chunks, chunk{fl: fl, data: data, skipped: skipped})
	})
	if res.Buffered > 0 {
		p.n.bufferedSegs++
		p.n.bufferedBytes += uint64(res.Buffered)
	}
	p.n.dupBytes += uint64(res.Duplicate)
	if res.Event == reassembly.EventFinished {
		fl.asm.Release()
		fl.done = true
		p.chunks = append(p.chunks, chunk{fl: fl, finish: true})
	}
}

// buildGrouped compiles the automaton the way dpi.Compile(rules, Config{})
// does, one layer down, so the pipeline can own an internal engine.
func buildGrouped(rules *dpi.Ruleset) (*core.Grouped, error) {
	g, err := core.BuildGrouped(rules.InternalSet(), 1, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("core.BuildGrouped: %w", err)
	}
	return g, nil
}
