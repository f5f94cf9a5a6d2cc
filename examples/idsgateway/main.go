// idsgateway simulates the paper's deployment scenario end to end: an
// intrusion detection accelerator on an edge router scanning mixed traffic
// against a large Snort-like ruleset — fronted by the real gateway layer.
// Interleaved TCP connections arrive as sequenced segments delivered out of
// order and retransmitted (what a real capture looks like), are rebuilt by
// the TCP reassembly stage, and are demultiplexed through the flow table
// (bounded live-flow state, LRU + idle eviction). Header rules classify
// each connection's 5-tuple before any payload byte is scanned: a trusted
// subnet passes uninspected, a blocked subnet is dropped unscanned, and
// web traffic is scanned with every match attributed to the admitting
// rule. Cross-packet attacks that straddle TCP segment boundaries — even
// when those segments arrive shuffled — are still caught because each flow
// is reassembled into its scanner's byte stream.
//
// The scan back-end is replicated into lanes (GatewayConfig.EngineShards ×
// StreamWorkers): the gateway runs one engine per lane over the one compiled
// automaton and pins each connection to a lane by tuple hash, just as the
// paper's device replicates fixed string-matching blocks and fans
// partitioned traffic across them. The lane count is invisible in the
// results — per-flow order and every detection are preserved — and the
// per-lane fan-out is reported at the end.
//
//	go run ./examples/idsgateway
package main

import (
	"fmt"
	"log"
	"sync"

	dpi "repro"
	"repro/fpga"
	"repro/internal/traffic"
)

func main() {
	rules, err := dpi.GenerateSnortLike(1603, 2010)
	if err != nil {
		log.Fatal(err)
	}
	matcher, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// For the hardware the ruleset is too large for one block: split across
	// 2 groups, giving 3 concurrent packet sets on the Stratix III (Table II).
	// The software matcher above is one automaton regardless.
	accel, err := fpga.New(matcher, fpga.Stratix3, 2)
	if err != nil {
		log.Fatal(err)
	}
	rep := accel.Report()
	fmt.Printf("%s: %d blocks as %d sets × %d groups, line rate %.1f Gbps, max %.2f W\n",
		rep.Device, rep.Blocks, rep.ConcurrentSets, rep.Groups, rep.ThroughputGbps, rep.MaxPowerW)

	// Interleaved multi-flow traffic with exact ground truth, including
	// attacks deliberately split across TCP segment boundaries — and the
	// segments themselves delivered out of order with retransmissions.
	w, err := traffic.GenerateFlows(rules.InternalSet(), traffic.FlowConfig{
		Flows: 120, SegmentsPerFlow: 6, SegmentBytes: 1000,
		Seed: 7, CrossDensity: 1.2, AttackDensity: 0.5, Profile: traffic.Textual,
		Sequenced: true, ReorderWindow: 3, RetransmitDensity: 0.8,
	})
	if err != nil {
		log.Fatal(err)
	}
	retrans := 0
	for _, p := range w.Packets {
		if p.Retransmit {
			retrans++
		}
	}
	fmt.Printf("gateway ingesting %d TCP segments from %d flows (%d cross-boundary attacks, %d retransmissions, reorder window 3)...\n",
		len(w.Packets), len(w.Tuples), w.CrossPlants(), retrans)

	// Header rules gate each connection before payload scanning. Generated
	// flows have SrcIP 10.0.0.f and DstPort 80, so the first /29 (flows
	// 0-7) is "trusted", the next /29 (flows 8-15) is "blocked", and the
	// rest is web traffic scanned under the alert rule.
	vrules := []dpi.VerdictRule{
		{ID: 1, Name: "pass-trusted-net", Verdict: dpi.VerdictPass,
			Header: dpi.HeaderRule{Proto: dpi.ProtoTCP, SrcNet: dpi.Prefix{Addr: dpi.IPv4(10, 0, 0, 0), Bits: 29}}},
		{ID: 2, Name: "drop-blocked-net", Verdict: dpi.VerdictDrop,
			Header: dpi.HeaderRule{Proto: dpi.ProtoTCP, SrcNet: dpi.Prefix{Addr: dpi.IPv4(10, 0, 0, 8), Bits: 29}}},
		{ID: 3, Name: "alert-web", Verdict: dpi.VerdictAlert,
			Header: dpi.HeaderRule{Proto: dpi.ProtoTCP, DstPorts: dpi.PortRange{Lo: 80, Hi: 80}}},
	}

	// The software gateway: bounded hash-pinned per-flow lanes over a
	// 5-tuple flow table, TCP reassembly ahead of each flow's scanner —
	// and EngineShards: 2, twice the lanes, each with its own flow table and
	// counters, splitting the connection load by tuple hash, under a 4 MiB
	// memory budget.
	var mu sync.Mutex
	byTuple := map[dpi.FiveTuple][]dpi.FlowMatch{}
	gw, err := dpi.NewGateway(matcher, dpi.GatewayConfig{
		MemoryBudget: 4 << 20, EngineShards: 2, Rules: vrules,
	}, func(fm dpi.FlowMatch) {
		mu.Lock()
		byTuple[fm.Tuple] = append(byTuple[fm.Tuple], fm)
		mu.Unlock()
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range w.Packets {
		err := gw.Ingest(dpi.GatewayPacket{
			Tuple: p.Tuple, Seq: p.TCPSeq, Flags: dpi.TCPFlags(p.Flags), Payload: p.Payload,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		log.Fatal(err)
	}
	st := gw.Stats()
	fmt.Printf("  %d packets (%d KB): %d reassembled in-order KB, %d segments buffered out-of-order, %d duplicate KB discarded\n",
		st.Packets, st.Bytes/1024, st.ReassembledBytes/1024, st.OutOfOrderSegs, st.DuplicateBytes/1024)
	fmt.Printf("  verdicts: %d alert / %d pass / %d drop flows (%d KB dropped unscanned); %d matches; %d flows finished via FIN\n",
		st.VerdictAlerts, st.VerdictPasses, st.VerdictDrops, st.DroppedBytes/1024, st.Matches, st.FlowsFinished)
	for i, ls := range gw.LaneStats() {
		fmt.Printf("  lane %d: %d flows opened, %d KB reassembled into per-flow scanners\n",
			i, ls.FlowsOpened, ls.ReassembledBytes/1024)
	}

	// Ground truth: the matcher is exhaustive, reassembly restores every
	// stream exactly (duplicates are exact copies and nothing is lost), and
	// the table is sized for the offered load — so every planted attack on
	// a scanned flow must be reported, and gated flows must report nothing.
	found, lost, gatedSilent := 0, 0, 0
	for f, plants := range w.Planted {
		tuple := w.Tuples[f]
		mu.Lock()
		ms := byTuple[tuple]
		mu.Unlock()
		if f < 16 { // pass + drop nets: never scanned
			if len(ms) == 0 {
				gatedSilent++
			}
			continue
		}
		reported := map[[2]int]bool{}
		for _, m := range ms {
			reported[[2]int{m.PatternID, m.End}] = true
		}
		for _, pl := range plants {
			if reported[[2]int{int(pl.PatternID), pl.End}] {
				found++
			} else {
				lost++
			}
		}
	}
	fmt.Printf("  planted-attack detection on scanned flows: %d reported, %d lost; %d/16 gated flows stayed silent\n",
		found, lost, gatedSilent)

	// A few named detections with their rule attribution.
	shown := 0
	for f, tuple := range w.Tuples {
		for _, m := range byTuple[tuple] {
			if m.End-m.Start >= 6 && shown < 5 {
				fmt.Printf("  e.g. flow %3d (%s) [%4d,%4d) rule %q via %q\n",
					f, tuple, m.Start, m.End, rules.Name(m.PatternID), vrules[2].Name)
				shown++
			}
		}
	}
}
