package main

// The traced run: the per-layer budget of one workload. Three parts, all
// measured from outside the program:
//
//  1. the stack — the hand-composed pipeline (pipeline.go) run with spans
//     on and, alternating pass by pass, with spans off; layer self times
//     come from the spans, allocations from one extra counting pass;
//  2. the kernel alone — Matcher.Scan over whole streams, so it pays no
//     per-packet cost at all, on the auto, reference and prefiltered
//     backends;
//  3. the gateway — the real thing, untraced, for goodput, process CPU per
//     packet, and the rows only a running gateway has: ingest wait, the
//     pass-all floor, latency at a fixed rate, swap pause, drain, scrape,
//     two shards.
//
// gateway.self_ns_per_pkt is (3) minus (1): queues, channel hops, atomics,
// locks and the scheduler. End-to-end metrics are never taken from here.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dpi "repro"
	"repro/internal/capture"
)

// perLayer declares every metric the traced run reports, in
// BENCHMARK.json's order.
var perLayer = []metricDecl{
	{Name: "capture.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "capture.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "capture.copy_bytes_per_pkt", Unit: "B", Better: "lower"},
	{Name: "nids.hash_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "flowtable.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "flowtable.hit_share", Unit: "share", Better: "higher"},
	{Name: "flowtable.created_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "flowtable.evicted_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "reassembly.ns_per_seg", Unit: "ns", Better: "lower"},
	{Name: "reassembly.allocs_per_seg", Unit: "count", Better: "lower"},
	{Name: "reassembly.buffered_seg_share", Unit: "share", Better: "lower"},
	{Name: "reassembly.dup_byte_share", Unit: "share", Better: "lower"},
	{Name: "reassembly.copy_bytes_per_byte", Unit: "share", Better: "lower"},
	{Name: "engine.flow_write_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "engine.flow_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.burst_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "core.scan_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "core.ref_ns_per_byte", Unit: "ns", Better: "lower"},
	{Name: "core.skim_share", Unit: "share", Better: "higher"},
	{Name: "core.suspect_per_kb", Unit: "count", Better: "lower"},
	{Name: "core.matches_per_kb", Unit: "count", Better: "lower"},
	{Name: "core.kernel_bytes", Unit: "B", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "goodput_gbps", Unit: "Gbit/s", Better: "higher"},
	{Name: "gateway.cpu_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "gateway.stack_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "gateway.self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "gateway.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "gateway.ingest_wait_share", Unit: "share", Better: "lower"},
	{Name: "gateway.pass_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "gateway.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.lat_p90_us", Unit: "us", Better: "lower"},
	{Name: "gateway.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "gateway.swap_pause_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.flush_us", Unit: "us", Better: "lower"},
	{Name: "gateway.heap_bytes_per_flow", Unit: "B", Better: "lower"},
	{Name: "gateway.shard2_ratio", Unit: "ratio", Better: "higher"},
	{Name: "metrics.scrape_us", Unit: "us", Better: "lower"},
	{Name: "metrics.scrape_bytes", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.calib_gbps", Unit: "Gbit/s", Better: "higher"},
	{Name: "bench.gen_late_share", Unit: "share", Better: "lower"},
}

// Shares of --seconds each part of the traced run may spend.
const (
	stackShare   = 0.25
	kernelShare  = 0.06
	cpuShare     = 0.12 // cut into goodputWindows closed-loop windows
	waitShare    = 0.05
	passShare    = 0.05
	shardShare   = 0.10
	latencyShare = 0.12
	swapGapShare = 0.003 // between two SwapRules calls
	swapCount    = 11

	goodputWindows = 8
)

func runTraced(names []string, cfg runConfig, traceOut string) ([]*result, error) {
	rules, err := dpi.GenerateSnortLike(rulesetStrings, rulesSeed)
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, name := range names {
		p, _, err := prepare(name, rules, cfg)
		if err != nil {
			return nil, err
		}
		out := traceOut
		if out == "" {
			out = filepath.Join(os.TempDir(), fmt.Sprintf("bench-trace-%s.json", name))
		} else if len(names) > 1 {
			out = fmt.Sprintf("%s.%s", traceOut, name)
		}
		if err := p.traceLayers(rules, cfg, out); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, p.res)
	}
	return results, nil
}

func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *prepared) traceLayers(rules *dpi.Ruleset, cfg runConfig, spansPath string) error {
	res := p.res
	calibLen := cfg.share(calibShare / 6)
	calib := []float64{calibrate(calibLen)}

	cfg.logf("%s: stack, spans on and off", p.w.name)
	stackNs, err := p.traceStack(rules, cfg, spansPath)
	if err != nil {
		return err
	}
	calib = append(calib, calibrate(calibLen))

	cfg.logf("%s: kernel alone", p.w.name)
	if err := p.traceKernel(rules, cfg); err != nil {
		return err
	}
	calib = append(calib, calibrate(calibLen))

	cfg.logf("%s: gateway", p.w.name)
	if err := p.traceGateway(rules, cfg, stackNs); err != nil {
		return err
	}
	calib = append(calib, calibrate(calibLen))
	for _, c := range calib {
		res.add("bench.calib_gbps", "Gbit/s", c)
	}
	return nil
}

// traceStack runs the composed pipeline and reports every layer's self
// time and counts. It returns the stack's ns per packet.
func (p *prepared) traceStack(rules *dpi.Ruleset, cfg runConfig, spansPath string) (float64, error) {
	res := p.res
	g, err := buildGrouped(rules)
	if err != nil {
		return 0, err
	}
	tr := newTracer(false)
	on, off := newPipeline(p.w, g, tr), newPipeline(p.w, g, nil)
	// One pass each fills the table and the scanner pool.
	for _, pl := range []*pipeline{on, off} {
		if err := pl.pass(); err != nil {
			return 0, err
		}
		pl.n = layerCounts{}
	}
	tr.spans = tr.spans[:0]
	before := on.table.Stats()
	var onNs, offNs time.Duration
	passes := 0
	for start := time.Now(); passes < 2 || time.Since(start) < cfg.share(stackShare); passes++ {
		t := time.Now()
		if err := on.pass(); err != nil {
			return 0, err
		}
		onNs += time.Since(t)
		t = time.Now()
		if err := off.pass(); err != nil {
			return 0, err
		}
		offNs += time.Since(t)
	}
	res.Attempted += on.n.packets + off.n.packets
	for _, pl := range []*pipeline{on, off} {
		if want := uint64(passes) * p.want; pl.n.matches != want {
			res.fail(absDiff(pl.n.matches, want), "%s composed pipeline: %d matches, oracle %d", p.w.name, pl.n.matches, want)
		}
	}
	if err := tr.write(spansPath, p.w.name); err != nil {
		return 0, err
	}

	// Allocations: the same pipeline with the allocator's counters read at
	// every span boundary; its times mean nothing and are dropped.
	ctr := newTracer(true)
	cnt := newPipeline(p.w, g, ctr)
	if err := cnt.pass(); err != nil {
		return 0, err
	}
	ctr.spans = ctr.spans[:0]
	if err := cnt.pass(); err != nil {
		return 0, err
	}
	allocs := ctr.byLayer()

	l := tr.byLayer()
	n := on.n
	pkts, tcp := float64(n.packets), float64(n.tcp)
	ts := on.table.Stats()
	c := l["capture.next"]
	res.add("capture.ns_per_pkt", "ns", per(float64(c.SelfNs), pkts))
	ca := allocs["capture.next"]
	res.add("capture.allocs_per_pkt", "count", per(float64(ca.Allocs), float64(ca.Pkts)))
	res.add("capture.copy_bytes_per_pkt", "B", per(float64(ca.AllocBytes), float64(ca.Pkts)))
	res.add("nids.hash_ns_per_pkt", "ns", per(float64(l["nids.hash"].SelfNs), tcp))
	res.add("flowtable.ns_per_op", "ns", per(float64(l["flowtable.do"].SelfNs), tcp))
	created := float64(ts.Created - before.Created)
	res.add("flowtable.hit_share", "share", 1-per(created, tcp))
	res.add("flowtable.created_per_kpkt", "count", 1000*per(created, pkts))
	evicted := float64(ts.EvictedIdle + ts.EvictedCap - before.EvictedIdle - before.EvictedCap)
	res.add("flowtable.evicted_per_kpkt", "count", 1000*per(evicted, pkts))
	r := l["reassembly.segment"]
	res.add("reassembly.ns_per_seg", "ns", per(float64(r.SelfNs), tcp))
	ra := allocs["reassembly.segment"]
	res.add("reassembly.allocs_per_seg", "count", per(float64(ra.Allocs), float64(ra.Pkts)))
	res.add("reassembly.buffered_seg_share", "share", per(float64(n.bufferedSegs), tcp))
	res.add("reassembly.dup_byte_share", "share", per(float64(n.dupBytes), float64(r.Bytes)))
	res.add("reassembly.copy_bytes_per_byte", "share", per(float64(n.bufferedBytes), float64(r.Bytes)))
	w := l["engine.write"]
	res.add("engine.flow_write_ns_per_byte", "ns", per(float64(w.SelfNs), float64(w.Bytes)))
	cycle := l["engine.flow_open"].SelfNs + l["engine.flow_close"].SelfNs
	res.add("engine.flow_cycle_ns", "ns", per(float64(cycle), float64(n.flowsOpened)))
	b := l["engine.burst"]
	res.add("engine.burst_ns_per_pkt", "ns", per(float64(b.SelfNs), float64(n.udp)))
	ea := allocs["engine.write"].Allocs + allocs["engine.flow_open"].Allocs + allocs["engine.flow_close"].Allocs + allocs["engine.burst"].Allocs
	res.add("engine.allocs_per_pkt", "count", per(float64(ea), float64(cnt.n.packets)))

	// The product's layers only: the batch roots' own time is this file's
	// loop, not the sensor's.
	stack := c.SelfNs + l["nids.hash"].SelfNs + l["flowtable.do"].SelfNs + r.SelfNs + w.SelfNs + cycle + b.SelfNs
	res.add("gateway.stack_ns_per_pkt", "ns", per(float64(stack), pkts))
	res.add("trace.overhead_share", "share", per(float64(onNs-offNs), float64(offNs)))
	res.note("trace.spans", "count", float64(len(tr.spans)))
	res.note("trace.pipeline_ns_per_pkt", "ns", per(float64(offNs.Nanoseconds()), pkts))
	return per(float64(stack), pkts), nil
}

// scanAll runs Matcher.Scan over every flow's whole stream and every
// datagram: the kernel with no packets in the way.
func (p *prepared) scanAll(m *dpi.Matcher) (time.Duration, uint64, uint64) {
	var matches, bytes uint64
	count := func(dpi.Match) { matches++ }
	start := time.Now()
	for _, s := range p.w.streams {
		m.Scan(s, count)
		bytes += uint64(len(s))
	}
	for _, d := range p.w.datagrams {
		m.Scan(d, count)
		bytes += uint64(len(d))
	}
	return time.Since(start), matches, bytes
}

func (p *prepared) traceKernel(rules *dpi.Ruleset, cfg runConfig) error {
	res := p.res
	for start, n := time.Now(), 0; n < 3 || time.Since(start) < cfg.share(kernelShare); n++ {
		d, matches, bytes := p.scanAll(p.m)
		if matches != p.want {
			res.fail(absDiff(matches, p.want), "%s Matcher.Scan: %d matches, oracle %d", p.w.name, matches, p.want)
		}
		res.add("core.scan_ns_per_byte", "ns", per(float64(d.Nanoseconds()), float64(bytes)))
	}

	// The reference interpreter is the yardstick that does not depend on
	// which kernel tricks this machine rewards.
	ref, err := dpi.Compile(rules, dpi.Config{Backend: dpi.BackendReference})
	if err != nil {
		return err
	}
	d, matches, bytes := p.scanAll(ref)
	if matches != p.want {
		res.fail(absDiff(matches, p.want), "%s reference Scan: %d matches, oracle %d", p.w.name, matches, p.want)
	}
	res.add("core.ref_ns_per_byte", "ns", per(float64(d.Nanoseconds()), float64(bytes)))
	res.add("core.matches_per_kb", "count", 1024*per(float64(p.want), float64(bytes)))

	// How suspect the traffic looks to the lossy first stage: only the
	// prefiltered backend keeps these counters.
	pre, err := dpi.Compile(rules, dpi.Config{Backend: dpi.BackendPrefiltered})
	if err != nil {
		return err
	}
	if _, matches, _ = p.scanAll(pre); matches != p.want {
		res.fail(absDiff(matches, p.want), "%s prefiltered Scan: %d matches, oracle %d", p.w.name, matches, p.want)
	}
	ks := pre.Kernel()
	res.add("core.skim_share", "share", per(float64(ks.SkimmedBytes), float64(bytes)))
	res.add("core.suspect_per_kb", "count", 1024*per(float64(ks.SuspectWindows), float64(bytes)))

	k := p.m.Kernel()
	res.add("core.kernel_bytes", "B", float64(k.TotalBytes+k.PrefilterBytes+k.AccelPairBytes))
	for range 5 {
		start := time.Now()
		if _, err := dpi.Compile(rules, dpi.Config{}); err != nil {
			return err
		}
		res.add("core.compile_ms", "ms", float64(time.Since(start).Nanoseconds())/1e6)
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *prepared) traceGateway(rules *dpi.Ruleset, cfg runConfig, stackNs float64) error {
	res := p.res
	gc := p.w.gatewayConfig()

	base := heapAlloc() // after Compile: what is left is the gateway's own
	r, err := newReplayer(p.w, p.m, p.want, gc, res)
	if err != nil {
		return err
	}
	c := r.checkpoint()
	res.add("gateway.flush_us", "us", float64(c.flush.Nanoseconds())/1e3)
	res.add("gateway.heap_bytes_per_flow", "B", per(float64(c.heap)-float64(base), float64(c.flows)))
	res.add("metrics.scrape_us", "us", float64(c.scrape.Nanoseconds())/1e3)
	res.add("metrics.scrape_bytes", "B", float64(c.scrapeBytes))

	// goodput_gbps is the median of the raw closed-loop windows: payload
	// bits ingested over wall time, Flush inside the window. Process CPU and
	// mallocs are read around all of them.
	r.window(cfg.share(cpuShare) / 4) // warm
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	m0 := mallocs()
	var all windowStats
	for range goodputWindows {
		ws := r.window(cfg.share(cpuShare) / goodputWindows)
		res.add("goodput_gbps", "Gbit/s", ws.gbps())
		all.elapsed += ws.elapsed
		all.packets += ws.packets
	}
	m1 := mallocs()
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	goodput := res.Metrics["goodput_gbps"].Value
	cpuNs := per(float64((cpu1 - cpu0).Nanoseconds()), float64(all.packets))
	res.add("gateway.cpu_ns_per_pkt", "ns", cpuNs)
	res.add("gateway.self_ns_per_pkt", "ns", cpuNs-stackNs)
	res.add("gateway.allocs_per_pkt", "count", per(float64(m1-m0), float64(all.packets)))
	res.note("gateway.wall_ns_per_pkt", "ns", per(float64(all.elapsed.Nanoseconds()), float64(all.packets)))

	wait, err := r.ingestWait(cfg.share(waitShare))
	if err != nil {
		return err
	}
	res.add("gateway.ingest_wait_share", "share", wait)

	pauses, err := r.swapPauses(rules, cfg.share(swapGapShare))
	if err != nil {
		return err
	}
	for _, us := range pauses {
		res.add("gateway.swap_pause_p50_us", "us", us)
	}
	if err := r.gw.Close(); err != nil {
		return err
	}

	// The same feed with every flow exempted by one pass-all rule:
	// admission, collector, lane hop and flow table, and nothing after.
	passCfg := gc
	passCfg.Rules = []dpi.VerdictRule{{ID: 1, Name: "pass-all", Verdict: dpi.VerdictPass}}
	pr, err := newReplayer(p.w, p.m, 0, passCfg, res)
	if err != nil {
		return err
	}
	pr.window(cfg.share(passShare) / 4)
	ps := pr.window(cfg.share(passShare))
	res.add("gateway.pass_ns_per_pkt", "ns", per(float64(ps.elapsed.Nanoseconds()), float64(ps.packets)))
	if err := pr.gw.Close(); err != nil {
		return err
	}

	shardCfg := gc
	shardCfg.EngineShards = 2
	sr, err := newReplayer(p.w, p.m, p.want, shardCfg, res)
	if err != nil {
		return err
	}
	sr.window(cfg.share(shardShare) / 4)
	ss := sr.window(cfg.share(shardShare))
	res.add("gateway.shard2_ratio", "ratio", per(ss.gbps(), goodput))
	res.note("nproc", "count", float64(runtime.NumCPU()))
	res.note("gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	if err := sr.gw.Close(); err != nil {
		return err
	}

	pkts, err := p.w.translate()
	if err != nil {
		return err
	}
	ls, err := openLoop(p.w, p.m, p.want, pkts, cfg.share(latencyShare), res)
	if err != nil {
		return err
	}
	res.add("gateway.lat_p50_us", "us", ls.p50)
	res.add("gateway.lat_p90_us", "us", ls.p90)
	res.add("gateway.lat_p99_us", "us", ls.p99)
	res.add("bench.gen_late_share", "share", ls.lateShare)
	res.note("gateway.lat_samples", "count", float64(ls.samples))
	res.note("gateway.lat_kpps", "kpps", float64(p.w.latencyKpps))
	return nil
}

// ingestWait replays for d with the capture loop written out, so the
// feeder's time inside Ingest can be told from its time translating
// frames. It returns the share of the feeder's wall time spent in Ingest.
func (r *replayer) ingestWait(d time.Duration) (float64, error) {
	var inside time.Duration
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < d {
		src, err := capture.NewSource(bytes.NewReader(r.w.image))
		if err != nil {
			return 0, err
		}
		for {
			pkt, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			t := time.Now()
			err = r.gw.Ingest(gatewayPacket(pkt))
			inside += time.Since(t)
			if err != nil {
				return 0, err
			}
		}
		r.res.Attempted += uint64(r.w.packets)
		passes++
	}
	feeding := time.Since(start)
	r.gw.Flush()
	r.check(passes, "ingest-wait window")
	return per(float64(inside), float64(feeding)), nil
}

// swapPauses installs swapCount freshly compiled copies of the ruleset
// while a feeder keeps the gateway under closed-loop load, and returns how
// long each SwapRules call held the caller, in µs.
func (r *replayer) swapPauses(rules *dpi.Ruleset, gap time.Duration) ([]float64, error) {
	next := make([]*dpi.Matcher, swapCount)
	for i := range next {
		m, err := dpi.Compile(rules, dpi.Config{})
		if err != nil {
			return nil, err
		}
		next[i] = m
	}
	stop := make(chan struct{})
	fed := make(chan int)
	go func() {
		passes := 0
		for {
			select {
			case <-stop:
				fed <- passes
				return
			default:
				r.replay(bytes.NewReader(r.w.image), r.w.packets)
				passes++
			}
		}
	}()
	var pauses []float64
	var swapErr error
	for _, m := range next {
		time.Sleep(gap)
		t := time.Now()
		if swapErr = r.gw.SwapRules(m); swapErr != nil {
			break
		}
		pauses = append(pauses, float64(time.Since(t).Nanoseconds())/1e3)
	}
	close(stop)
	passes := <-fed
	r.gw.Flush()
	if swapErr != nil {
		return nil, swapErr
	}
	// Every generation holds the same rules, so the oracle is unchanged.
	r.check(passes, "swap window")
	return pauses, nil
}
