package main

// Driving a real gateway: the closed-loop replayer, the open-loop
// generator, the drained mid-pass checkpoint and the set-up cycle. Both
// the end-to-end protocol and the gateway rows of the traced run are built
// from these; every interval they drive is checked against the FindAll
// oracle and the conservation ledger, counted into the result when it
// fails, printed with the full GatewayStats, and never retried.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	dpi "repro"
)

// measured is one metric of one workload: the reported value, the unit and
// every sample it was computed from. The value is the samples' median
// unless the metric's definition says otherwise (setup_s reports its
// fastest cycle).
type measured struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples"`
}

// result is everything one workload's run produced.
type result struct {
	Workload   string              `json:"workload"`
	Backend    string              `json:"backend"`       // what auto resolved to
	Attempted  uint64              `json:"ops_attempted"` // packets offered
	Failed     uint64              `json:"ops_failed"`    // shed or refused + |matches-oracle| + 1 per unbalanced or unsound interval
	Violations []string            `json:"violations,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
	// Notes are readings printed beside the metrics: declared nowhere,
	// gated nowhere, but they say how far to trust the numbers.
	Notes map[string]measured `json:"notes,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]measured{}, Notes: map[string]measured{}}
}

func appendSample(ms map[string]measured, name, unit string, v float64) {
	m := ms[name]
	m.Unit = unit
	m.Samples = append(m.Samples, v)
	m.Value = median(m.Samples)
	ms[name] = m
}

func (r *result) add(name, unit string, v float64)  { appendSample(r.Metrics, name, unit, v) }
func (r *result) note(name, unit string, v float64) { appendSample(r.Notes, name, unit, v) }

func (r *result) fail(n uint64, format string, args ...any) {
	r.Failed += n
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// replayer is one long-lived gateway replaying one workload's image in a
// closed loop: the next packet is offered when Ingest returns.
type replayer struct {
	w       *workload
	want    uint64 // oracle matches per pass; 0 when a verdict rule exempts everything
	gw      *dpi.Gateway
	matches atomic.Uint64
	last    dpi.GatewayStats
	seen    uint64 // matches at the last check
	res     *result
}

func newReplayer(w *workload, m *dpi.Matcher, want uint64, cfg dpi.GatewayConfig, res *result) (*replayer, error) {
	r := &replayer{w: w, want: want, res: res}
	var err error
	r.gw, err = dpi.NewGateway(m, cfg, func(dpi.FlowMatch) { r.matches.Add(1) })
	return r, err
}

// replay ingests one capture stream and accounts the packets offered.
func (r *replayer) replay(src io.Reader, wantPackets int) uint64 {
	rs, err := r.gw.ReplayPcap(src)
	r.res.Attempted += uint64(wantPackets)
	if err != nil {
		r.res.fail(uint64(wantPackets), "%s: ReplayPcap: %v", r.w.name, err)
		return 0
	}
	if rs.Ingested != uint64(wantPackets) {
		r.res.fail(absDiff(rs.Ingested, uint64(wantPackets)), "%s: capture delivered %d of %d packets: %+v", r.w.name, rs.Ingested, wantPackets, rs)
	}
	return rs.PayloadBytes
}

// check closes a drained interval of whole passes: matches against the
// oracle, the ledger, nothing shed, and the workload's own signature in
// the counters.
func (r *replayer) check(passes int, when string) {
	st := r.gw.Stats()
	got := r.matches.Load() - r.seen
	r.seen += got
	prev := r.last
	r.last = st
	bad := func(n uint64, what string) {
		r.res.fail(n, "%s %s: %s; stats %+v", r.w.name, when, what, st)
	}
	if want := uint64(passes) * r.want; got != want {
		bad(absDiff(got, want), fmt.Sprintf("%d matches, oracle %d", got, want))
	}
	if l := st.Ledger(); !l.Balanced() {
		bad(1, fmt.Sprintf("ledger does not balance: %+v", l))
	}
	if n := st.ShedPackets - prev.ShedPackets; n != 0 {
		bad(n, fmt.Sprintf("%d packets shed under Block", n))
	}
	if st.Panics != 0 || st.QuarantinedFlows != 0 {
		bad(1, "a panic was contained")
	}
	if st.PassedBytes != 0 {
		return // exempt traffic never reaches reassembly or a scanner
	}
	ooo := st.OutOfOrderSegs - prev.OutOfOrderSegs
	switch {
	case r.w.flows.ReorderWindow > 0:
		if ooo == 0 {
			bad(1, "no segment arrived out of order")
		}
		if n := st.GapSkips - prev.GapSkips; n != 0 {
			bad(n, "reassembly skipped a gap")
		}
	case ooo != 0:
		bad(ooo, "an in-order workload buffered segments")
	}
	if r.w.udpEvery > 0 && st.BatchPackets == prev.BatchPackets {
		bad(1, "no packet took the burst lane")
	}
	// Eviction lags a whole idle timeout behind creation, so it is judged
	// over the gateway's life, not this interval.
	if r.w.idleTimeout > 0 && st.StreamPackets > 4*uint64(r.w.idleTimeout) && st.FlowsEvicted == 0 {
		bad(1, "no flow was evicted")
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// windowStats is one closed-loop window.
type windowStats struct {
	elapsed time.Duration
	packets uint64
	payload uint64 // TCP/UDP payload bytes ingested
}

func (s windowStats) gbps() float64 { return float64(s.payload) * 8 / s.elapsed.Seconds() / 1e9 }

// window replays whole passes for at least d and flushes inside the timed
// interval.
func (r *replayer) window(d time.Duration) windowStats {
	var s windowStats
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < d {
		s.payload += r.replay(bytes.NewReader(r.w.image), r.w.packets)
		passes++
	}
	r.gw.Flush()
	s.elapsed = time.Since(start)
	s.packets = uint64(passes * r.w.packets)
	r.check(passes, "window")
	return s
}

// heapAlloc is the live heap after two full collections. One is not
// enough: a sync.Pool stays on the runtime's pool list for a cycle after its
// last use, so a closed gateway's engine — and through its callbacks the
// workload an earlier run drove it with — is still reachable after the first.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkpointReading is what is read at the drained midpoint of a pass:
// half the packets scanned, the connections they belong to still open.
type checkpointReading struct {
	heap        uint64 // live heap, after a collection
	flows       int
	flush       time.Duration // the drain itself
	scrape      time.Duration // one /metrics exposition
	scrapeBytes int64
}

// checkpoint replays one pass in two halves and reads the gateway between
// them. The second half completes the pass, which is then held to the
// oracle — so a checkpoint is also the exactness check before timing.
func (r *replayer) checkpoint() checkpointReading {
	var c checkpointReading
	r.replay(r.w.firstHalf(), r.w.packets/2)
	start := time.Now()
	r.gw.Flush()
	c.flush = time.Since(start)
	c.heap = heapAlloc()
	c.flows = r.gw.Stats().FlowsLive
	start = time.Now()
	n, err := r.gw.Metrics().WriteTo(io.Discard)
	c.scrape, c.scrapeBytes = time.Since(start), n
	if err != nil {
		r.res.fail(1, "%s: metrics scrape: %v", r.w.name, err)
	}
	r.replay(r.w.secondHalf(), r.w.packets-r.w.packets/2)
	r.gw.Flush()
	r.check(1, "checkpoint pass")
	return c
}

// setupCycle times what every start and every hot reload pays: Compile,
// NewGateway, Close.
func setupCycle(rules *dpi.Ruleset, cfg dpi.GatewayConfig) (time.Duration, error) {
	start := time.Now()
	m, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		return 0, err
	}
	gw, err := dpi.NewGateway(m, cfg, func(dpi.FlowMatch) {})
	if err != nil {
		return 0, err
	}
	if err := gw.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// latencyWarmShare of an open-loop run is cut off its front: a fresh
// gateway's first connections all open at once.
const latencyWarmShare = 0.05

// latencySample is one open-loop run, warm-up cut off.
type latencySample struct {
	p50, p90, p99 float64 // µs from the packet's due time to the emit callback
	samples       int     // packets that completed a match
	lateShare     float64 // packets sent more than one interval after they were due
}

// openLoop feeds whole passes of pkts to a fresh gateway at a fixed rate
// from one spinning goroutine, for at least d. Each packet is stamped with
// the time it was due, not the time it was sent, so a stall in Ingest shows
// up in every packet queued behind it. The emit callback finds the stamp
// through Match.PacketID, which on a single-feeder gateway is the ingest
// sequence number.
func openLoop(w *workload, m *dpi.Matcher, want uint64, pkts []dpi.GatewayPacket, d time.Duration, res *result) (latencySample, error) {
	var s latencySample
	interval := 1e6 / float64(w.latencyKpps) // ns between packets
	passes := max(1, (int(float64(d.Nanoseconds())/interval)+len(pkts)-1)/len(pkts))
	total := passes * len(pkts)
	warm := int(float64(total) * latencyWarmShare)
	due := make([]int64, total)  // ns after t0 the packet was due
	done := make([]int64, total) // ns after t0 its last match was emitted; one lane writes each
	nlate := 0
	var matches atomic.Uint64
	var t0 time.Time
	gw, err := dpi.NewGateway(m, w.gatewayConfig(), func(fm dpi.FlowMatch) {
		matches.Add(1)
		done[fm.Match.PacketID] = int64(time.Since(t0))
	})
	if err != nil {
		return s, err
	}
	t0 = time.Now()
	for i := range total {
		at := int64(float64(i) * interval)
		due[i] = at
		now := int64(time.Since(t0))
		for now < at {
			now = int64(time.Since(t0))
		}
		if i >= warm && float64(now-at) > interval {
			nlate++
		}
		if err := gw.Ingest(pkts[i%len(pkts)]); err != nil {
			return s, err
		}
	}
	gw.Flush()
	st := gw.Stats()
	res.Attempted += uint64(total)
	if got, want := matches.Load(), uint64(passes)*want; got != want {
		res.fail(absDiff(got, want), "%s open loop: %d matches, oracle %d; stats %+v", w.name, got, want, st)
	}
	if l := st.Ledger(); !l.Balanced() {
		res.fail(1, "%s open loop: ledger does not balance: %+v; stats %+v", w.name, l, st)
	}
	if st.ShedPackets != 0 {
		res.fail(st.ShedPackets, "%s open loop: %d packets shed; stats %+v", w.name, st.ShedPackets, st)
	}
	if err := gw.Close(); err != nil {
		return s, err
	}
	var lat []float64
	for i := warm; i < total; i++ {
		if done[i] != 0 {
			lat = append(lat, float64(done[i]-due[i])/1e3)
		}
	}
	sort.Float64s(lat)
	s.samples, s.lateShare = len(lat), float64(nlate)/float64(total-warm)
	if len(lat) > 0 {
		s.p50 = lat[len(lat)/2]
		s.p90 = lat[len(lat)*9/10]
		s.p99 = lat[len(lat)*99/100]
	}
	return s, nil
}
