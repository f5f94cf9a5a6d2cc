package main

// The end-to-end protocol: what a user of the sensor sees, measured with
// nothing traced. Per workload, one long-lived gateway replays the pcap
// image back to back in a closed loop, every window held to the oracle;
// the heap is read at a drained mid-pass checkpoint, and
// Compile+NewGateway+Close is cycled for the set-up cost. The windows'
// goodput is printed beside the gated metrics, not among them, and match
// latency is measured by the traced run only; README.md says why.

import (
	"slices"
	"time"

	dpi "repro"
)

const (
	// setupPerSlot cycles of Compile+NewGateway+Close follow every
	// closed-loop slot: 62 over a run of 30 windows.
	setupPerSlot = 2
	// calibShare of every closed-loop slot is spent on the calibration loop
	// that precedes the window.
	calibShare = 0.125
)

// runConfig is one invocation's protocol parameters.
type runConfig struct {
	seed    int64
	seconds float64 // measured time per workload
	windows int     // closed-loop windows kept; one more is run first and dropped
	scale   int     // workload flow-count divisor; 1 outside tests
	logf    func(format string, args ...any)
}

// share is the part s of the measured time.
func (c runConfig) share(s float64) time.Duration {
	return time.Duration(c.seconds * s * float64(time.Second))
}

// prepared is one workload ready to be driven.
type prepared struct {
	w    *workload
	m    *dpi.Matcher
	want uint64 // oracle matches per pass
	res  *result
}

func prepare(name string, rules *dpi.Ruleset, cfg runConfig) (*prepared, uint64, error) {
	s, _ := specByName(name)
	cfg.logf("%s: generating (seed %d)", name, cfg.seed)
	w, err := s.scaled(cfg.scale).build(rules, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	// The heap base is read before Compile, so what is later charged to
	// the sensor includes its tables and excludes the harness's image.
	base := heapAlloc()
	m, err := dpi.Compile(rules, dpi.Config{})
	if err != nil {
		return nil, 0, err
	}
	res := newResult(name)
	res.Backend = m.Backend()
	return &prepared{w: w, m: m, want: w.oracle(m), res: res}, base, nil
}

// runEndToEnd measures the named workloads. Closed-loop windows are
// interleaved round-robin across them, so a slow stretch on a shared host
// lands on all of them instead of on whichever ran then.
func runEndToEnd(names []string, cfg runConfig) ([]*result, error) {
	rules, err := dpi.GenerateSnortLike(rulesetStrings, rulesSeed)
	if err != nil {
		return nil, err
	}
	var preps []*prepared
	var runs []*replayer
	for _, name := range names {
		p, base, err := prepare(name, rules, cfg)
		if err != nil {
			return nil, err
		}
		r, err := newReplayer(p.w, p.m, p.want, p.w.gatewayConfig(), p.res)
		if err != nil {
			return nil, err
		}
		c := r.checkpoint()
		p.res.add("heap_live_mb", "MB", (float64(c.heap)-float64(base))/1e6)
		p.res.note("flows_live_at_checkpoint", "count", float64(c.flows))
		preps, runs = append(preps, p), append(runs, r)
	}

	// goodput_gbps is the median of the raw windows. The calibration loop
	// runs before every window and after the last, and each window's rate
	// over the mean of the two slices beside it is printed as the noise
	// indicator: when the raw rate moved and the ratio did not, the host
	// moved.
	//
	// setup_s is cycled between the slots, with the workloads in memory and
	// their gateways open, as a loaded sensor's reload would be, and the
	// fastest cycle of the run is reported: interference and a collection
	// landing inside a 20 ms cycle only ever add to it. Over ten seeds on a
	// noisy host the fastest cycle repeated within 0.01–0.04 when the cycles
	// were spread over the run, within 0.02–0.06 when they ran as one block,
	// and their median moved by 0.1–0.3.
	slot := cfg.share(1) / time.Duration(cfg.windows+1)
	calibLen := time.Duration(float64(slot) * calibShare)
	var calib, setup []float64
	for k := 0; k <= cfg.windows; k++ {
		for _, r := range runs {
			calib = append(calib, calibrate(calibLen))
			ws := r.window(slot - calibLen)
			if k > 0 { // window 0 warms up: pools fill, the table reaches its steady size
				r.res.note("goodput_gbps", "Gbit/s", ws.gbps())
			}
		}
		for range setupPerSlot {
			d, err := setupCycle(rules, specs[0].gatewayConfig())
			if err != nil {
				return nil, err
			}
			setup = append(setup, d.Seconds())
		}
		cfg.logf("closed-loop window %d of %d", k, cfg.windows)
	}
	calib = append(calib, calibrate(calibLen))
	for i, r := range runs {
		r.res.Metrics["setup_s"] = measured{Unit: "s", Samples: setup, Value: slices.Min(setup)}
		for k, g := range r.res.Notes["goodput_gbps"].Samples {
			at := (k+1)*len(runs) + i // the slice before window k+1 of this workload
			r.res.note("goodput_per_calib", "ratio", g/((calib[at]+calib[at+1])/2))
		}
		r.res.Notes["bench.calib_gbps"] = measured{Unit: "Gbit/s", Samples: calib, Value: median(calib)}
	}

	results := make([]*result, len(runs))
	for i, r := range runs {
		results[i] = preps[i].res
		if err := r.gw.Close(); err != nil {
			return nil, err
		}
	}
	return results, nil
}
