package main

// The -reload mode: a swap storm for the hot-reload control plane,
// runnable anywhere the repo builds and gated by CI's reload-soak job.
// It installs a sequence of ruleset generations under live traffic —
// each generation gets its own wave of flows, opened before the next
// SwapRules and still streaming after it — and verifies the two
// contracts the reload API makes:
//
//   - pinning: every flow's matches equal FindAll of its full stream
//     against the matcher installed when the flow opened, never the one
//     installed later;
//   - retirement: once a generation's last pinned flow ends, it is
//     retired on the spot (generations_retired == generations_installed
//     - 1 after the final drain; no sweeper, no leak).
//
// The JSON report carries both verdicts plus the conservation ledger and
// the worst SwapRules drain latency, so CI can gate all of it with jq.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	dpi "repro"
	"repro/internal/report"
	"repro/internal/traffic"
)

// reloadBenchConfig sizes the -reload soak; tests shrink it.
type reloadBenchConfig struct {
	Strings int // patterns per generation's ruleset
	Waves   int // generations installed (1 initial + Waves-1 swaps)
	Flows   int // flows opened per wave
	Shards  int // engine shards
	Seed    int64
	Backend string // scan backend ("" = auto)
}

func defaultReloadConfig(seed int64) reloadBenchConfig {
	return reloadBenchConfig{Strings: 200, Waves: 6, Flows: 24, Shards: 1, Seed: seed}
}

type reloadReport struct {
	Backend              string            `json:"backend"`
	Shards               int               `json:"shards"`
	FlowsPerWave         int               `json:"flows_per_wave"`
	Packets              int               `json:"packets"`
	Matches              int               `json:"matches"`
	Swaps                uint64            `json:"swaps"`
	GenerationsInstalled uint64            `json:"generations_installed"`
	GenerationsRetired   uint64            `json:"generations_retired"`
	GenerationsLive      int               `json:"generations_live"`
	MaxSwapMicros        int64             `json:"max_swap_micros"`
	PinningOK            bool              `json:"pinning_ok"`
	RetirementOK         bool              `json:"retirement_ok"`
	Balanced             bool              `json:"balanced"`
	Ledger               dpi.GatewayLedger `json:"ledger"`
	Interrupted          bool              `json:"interrupted"`
	Detail               string            `json:"detail,omitempty"`
	OK                   bool              `json:"ok"`
}

// fail marks the report failed; the first failure's detail wins.
func (r *reloadReport) fail(format string, args ...any) {
	r.OK = false
	if r.Detail == "" {
		r.Detail = fmt.Sprintf(format, args...)
	}
}

// reloadWave is one generation's share of the soak.
type reloadWave struct {
	m       *dpi.Matcher
	tuples  []dpi.FiveTuple
	streams [][]byte
	pending [][]dpi.GatewayPacket // per flow, unsent tail in stream order
}

func buildReloadWave(wv int, cfg reloadBenchConfig) (*reloadWave, error) {
	rules, err := dpi.GenerateSnortLike(cfg.Strings, cfg.Seed+int64(1000*wv))
	if err != nil {
		return nil, err
	}
	m, err := dpi.Compile(rules, dpi.Config{Groups: 2, Backend: cfg.Backend})
	if err != nil {
		return nil, err
	}
	w, err := traffic.GenerateFlows(rules.InternalSet(), traffic.FlowConfig{
		Flows: cfg.Flows, SegmentsPerFlow: 6, SegmentBytes: 140,
		Seed: cfg.Seed + int64(31*wv) + 7, CrossDensity: 2, AttackDensity: 1,
		Profile: traffic.Textual,
	})
	if err != nil {
		return nil, err
	}
	rw := &reloadWave{m: m, streams: w.Streams, pending: make([][]dpi.GatewayPacket, len(w.Tuples))}
	for f := range w.Tuples {
		rw.tuples = append(rw.tuples, dpi.FiveTuple{
			SrcIP: 0x0a000000 | uint32(wv)<<12 | uint32(f), DstIP: 0xc0a80001,
			SrcPort: uint16(1024 + f), DstPort: 80, Proto: dpi.ProtoTCP,
		})
	}
	for _, p := range w.Packets {
		rw.pending[p.FlowID] = append(rw.pending[p.FlowID],
			dpi.GatewayPacket{Tuple: rw.tuples[p.FlowID], Payload: p.Payload})
	}
	return rw, nil
}

func runReload(ctx context.Context, out io.Writer, jsonPath string, cfg reloadBenchConfig) error {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	waves := make([]*reloadWave, cfg.Waves)
	for wv := range waves {
		w, err := buildReloadWave(wv, cfg)
		if err != nil {
			return fmt.Errorf("dpibench: reload wave %d: %w", wv, err)
		}
		waves[wv] = w
	}

	rep := reloadReport{
		Shards: cfg.Shards, FlowsPerWave: cfg.Flows,
		PinningOK: true, RetirementOK: true, OK: true,
	}
	var matches int
	c := newChaosCollector()
	var gwErr error
	gw, err := dpi.NewGateway(waves[0].m, dpi.GatewayConfig{
		EngineShards: cfg.Shards, BatchPackets: 16,
	}, c.emit)
	if err != nil {
		return err
	}
	rep.Backend = gw.Backend()
	send := func(p dpi.GatewayPacket) bool {
		if err := gw.Ingest(p); err != nil {
			gwErr = err
			return false
		}
		rep.Packets++
		return true
	}
	// Schedule: wave wv's flows all open (first segment sent), a random
	// share of every live wave streams, then the next generation swaps in.
	// Tails drain fully interleaved at the end, so early-generation flows
	// cross every later swap.
	for wv := range waves {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		if wv > 0 {
			start := time.Now()
			if err := gw.SwapRules(waves[wv].m); err != nil {
				gw.Close()
				return fmt.Errorf("dpibench: SwapRules to generation %d: %w", waves[wv].m.Generation(), err)
			}
			if us := time.Since(start).Microseconds(); us > rep.MaxSwapMicros {
				rep.MaxSwapMicros = us
			}
			rep.Swaps++
		}
		for f := range waves[wv].pending {
			if len(waves[wv].pending[f]) > 0 {
				if !send(waves[wv].pending[f][0]) {
					break
				}
				waves[wv].pending[f] = waves[wv].pending[f][1:]
			}
		}
		for v := 0; v <= wv && gwErr == nil; v++ {
			for f := range waves[v].pending {
				for len(waves[v].pending[f]) > 0 && rng.Float64() < 0.4 {
					if !send(waves[v].pending[f][0]) {
						break
					}
					waves[v].pending[f] = waves[v].pending[f][1:]
				}
			}
		}
		if gwErr != nil {
			break
		}
	}
	for gwErr == nil && !rep.Interrupted {
		left := false
		for _, w := range waves {
			for f := range w.pending {
				for len(w.pending[f]) > 0 && rng.Float64() < 0.7 {
					if !send(w.pending[f][0]) {
						break
					}
					w.pending[f] = w.pending[f][1:]
					left = true
				}
				if len(w.pending[f]) > 0 {
					left = true
				}
			}
		}
		if ctx.Err() != nil {
			rep.Interrupted = true
		}
		if !left {
			break
		}
	}
	if gwErr != nil {
		gw.Close()
		return fmt.Errorf("dpibench: reload ingest: %w", gwErr)
	}

	// FIN every flow of every non-final wave: their generations must
	// retire right here, on the FIN path.
	if !rep.Interrupted {
		for _, w := range waves[:len(waves)-1] {
			for _, tup := range w.tuples {
				if !send(dpi.GatewayPacket{Tuple: tup, Flags: dpi.FlagFIN}) {
					break
				}
			}
		}
	}
	gw.Flush()
	st := gw.Stats()
	rep.GenerationsInstalled = st.GenerationsInstalled
	rep.GenerationsRetired = st.GenerationsRetired
	rep.GenerationsLive = st.GenerationsLive
	if !rep.Interrupted {
		if st.GenerationsRetired != st.GenerationsInstalled-1 {
			rep.RetirementOK = false
			rep.fail("retirement stuck: %d of %d generations retired after the FIN drain",
				st.GenerationsRetired, st.GenerationsInstalled)
		}
		if st.GenerationsLive != 1 {
			rep.RetirementOK = false
			rep.fail("%d generations still live after the FIN drain, want 1", st.GenerationsLive)
		}
	}
	if err := gw.Close(); err != nil {
		return err
	}
	rep.Ledger = gw.Stats().Ledger()
	rep.Balanced = rep.Ledger.Balanced()
	if !rep.Balanced {
		rep.fail("conservation law violated: %+v", rep.Ledger)
	}
	// Pinning oracle: each wave's flows against that wave's matcher.
	if !rep.Interrupted {
		for wv, w := range waves {
			for f, tup := range w.tuples {
				want := w.m.FindAll(w.streams[f])
				got := c.matches(tup)
				if !sameChaosMatches(got, want) {
					rep.PinningOK = false
					rep.fail("wave %d flow %d: %d matches vs birth-generation oracle %d",
						wv, f, len(got), len(want))
				}
				matches += len(got)
			}
		}
		if matches == 0 {
			rep.fail("no matches across any wave; soak is vacuous")
		}
	}
	rep.Matches = matches

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileAtomic(jsonPath, append(data, '\n')); err != nil {
			return err
		}
	}
	t := &report.Table{
		Title: fmt.Sprintf("HOT RELOAD SOAK (backend %s, %d generations x %d flows, %d shards, seed %d)",
			rep.Backend, cfg.Waves, cfg.Flows, cfg.Shards, cfg.Seed),
		Headers: []string{"Swaps", "Installed", "Retired", "Live", "Packets", "Matches",
			"Pinning", "Retirement", "Balanced", "MaxSwap(us)", "Detail"},
	}
	t.AddRow(rep.Swaps, rep.GenerationsInstalled, rep.GenerationsRetired, rep.GenerationsLive,
		rep.Packets, rep.Matches, rep.PinningOK, rep.RetirementOK, rep.Balanced,
		rep.MaxSwapMicros, rep.Detail)
	if err := t.Render(out); err != nil {
		return err
	}
	if rep.Interrupted {
		fmt.Fprintln(out, "interrupted: partial reload report (oracle gates skipped)")
		return nil
	}
	if !rep.OK {
		return fmt.Errorf("dpibench: reload soak failed; see the table (or the -json report) for the broken assertion")
	}
	return nil
}
