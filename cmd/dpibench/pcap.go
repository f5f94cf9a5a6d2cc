package main

// The -pcap mode: replay capture files through the full gateway —
// capture parsing, translation, reassembly, verdicts, scanning — first
// checking the committed-corpus oracles on a fresh gateway, then
// measuring sustained capture-fed ingestion throughput over repeated
// replays. This is the capture-fed number the observability literature
// treats as reportable, as opposed to the synthetic-scan throughput the
// other modes measure.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	dpi "repro"
	"repro/internal/capture/corpus"
)

type pcapConfig struct {
	Glob    string
	Backend string
	Workers int
	Shards  int
	Repeats int
}

type pcapFileResult struct {
	File         string `json:"file"`
	Frames       uint64 `json:"frames"`
	Ingested     uint64 `json:"ingested"`
	PayloadBytes uint64 `json:"payload_bytes"`
	Matches      uint64 `json:"matches"`
	OracleOK     *bool  `json:"oracle_ok,omitempty"` // known corpora only
}

type pcapReport struct {
	Backend        string           `json:"backend"`
	Shards         int              `json:"shards"`
	Repeats        int              `json:"repeats"` // repeats actually completed
	Files          []pcapFileResult `json:"files"`
	PayloadBytes   uint64           `json:"total_payload_bytes"` // per repeat
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	ThroughputMBps float64          `json:"throughput_mbps"`
	Interrupted    bool             `json:"interrupted"` // run stopped by SIGINT/SIGTERM
}

func runPcap(ctx context.Context, out io.Writer, jsonPath string, cfg pcapConfig) error {
	files, err := filepath.Glob(cfg.Glob)
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no capture files match %q", cfg.Glob)
	}
	sort.Strings(files)
	raws := make([][]byte, len(files))
	for i, path := range files {
		if raws[i], err = os.ReadFile(path); err != nil {
			return err
		}
	}

	rs := dpi.NewRuleset()
	for _, r := range corpus.Rules() {
		rs.MustAdd(r.Name, []byte(r.Content))
	}
	matcher, err := dpi.Compile(rs, dpi.Config{Backend: cfg.Backend})
	if err != nil {
		return err
	}

	rep := pcapReport{Backend: matcher.Backend(), Shards: cfg.Shards, Repeats: cfg.Repeats}

	// Correctness pass: each file on its own fresh gateway, so the
	// committed-corpus oracles see exactly one replay's matches. A signal
	// abandons the remaining files; the partial report says so.
	for i, path := range files {
		if ctx.Err() != nil {
			break
		}
		var matches atomic.Uint64
		gw, err := dpi.NewGateway(matcher, dpi.GatewayConfig{StreamWorkers: cfg.Workers, EngineShards: cfg.Shards},
			func(dpi.FlowMatch) { matches.Add(1) })
		if err != nil {
			return err
		}
		st, err := gw.ReplayPcap(bytes.NewReader(raws[i]))
		if err != nil {
			gw.Close()
			return fmt.Errorf("%s: %v", path, err)
		}
		gw.Flush()
		gw.Close()
		fr := pcapFileResult{
			File:         filepath.Base(path),
			Frames:       st.Frames,
			Ingested:     st.Ingested,
			PayloadBytes: st.PayloadBytes,
			Matches:      matches.Load(),
		}
		if c := corpus.ByFile(fr.File); c != nil {
			oracle := c.OracleMatches(func(s []byte) int { return len(matcher.FindAll(s)) })
			ok := fr.Matches == uint64(oracle)
			fr.OracleOK = &ok
			if !ok {
				return fmt.Errorf("%s: %d matches, oracle says %d", path, fr.Matches, oracle)
			}
		}
		rep.PayloadBytes += fr.PayloadBytes
		rep.Files = append(rep.Files, fr)
	}

	// Throughput pass: repeated replays into one long-lived gateway (one
	// capture loop, many rotations), timed end to end including Flush. A
	// signal stops between repeats; the gateway is still drained so the
	// elapsed time covers every byte the throughput figure counts.
	gw, err := dpi.NewGateway(matcher, dpi.GatewayConfig{StreamWorkers: cfg.Workers, EngineShards: cfg.Shards},
		func(dpi.FlowMatch) {})
	if err != nil {
		return err
	}
	start := time.Now()
	done := 0
	for r := 0; r < cfg.Repeats && ctx.Err() == nil; r++ {
		for i := range raws {
			if _, err := gw.ReplayPcap(bytes.NewReader(raws[i])); err != nil {
				gw.Close()
				return err
			}
		}
		done++
	}
	gw.Flush()
	rep.ElapsedSeconds = time.Since(start).Seconds()
	gw.Close()
	rep.Repeats = done
	rep.Interrupted = ctx.Err() != nil
	total := float64(rep.PayloadBytes) * float64(done)
	if rep.ElapsedSeconds > 0 {
		rep.ThroughputMBps = total / (1 << 20) / rep.ElapsedSeconds
	}

	fmt.Fprintf(out, "PCAP REPLAY (backend %s, %d shard(s), %d repeat(s))\n",
		rep.Backend, rep.Shards, rep.Repeats)
	for _, fr := range rep.Files {
		oracle := "-"
		if fr.OracleOK != nil {
			oracle = fmt.Sprintf("%v", *fr.OracleOK)
		}
		fmt.Fprintf(out, "  %-20s frames=%-4d ingested=%-4d payload=%-6d matches=%-4d oracle_ok=%s\n",
			fr.File, fr.Frames, fr.Ingested, fr.PayloadBytes, fr.Matches, oracle)
	}
	fmt.Fprintf(out, "  %.2f MB/s capture-fed (%.0f payload bytes in %.3fs)\n",
		rep.ThroughputMBps, total, rep.ElapsedSeconds)
	if rep.Interrupted {
		fmt.Fprintf(out, "  interrupted: %d/%d repeats completed\n", done, cfg.Repeats)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		return writeFileAtomic(jsonPath, append(data, '\n'))
	}
	return nil
}
