package dpi

// One benchmark per table and figure of the paper's evaluation (§V), plus
// raw performance benchmarks of the software pipeline. The table/figure
// benches measure the cost of regenerating each artifact and attach the
// headline reproduced values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. cmd/dpibench renders the same artifacts
// as human-readable tables.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ac"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hwsim"
	"repro/internal/ruleset"
	"repro/internal/traffic"
	"repro/internal/tuck"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

func sharedBenchCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(experiments.DefaultSeed)
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

// --- Table I ---

func BenchmarkTable1ResourceUtilization(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	b.ReportMetric(float64(rows[0].M9KModel), "cyclone-M9Ks")
	b.ReportMetric(float64(rows[1].M9KModel), "stratix-M9Ks")
	b.ReportMetric(rows[1].FmaxMHz, "stratix-fmax-MHz")
}

// --- Table II ---

func BenchmarkTable2PointerReduction(b *testing.B) {
	ctx := sharedBenchCtx(b)
	for _, cfg := range experiments.Table2Configs() {
		cfg := cfg
		name := fmt.Sprintf("%s/%dstrings", cfg.Device.Name, cfg.N)
		b.Run(name, func(b *testing.B) {
			var row experiments.Table2Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = ctx.Table2One(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.ReductionPct, "reduction-%")
			b.ReportMetric(row.AvgAfterD123, "avg-ptrs")
			b.ReportMetric(float64(row.MemoryBytes), "mem-bytes")
			b.ReportMetric(row.SpeedGbps, "speed-Gbps")
		})
	}
}

// --- Table III ---

func BenchmarkTable3Comparison(b *testing.B) {
	ctx := sharedBenchCtx(b)
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = ctx.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	ours := float64(rows[0].MemoryBytes)
	b.ReportMetric(ours, "ours-bytes")
	b.ReportMetric(float64(rows[2].MemoryBytes)/ours, "vs-bitmap13-x")
	b.ReportMetric(float64(rows[3].MemoryBytes)/ours, "vs-path13-x")
}

// --- Figures ---

func BenchmarkFigure2ToyExample(b *testing.B) {
	var rows []experiments.Figure2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[3].AvgStored, "avg-after-d123")
}

func BenchmarkFigure6LengthDistribution(b *testing.B) {
	ctx := sharedBenchCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7PowerCyclone(b *testing.B) {
	var series int
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure7(10)
		if err != nil {
			b.Fatal(err)
		}
		series = len(s)
	}
	b.ReportMetric(float64(series), "curves")
}

func BenchmarkFigure8PowerStratix(b *testing.B) {
	var series int
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure8(10)
		if err != nil {
			b.Fatal(err)
		}
		series = len(s)
	}
	b.ReportMetric(float64(series), "curves")
}

// --- Ablations ---

func BenchmarkAblationD2Sweep(b *testing.B) {
	ctx := sharedBenchCtx(b)
	var rows []experiments.D2SweepRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = ctx.D2Sweep(634, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[2].TotalBytes), "bytes-at-4")
}

func BenchmarkAblationAdversarial(b *testing.B) {
	ctx := sharedBenchCtx(b)
	var rows []experiments.AdversarialRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = ctx.Adversarial(634, 16384)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].StepsPerChar, "ours-steps-per-char")
	b.ReportMetric(rows[1].StepsPerChar, "gotofail-steps-per-char")
}

// --- Raw performance of the software pipeline ---

func benchPayload(b *testing.B, set *ruleset.Set, n int) []byte {
	b.Helper()
	pkts, err := traffic.Generate(set, traffic.Config{
		Packets: 1, Bytes: n, Seed: 42, AttackDensity: 3, Profile: traffic.Textual,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pkts[0].Payload
}

// TestScanAppendSteadyStateZeroAlloc locks in the baked kernel's hot-path
// contract: once the caller's match buffer has grown, ScanAppend performs
// zero allocations per packet — matches included.
func TestScanAppendSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	set, err := ruleset.Generate(ruleset.GenConfig{N: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := traffic.Generate(set, traffic.Config{
		Packets: 1, Bytes: 1 << 14, Seed: 42, AttackDensity: 3, Profile: traffic.Textual,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := pkts[0].Payload
	var r core.Regs
	r.Reset()
	out := m.ScanAppend(&r, payload, nil) // warm-up grows the buffer
	if len(out) == 0 {
		t.Fatal("payload produced no matches; the assertion would be vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset()
		out = m.ScanAppend(&r, payload, out[:0])
	})
	if allocs != 0 {
		t.Fatalf("ScanAppend allocated %.1f times per packet in steady state", allocs)
	}
}

// BenchmarkCompile* time and count the allocations of one ruleset build —
// what every start and every hot reload pays — at the paper's four ruleset
// sizes. OPERATIONS.md's reload runbook quotes them (-benchmem).
func benchmarkCompile(b *testing.B, strings int) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(strings)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(set, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile634(b *testing.B)  { benchmarkCompile(b, 634) }
func BenchmarkCompile1204(b *testing.B) { benchmarkCompile(b, 1204) }
func BenchmarkCompile2588(b *testing.B) { benchmarkCompile(b, 2588) }
func BenchmarkCompile6275(b *testing.B) { benchmarkCompile(b, 6275) }

// BenchmarkReload634 times the cycle a start or a SwapRules deploy pays —
// Compile, NewGateway, Close — at 634 strings, with a collection between
// cycles and outside the timer, and reports the fastest cycle as
// fastest_ns/cycle: the quantity go run ./bench gates as setup_s, recorded
// here per commit where the bench does not run.
func BenchmarkReload634(b *testing.B) {
	rules, err := GenerateSnortLike(634, 2010)
	if err != nil {
		b.Fatal(err)
	}
	cfg := GatewayConfig{EngineShards: 1, StreamWorkers: 2, OverloadPolicy: Block}
	fastest := time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		start := time.Now()
		m, err := Compile(rules, Config{})
		if err != nil {
			b.Fatal(err)
		}
		gw, err := NewGateway(m, cfg, func(FlowMatch) {})
		if err != nil {
			b.Fatal(err)
		}
		if err := gw.Close(); err != nil {
			b.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	b.ReportMetric(float64(fastest.Nanoseconds()), "fastest_ns/cycle")
}

func BenchmarkScanCompressed(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(b, set, 1<<16)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FindAll(payload)
	}
}

// BenchmarkScanAppend measures the hot scan loop on the 634-string set
// under every registered backend: the baked flat Program (the default scan
// path), the slice-walking reference path it must stay byte-exact
// equivalent to, and the two-stage prefiltered pipeline (whose skim loop is
// tuned for clean traffic; this attack-dense payload is its worst case).
// The matches metric pins all sub-benchmarks to the same output.
func BenchmarkScanAppend(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"baked", core.Options{Backend: core.BackendBaked}},
		{"reference", core.Options{Backend: core.BackendReference}},
		{"prefiltered", core.Options{Backend: core.BackendPrefiltered}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := core.Build(set, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			payload := benchPayload(b, set, 1<<16)
			var r core.Regs
			var out []ac.Match
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset()
				out = m.ScanAppend(&r, payload, out[:0])
			}
			b.ReportMetric(float64(len(out)), "matches")
		})
	}
}

func BenchmarkScanGotoFail(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	trie, err := ac.New(set)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(b, set, 1<<16)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm := ac.NewFailMatcher(trie)
		fm.Scan(payload, func(ac.Match) {})
	}
}

func BenchmarkScanBitmap13(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	bm, err := tuck.BuildBitmap(set)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(b, set, 1<<16)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Scan(payload, func(ac.Match) {})
	}
}

func BenchmarkHardwareEngineStep(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img, err := hwsim.Pack(m)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(b, set, 1<<14)
	e := hwsim.NewEngine(img)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for _, c := range payload {
			e.Step(c)
		}
	}
}

func BenchmarkHardwareBlockScan(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img, err := hwsim.Pack(m)
	if err != nil {
		b.Fatal(err)
	}
	var packets []hwsim.Packet
	for pid := 0; pid < 6; pid++ {
		packets = append(packets, hwsim.Packet{ID: pid, Payload: benchPayload(b, set, 4096)})
	}
	total := int64(0)
	for _, p := range packets {
		total += int64(len(p.Payload))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := hwsim.NewBlock(img)
		if _, err := block.ScanPackets(packets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPack634(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var words int
	for i := 0; i < b.N; i++ {
		img, err := hwsim.Pack(m)
		if err != nil {
			b.Fatal(err)
		}
		words = img.Stats.StateWords
	}
	b.ReportMetric(float64(words), "state-words")
}

func BenchmarkMIFExport(b *testing.B) {
	ctx := sharedBenchCtx(b)
	set, err := ctx.SetOf(634)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img, err := hwsim.Pack(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		mifs, err := img.ExportMIFs(3584)
		if err != nil {
			b.Fatal(err)
		}
		size = len(mifs.State) + len(mifs.Match) + len(mifs.LUT)
	}
	b.ReportMetric(float64(size), "mif-bytes")
}
