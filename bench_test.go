// Benchmarks regenerating every table and figure of the paper (run with
// `go test -bench=. -benchmem`), plus the ablation benches called out in
// DESIGN.md. Each experiment bench reports its headline quantity as a
// custom metric so `bench_output.txt` doubles as a results record.
package emprof_test

import (
	"context"
	"testing"

	"emprof"
	"emprof/internal/core"
	"emprof/internal/device"
	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/experiments"
	"emprof/internal/mem"
	"emprof/internal/sim"
	"emprof/internal/workloads"
)

func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.25, Seed: 1, Quick: true}
}

// --- Tables ---

func BenchmarkTable2MicroAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AveragePct, "avg-accuracy-%")
	}
}

func BenchmarkTable3SimValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var miss, stall float64
		n := 0
		for _, r := range append(res.Micro, res.SPEC...) {
			miss += r.MissPct
			stall += r.StallPct
			n++
		}
		b.ReportMetric(miss/float64(n), "miss-accuracy-%")
		b.ReportMetric(stall/float64(n), "stall-accuracy-%")
	}
}

func BenchmarkTable4Profiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Average.LatencyPct[2], "olimex-stall-%")
	}
}

func BenchmarkTable5Attribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.FrameAccuracy, "frame-accuracy-%")
	}
}

func BenchmarkPerfBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPerfBaseline(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean/float64(res.TrueMisses), "overcount-x")
	}
}

func BenchmarkStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStability(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.EMProf.StdDev/res.EMProf.Mean, "emprof-rel-stddev-%")
	}
}

// --- Figures ---

func benchFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, ok := experiments.Registry[name]
		if !ok {
			b.Fatalf("unknown experiment %s", name)
		}
		if _, err := r(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1StallSignal(b *testing.B)      { benchFigure(b, "fig1") }
func BenchmarkFig2SimulatorHitMiss(b *testing.B) { benchFigure(b, "fig2") }
func BenchmarkFig3OverlapHiding(b *testing.B)    { benchFigure(b, "fig3") }
func BenchmarkFig4PhysicalHitMiss(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig5Refresh(b *testing.B)          { benchFigure(b, "fig5") }
func BenchmarkFig7MicroSignal(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig8SimVsDevice(b *testing.B)      { benchFigure(b, "fig8") }
func BenchmarkFig10DualProbe(b *testing.B)       { benchFigure(b, "fig10") }
func BenchmarkFig11Histogram(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12Bandwidth(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13Boot(b *testing.B)            { benchFigure(b, "fig13") }
func BenchmarkFig14Spectrogram(b *testing.B)     { benchFigure(b, "fig14") }

// --- Component benchmarks ---

// benchCapture builds one reusable Olimex microbenchmark capture.
func benchCapture(b *testing.B) *emprof.Capture {
	b.Helper()
	w, err := emprof.Microbenchmark(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return run.Capture
}

func BenchmarkSimulateMicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := emprof.Microbenchmark(128, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileCapture(b *testing.B) {
	cap := benchCapture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze(b, cap, emprof.DefaultConfig())
	}
	b.SetBytes(int64(8 * len(cap.Samples)))
}

func BenchmarkSimulatorCycleRate(b *testing.B) {
	// Cycles simulated per second of wall time for a SPEC-like workload.
	w, err := emprof.SPECWorkload("mcf", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cycles := run.Truth.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := emprof.SPECWorkload("mcf", 0.2)
		if _, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// --- Ablations (DESIGN.md) ---

// ablationRun produces a capture plus its expected count once.
func ablationRun(b *testing.B) (*emprof.Capture, int) {
	b.Helper()
	const tm = 128
	w, err := emprof.Microbenchmark(tm, 8)
	if err != nil {
		b.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	slice, err := run.SliceRegion(workloads.RegionMisses)
	if err != nil {
		b.Fatal(err)
	}
	return slice, tm
}

func ablate(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	slice, tm := ablationRun(b)
	cfg := core.DefaultConfig()
	mutate(&cfg)
	an, err := core.NewAnalyzer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		p := an.Profile(slice)
		acc = p.CountAccuracy(tm).Percent
	}
	b.ReportMetric(acc, "count-accuracy-%")
}

// BenchmarkAblationNormWindow sweeps the moving min/max window.
func BenchmarkAblationNormWindow(b *testing.B) {
	for _, winUS := range []float64{20, 50, 200, 1000, 5000} {
		b.Run(formatUS(winUS), func(b *testing.B) {
			ablate(b, func(c *core.Config) { c.NormWindowS = winUS * 1e-6 })
		})
	}
}

// BenchmarkAblationThreshold sweeps the dip-entry threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []float64{0.15, 0.25, 0.32, 0.45, 0.6} {
		b.Run(formatFrac(th), func(b *testing.B) {
			ablate(b, func(c *core.Config) {
				c.EnterThreshold = th
				if c.ExitThreshold < th+0.05 {
					c.ExitThreshold = th + 0.1
				}
			})
		})
	}
}

// BenchmarkAblationMinDuration sweeps the minimum-stall duration.
func BenchmarkAblationMinDuration(b *testing.B) {
	for _, ns := range []float64{25, 90, 200, 400} {
		b.Run(formatNS(ns), func(b *testing.B) {
			ablate(b, func(c *core.Config) {
				c.MinStallS = ns * 1e-9
				if c.LongStallS < c.MinStallS {
					c.LongStallS = c.MinStallS
				}
			})
		})
	}
}

// BenchmarkMovingMinMaxBlock vs BenchmarkMovingMinMaxNaive: the
// van Herk/Gil-Werman block kernel (a fused minimum and maximum over
// 4,096-sample blocks, as the analyzer runs it) against the O(w) rescan
// baseline of one extremum. Both report ns per sample.
func BenchmarkMovingMinMaxBlock(b *testing.B) {
	const w, block = 8192, 4096
	mn, mx := dsp.NewMovingMin(w), dsp.NewMovingMax(w)
	rng := sim.NewRNG(1)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	lo, hi := make([]float64, block), make([]float64, block)
	b.ResetTimer()
	for i := 0; i < b.N; i += block {
		off := i % len(xs)
		dsp.ProcessBlockMinMax(mn, mx, xs[off:off+block], lo, hi)
	}
}

func BenchmarkMovingMinMaxNaive(b *testing.B) {
	const w = 8192
	m := dsp.NewNaiveMovingMin(w)
	rng := sim.NewRNG(1)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Process(xs[i%len(xs)])
	}
}

// BenchmarkAblationMSHR shows how miss-level parallelism makes stall
// accounting diverge from miss counting (paper Fig. 3a).
func BenchmarkAblationMSHR(b *testing.B) {
	for _, mshrs := range []int{1, 2, 4, 8} {
		b.Run(formatN(mshrs), func(b *testing.B) {
			dev := device.SESC()
			dev.Mem.MSHRs = mshrs
			var stallCycles uint64
			var misses int
			for i := 0; i < b.N; i++ {
				wl, err := workloads.OverlapKernel(workloads.OverlapKernelParams{
					Groups: 40, GroupSize: 6, GapWork: 600,
					LineBytes: 64, LLCBytes: dev.Mem.LLC.SizeBytes, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: 1, NoiseFree: true, BandwidthHz: 50e6})
				if err != nil {
					b.Fatal(err)
				}
				stallCycles = run.Truth.FullStallCycles
				misses = len(run.Truth.Misses)
			}
			b.ReportMetric(float64(stallCycles)/float64(misses), "stall-cycles/miss")
		})
	}
}

// BenchmarkAblationOoOWindow quantifies the paper's Section II-B
// observation: an out-of-order window lets the core avert the full stall
// for longer, shrinking the stall time EMPROF has to see.
func BenchmarkAblationOoOWindow(b *testing.B) {
	for _, window := range []int{0, 8, 16, 32} {
		b.Run("window-"+itoa(window), func(b *testing.B) {
			dev := device.SESC()
			dev.CPU.FetchQueue = 48
			dev.CPU.OoOWindow = window
			var stall, cycles uint64
			var misses int
			for i := 0; i < b.N; i++ {
				wl, err := emprof.SPECWorkload("mcf", 0.1)
				if err != nil {
					b.Fatal(err)
				}
				run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: 1, NoiseFree: true, BandwidthHz: 50e6})
				if err != nil {
					b.Fatal(err)
				}
				stall = run.Truth.FullStallCycles
				cycles = run.Truth.Cycles
				misses = len(run.Truth.Misses)
			}
			// Stall cycles per miss shrink as the window hides latency;
			// the stall *percentage* can rise because the busy portion
			// compresses even faster — both are reported.
			b.ReportMetric(float64(stall)/float64(misses), "stall-cyc/miss")
			b.ReportMetric(float64(cycles)/1000, "kcycles")
		})
	}
}

// parallelBenchCapture synthesizes a long capture (≥10M samples) with a
// realistic dip density directly, skipping the cycle-level simulator —
// simulating this many cycles would dominate the benchmark setup.
func parallelBenchCapture(n int) *emprof.Capture {
	rng := sim.NewRNG(42)
	s := make([]float64, n)
	busy := true
	left := 400
	for i := range s {
		if left == 0 {
			busy = !busy
			if busy {
				left = 200 + int(rng.Uint64()%600)
			} else {
				left = 4 + int(rng.Uint64()%14)
			}
		}
		left--
		v := 1.0
		if !busy {
			v = 0.12
		}
		s[i] = v + 0.03*rng.NormFloat64()
	}
	return &emprof.Capture{Samples: s, SampleRate: 50e6, ClockHz: 1e9}
}

// BenchmarkAnalyzeParallel compares sequential analysis against the
// two-stage pipeline (WithWorkers(2)) on a long capture. The pipeline
// runs the monitor and smoother on one goroutine and min/max and decide
// on the caller's, so with two cores its wall time approaches the larger
// of the two halves; every WithWorkers value other than 1 runs the same
// code.
func BenchmarkAnalyzeParallel(b *testing.B) {
	cap := parallelBenchCapture(12 << 20)
	cfg := emprof.DefaultConfig()
	bench := func(opts ...emprof.Option) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(cap.Samples)))
			for i := 0; i < b.N; i++ {
				analyze(b, cap, cfg, opts...)
			}
		}
	}
	b.Run("sequential", bench())
	b.Run("workers-2", bench(emprof.WithWorkers(2)))
}

// BenchmarkSweep runs a device × seed grid through the sweep runner,
// serial vs parallel workers.
func BenchmarkSweep(b *testing.B) {
	grid := emprof.SweepGrid{
		Devices:   []string{"olimex", "samsung"},
		Workloads: []string{"micro:64:8"},
		Seeds:     []uint64{1, 2},
	}
	jobs := grid.Jobs()
	for _, workers := range []int{1, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := emprof.RunSweep(context.Background(), jobs, emprof.SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkStreamVsBatch compares the streaming and batch profilers on
// the same capture.
func BenchmarkStreamVsBatch(b *testing.B) {
	cap := benchCapture(b)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyze(b, cap, emprof.DefaultConfig())
		}
		b.SetBytes(int64(8 * len(cap.Samples)))
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyze(b, cap, emprof.DefaultConfig(), emprof.WithStreaming())
		}
		b.SetBytes(int64(8 * len(cap.Samples)))
	})
}

// BenchmarkAblationLLCCapacity sweeps the LLC size under a capacity-bound
// working set: the mechanism behind Table IV's Alcatel-vs-Olimex miss
// gap (its 1 MB LLC absorbs working sets that thrash 256 KB).
func BenchmarkAblationLLCCapacity(b *testing.B) {
	spec := []byte(`{
	  "Name": "capacity", "Seed": 3,
	  "Phases": [{
	    "Name": "warm", "Region": 1, "Insts": 1000000,
	    "LoadFrac": 0.3, "StoreFrac": 0.05,
	    "LoopLen": 48, "CodeBytes": 8192,
	    "WSBytes": 8388608, "HotBytes": 24576,
	    "WarmBytes": 393216, "WarmFrac": 0.12,
	    "DepFrac": 0.3
	  }]
	}`)
	for _, kb := range []int{256, 512, 1024, 2048} {
		b.Run("llc-"+itoa(kb)+"KB", func(b *testing.B) {
			dev := device.Olimex()
			dev.Mem.LLC.SizeBytes = kb << 10
			var misses int
			for i := 0; i < b.N; i++ {
				wl, err := emprof.CustomWorkload(spec)
				if err != nil {
					b.Fatal(err)
				}
				run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				misses = len(run.Truth.Misses)
			}
			b.ReportMetric(float64(misses), "LLC-misses")
		})
	}
}

// BenchmarkMemSystemAccess measures the raw memory-system access path.
func BenchmarkMemSystemAccess(b *testing.B) {
	dev := device.Olimex()
	ms, err := mem.NewSystem(dev.Mem, sim.NewRNG(1), false)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Access(uint64(i*4), 0x1000, rng.Uint64()%(64<<20), mem.KindLoad)
	}
}

func formatUS(v float64) string   { return "window-" + itoa(int(v)) + "us" }
func formatNS(v float64) string   { return "min-" + itoa(int(v)) + "ns" }
func formatFrac(v float64) string { return "enter-" + itoa(int(v*100)) + "pct" }
func formatN(v int) string        { return "mshrs-" + itoa(v) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Synthesis pipeline (CI perf-regression gate) ---
//
// CI runs these with -bench='^BenchmarkSynthesis' -benchtime=1x -count=3 as
// a smoke pass, and embench -bench-synthesis -bench-check BENCH_synthesis.json
// as the quantitative gate. The ns/cycle metric is wall time per simulated
// clock cycle through the full simulate→synthesize→capture chain.

// synthBenchSeries mirrors the busy/stall power pattern used by the
// embench harness (internal/experiments/synthbench.go).
func synthBenchSeries(n int, seed uint64) []float64 {
	rng := sim.NewRNG(seed)
	s := make([]float64, n)
	busy := true
	left := 50
	for i := range s {
		if left == 0 {
			busy = !busy
			if busy {
				left = 30 + rng.Intn(120)
			} else {
				left = 5 + rng.Intn(40)
			}
		}
		left--
		if busy {
			s[i] = 1 + 0.3*rng.Float64()
		} else {
			s[i] = 0.25
		}
	}
	return s
}

// BenchmarkSynthesisSeries measures the SynthesizeFromSeries block path on
// a realistic impaired receiver (decimation 25, noise + drift).
func BenchmarkSynthesisSeries(b *testing.B) {
	cfg := em.ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  40e6,
		ProbeGain:    2,
		SNRdB:        15,
		DriftPeriodS: 1e-4,
		DriftDepth:   0.1,
		Seed:         1,
	}
	const cpv = 25
	vals := synthBenchSeries(1<<20/cpv, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.SynthesizeFromSeries(vals, cpv, cfg); err != nil {
			b.Fatal(err)
		}
	}
	cycles := float64(len(vals) * cpv)
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/cycles, "ns/cycle")
	b.SetBytes(int64(8 * len(vals) * cpv))
}

// BenchmarkSynthesisEndToEnd measures the full simulate→synthesize→capture
// chain.
func BenchmarkSynthesisEndToEnd(b *testing.B) {
	run1 := func() *emprof.Run {
		w, err := emprof.Microbenchmark(128, 8)
		if err != nil {
			b.Fatal(err)
		}
		r, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	cycles := run1().Truth.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run1()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(cycles), "ns/cycle")
}
