package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"text/tabwriter"

	"emprof"
	"emprof/internal/em"
	"emprof/internal/sim"
)

// SynthBenchEntry is one measured synthesis benchmark, in the units the
// regression gate compares: ns/op for the whole operation, ns per simulated
// clock cycle, and the synthesized output-sample throughput.
type SynthBenchEntry struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	Cycles        uint64  `json:"cycles"`
	NsPerCycle    float64 `json:"ns_per_cycle"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
}

// SynthBenchReport is the serialised form of one synthesis benchmark run
// (the committed BENCH_synthesis.json baseline and the CI artifact).
type SynthBenchReport struct {
	// Note records what the numbers mean, for readers of the JSON file.
	Note    string            `json:"note"`
	Entries []SynthBenchEntry `json:"entries"`
}

// synthSeries builds the busy/stall per-cycle power pattern the synthesis
// benchmarks stream (same character as the profiler's target signals).
func synthSeries(n int, seed uint64) []float64 {
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

// synthBenchReceiverConfig is the realistic impaired receiver used by the
// synthesis benchmarks: 1 GHz clock, 40 MHz bandwidth (decimation 25),
// probe noise and supply drift enabled.
func synthBenchReceiverConfig() em.ReceiverConfig {
	return em.ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  40e6,
		ProbeGain:    2,
		SNRdB:        15,
		DriftPeriodS: 1e-4,
		DriftDepth:   0.1,
		Seed:         1,
	}
}

// synthCase is one benchmark: body is measured under testing.Benchmark and
// must consume exactly cycles simulated cycles per b.N iteration.
type synthCase struct {
	name    string
	cycles  uint64
	samples uint64 // synthesized output samples per op (0 = not a capture)
	body    func(b *testing.B)
}

// synthCases builds the benchmark set. quick shrinks the cycle counts for
// smoke runs (CI uses the full sizes so ns/cycle is stable).
func synthCases(quick bool) ([]synthCase, error) {
	cyc := 1 << 20
	if quick {
		cyc = 1 << 16
	}
	series := synthSeries(cyc, 9)
	cfg := synthBenchReceiverConfig()
	clean := em.ReceiverConfig{ClockHz: 1e9, BandwidthHz: 40e6, ProbeGain: 1, SNRdB: math.Inf(1)}

	countSamples := func(c em.ReceiverConfig) uint64 {
		r := em.MustNewReceiver(c)
		r.PushBlock(series)
		r.Flush()
		return uint64(len(r.Capture().Samples))
	}

	// The end-to-end case runs the full simulator into the receiver chain;
	// one dry run pins the deterministic cycle count.
	e2e := func() (*emprof.Run, error) {
		w, err := emprof.Microbenchmark(128, 8)
		if err != nil {
			return nil, err
		}
		return emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	}
	dry, err := e2e()
	if err != nil {
		return nil, err
	}

	cases := []synthCase{
		{
			name:    "receiver-block",
			cycles:  uint64(cyc),
			samples: countSamples(cfg),
			body: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := em.MustNewReceiver(cfg)
					for pos := 0; pos < len(series); pos += 4096 {
						end := pos + 4096
						if end > len(series) {
							end = len(series)
						}
						r.PushBlock(series[pos:end])
					}
					r.Flush()
				}
			},
		},
		{
			name:    "receiver-block-clean",
			cycles:  uint64(cyc),
			samples: countSamples(clean),
			body: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := em.MustNewReceiver(clean)
					for pos := 0; pos < len(series); pos += 4096 {
						end := pos + 4096
						if end > len(series) {
							end = len(series)
						}
						r.PushBlock(series[pos:end])
					}
					r.Flush()
				}
			},
		},
		{
			name:    "series-synthesis",
			cycles:  uint64(cyc),
			samples: countSamples(cfg),
			body: func(b *testing.B) {
				// The memory-probe path: one value per 25 cycles, expanded
				// and synthesized through the block pipeline.
				vals := series[:len(series)/25]
				for i := 0; i < b.N; i++ {
					if _, err := em.SynthesizeFromSeries(vals, 25, cfg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The analysis side of the pipeline: batch EMPROF over the dry
			// run's capture, through the options API with no observer — the
			// fast path the trace layer must keep free.
			name:    "analyze-batch",
			cycles:  dry.Truth.Cycles,
			samples: uint64(len(dry.Capture.Samples)),
			body: func(b *testing.B) {
				cfg := emprof.DefaultConfig()
				an, err := emprof.NewAnalyzer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := an.Run(context.Background(), dry.Capture); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:    "simulate-e2e",
			cycles:  dry.Truth.Cycles,
			samples: uint64(len(dry.Capture.Samples)),
			body: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e2e(); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// The probe-displacement axis: the same microbenchmark swept
			// across four placements through RunSweep, covering the spatial
			// coupling stage and the sweep pool in one number.
			name:    "position-sweep",
			cycles:  4 * dry.Truth.Cycles,
			samples: 4 * uint64(len(dry.Capture.Samples)),
			body: func(b *testing.B) {
				grid := emprof.SweepGrid{
					Devices:        []string{"olimex"},
					Workloads:      []string{"micro:128:8"},
					Seeds:          []uint64{1},
					ProbeOffsetsMM: []float64{0, 1, 2, 4},
				}
				jobs := grid.Jobs()
				for i := 0; i < b.N; i++ {
					res, err := emprof.RunSweep(context.Background(), jobs, emprof.SweepOptions{})
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range res {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			},
		},
	}
	return cases, nil
}

// RunSynthBench measures the synthesis pipeline count times per case and
// reports the fastest run of each (minimum ns/op — the standard way to
// strip scheduler noise from a throughput benchmark). It prints a table to
// w and returns the structured report.
func RunSynthBench(count int, quick bool, w io.Writer) (*SynthBenchReport, error) {
	if count < 1 {
		count = 1
	}
	cases, err := synthCases(quick)
	if err != nil {
		return nil, err
	}
	rep := &SynthBenchReport{
		Note: "emprof synthesis pipeline benchmarks; ns_per_cycle is wall time per simulated clock cycle, min over repeated runs",
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tns/op\tns/cycle\tMsamples/s\tallocs/op")
	for _, c := range cases {
		best := SynthBenchEntry{Name: c.name, Cycles: c.cycles, NsPerOp: math.Inf(1)}
		for i := 0; i < count; i++ {
			r := testing.Benchmark(c.body)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if ns < best.NsPerOp {
				best.NsPerOp = ns
				best.NsPerCycle = ns / float64(c.cycles)
				if c.samples > 0 && ns > 0 {
					best.SamplesPerSec = float64(c.samples) / (ns * 1e-9)
				}
				best.AllocsPerOp = float64(r.MemAllocs) / float64(r.N)
			}
		}
		rep.Entries = append(rep.Entries, best)
		fmt.Fprintf(tw, "%s\t%.0f\t%.3f\t%.2f\t%.1f\n",
			best.Name, best.NsPerOp, best.NsPerCycle, best.SamplesPerSec/1e6, best.AllocsPerOp)
	}
	tw.Flush()
	return rep, nil
}

// WriteSynthBench writes the report as indented JSON.
func WriteSynthBench(rep *SynthBenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSynthBench reads a baseline report written by WriteSynthBench.
func LoadSynthBench(path string) (*SynthBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep SynthBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("synthbench baseline %s: %w", path, err)
	}
	return &rep, nil
}

// GateOptions configures the regression gate in CompareSynthBench. The
// zero value picks the defaults noted per field, so callers only set what
// they need to override.
type GateOptions struct {
	// MaxRatio is the allowed ns/cycle ratio over the baseline before a
	// case counts as a time regression. Default 1.3 — tight enough to
	// catch a real slowdown on a quiet machine; CI overrides it upward to
	// absorb shared-runner speed variance.
	MaxRatio float64
	// NoiseFloorNsPerCycle is an absolute slack added on top of the
	// ratio: a case only regresses when its ns/cycle exceeds
	// baseline*MaxRatio + floor. Sub-nanosecond-per-cycle cases flip
	// large ratios from timer granularity alone; the floor (default 0.5
	// ns/cycle) keeps those from tripping the gate. Set negative to
	// disable (treat as 0).
	NoiseFloorNsPerCycle float64
	// MaxAllocRatio gates allocs_per_op the same way ns/cycle is gated.
	// Allocation counts are near-deterministic, so the default slack is
	// smaller (1.25x); a hot-loop allocation regression multiplies the
	// count by orders of magnitude (the bug this gate exists for turned
	// ~100 allocs/op into ~220000). Set negative to disable the alloc
	// gate entirely.
	MaxAllocRatio float64
	// AllocFloor is the absolute allocs_per_op slack (default 64), so
	// single-digit baselines tolerate a few incidental allocations.
	AllocFloor float64
	// LatencyFloorMs is the absolute slack for the fleet ingest gate
	// (CompareIngestBench): a latency metric only regresses when it
	// exceeds baseline*MaxRatio + floor. Sub-millisecond baselines flip
	// large ratios from scheduler jitter alone; the floor (default 2 ms)
	// keeps those from tripping the gate. Set negative to disable.
	LatencyFloorMs float64
}

func (o GateOptions) withDefaults() GateOptions {
	if o.MaxRatio == 0 {
		o.MaxRatio = 1.3
	}
	if o.NoiseFloorNsPerCycle == 0 {
		o.NoiseFloorNsPerCycle = 0.5
	} else if o.NoiseFloorNsPerCycle < 0 {
		o.NoiseFloorNsPerCycle = 0
	}
	if o.MaxAllocRatio == 0 {
		o.MaxAllocRatio = 1.25
	}
	if o.AllocFloor == 0 {
		o.AllocFloor = 64
	} else if o.AllocFloor < 0 {
		o.AllocFloor = 0
	}
	if o.LatencyFloorMs == 0 {
		o.LatencyFloorMs = 2
	} else if o.LatencyFloorMs < 0 {
		o.LatencyFloorMs = 0
	}
	return o
}

// CompareSynthBench gates the current run against a committed baseline,
// per GateOptions: a case regresses when its ns/cycle (or allocs/op)
// exceeds the baseline by more than the configured ratio plus the
// absolute noise floor. Cases present on only one side are reported but
// not fatal, so the benchmark set can evolve.
func CompareSynthBench(cur, base *SynthBenchReport, opts GateOptions, w io.Writer) error {
	opts = opts.withDefaults()
	baseByName := make(map[string]SynthBenchEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseByName[e.Name] = e
	}
	var regressions []string
	for _, e := range cur.Entries {
		b, ok := baseByName[e.Name]
		if !ok {
			fmt.Fprintf(w, "%-24s new case (no baseline)\n", e.Name)
			continue
		}
		ratio := math.Inf(1)
		if b.NsPerCycle > 0 {
			ratio = e.NsPerCycle / b.NsPerCycle
		}
		status := "ok"
		if e.NsPerCycle > b.NsPerCycle*opts.MaxRatio+opts.NoiseFloorNsPerCycle {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.3f ns/cycle vs baseline %.3f (%.2fx > %.2fx)",
					e.Name, e.NsPerCycle, b.NsPerCycle, ratio, opts.MaxRatio))
		}
		if opts.MaxAllocRatio > 0 && e.AllocsPerOp > b.AllocsPerOp*opts.MaxAllocRatio+opts.AllocFloor {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.1f allocs/op vs baseline %.1f (> %.2fx + %.0f)",
					e.Name, e.AllocsPerOp, b.AllocsPerOp, opts.MaxAllocRatio, opts.AllocFloor))
		}
		fmt.Fprintf(w, "%-24s %.3f ns/cycle  baseline %.3f  (%.2fx)  %.1f allocs/op (baseline %.1f)  %s\n",
			e.Name, e.NsPerCycle, b.NsPerCycle, ratio, e.AllocsPerOp, b.AllocsPerOp, status)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("synthesis benchmark regressions:\n%s", joinLines(regressions))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n"
		}
		out += "  " + s
	}
	return out
}
