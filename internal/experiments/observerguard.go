package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"emprof"
	"emprof/internal/sim"
)

// ObserverGuardMaxOverhead is the ns/cycle ratio the no-op-observer run
// may cost over the nil-observer run. The trace layer's contract is that
// instrumentation sits on rare branches, so even a wired-up observer that
// discards every event must stay within noise of the untraced path.
const ObserverGuardMaxOverhead = 0.03

// RunObserverGuard benchmarks the analyzer's nil-observer fast path
// against the same analysis with a no-op observer attached, and verifies
// the trace layer's two performance promises:
//
//  1. The per-sample steady state of the nil-observer path performs zero
//     heap allocations.
//  2. Attaching an observer costs under ObserverGuardMaxOverhead ns/cycle
//     relative to the nil path (measured as min-over-count interleaved
//     runs, the same noise discipline as RunSynthBench).
//
// It prints a small report to w and returns an error when either promise
// is broken, so embench (and CI) can gate on it.
func RunObserverGuard(count int, quick bool, w io.Writer) error {
	if count < 1 {
		count = 1
	}
	tm := 128
	if quick {
		tm = 32
	}
	wl, err := emprof.Microbenchmark(tm, 8)
	if err != nil {
		return err
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), wl, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		return err
	}
	capture := run.Capture
	cfg := emprof.DefaultConfig()

	bench := func(opts ...emprof.Option) func(b *testing.B) {
		return func(b *testing.B) {
			an, err := emprof.NewAnalyzer(cfg, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := an.Run(context.Background(), capture); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Interleave the two measurements so slow drift in machine load hits
	// both sides; keep the minimum of each.
	nilNs, nopNs := math.Inf(1), math.Inf(1)
	for i := 0; i < count; i++ {
		r := testing.Benchmark(bench())
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < nilNs {
			nilNs = ns
		}
		r = testing.Benchmark(bench(emprof.WithObserver(emprof.NopObserver{})))
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < nopNs {
			nopNs = ns
		}
	}
	cycles := float64(run.Truth.Cycles)
	overhead := nopNs/nilNs - 1
	fmt.Fprintf(w, "observer guard: nil %.3f ns/cycle, no-op observer %.3f ns/cycle (%+.2f%%)\n",
		nilNs/cycles, nopNs/cycles, 100*overhead)
	if overhead > ObserverGuardMaxOverhead {
		return fmt.Errorf("observer overhead %.2f%% exceeds the %.0f%% budget (nil %.0f ns/op, no-op %.0f ns/op)",
			100*overhead, 100*ObserverGuardMaxOverhead, nilNs, nopNs)
	}

	// Steady-state allocation check, through the public streaming API: a
	// warmed-up push loop over a dip-free busy signal must never touch the
	// heap when no observer is attached.
	an, err := emprof.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	s, err := an.Stream(capture.SampleRate, capture.ClockHz)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(7)
	busy := make([]float64, 4096)
	for i := range busy {
		busy[i] = 1 + 0.1*rng.Float64()
	}
	pos := 0
	step := func() {
		i := pos & (len(busy) - 1)
		s.PushBlock(busy[i : i+1])
		pos++
	}
	for i := 0; i < 1<<14; i++ {
		step() // warm past the one-time ring-buffer growth
	}
	allocs := testing.AllocsPerRun(2000, step)
	fmt.Fprintf(w, "observer guard: nil-observer steady state %.1f allocs/op\n", allocs)
	if allocs != 0 {
		return fmt.Errorf("nil-observer steady state allocates (%.1f allocs/op, want 0)", allocs)
	}
	return nil
}
