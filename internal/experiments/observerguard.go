package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"emprof"
	"emprof/internal/sim"
)

// ObserverGuardMaxOverhead is the ns/cycle ratio the no-op-observer run
// may cost over the nil-observer run. The trace layer's contract is that
// instrumentation sits on rare branches, so even a wired-up observer that
// discards every event must stay within noise of the untraced path.
const ObserverGuardMaxOverhead = 0.03

// observerGuardPairs is the number of timed nil/no-op pairs per count.
const observerGuardPairs = 200

// RunObserverGuard benchmarks the analyzer's nil-observer fast path
// against the same analysis with a no-op observer attached, and verifies
// the trace layer's two performance promises:
//
//  1. The per-sample steady state of the nil-observer path performs zero
//     heap allocations.
//  2. Attaching an observer costs under ObserverGuardMaxOverhead ns/cycle
//     relative to the nil path: the median, over count·200 pairs, of the
//     no-op run's time over the nil run's, each pair timed back to back
//     on the same capture so machine load that drifts over seconds hits
//     both sides of a pair alike.
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

	nilAn, err := emprof.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	nopAn, err := emprof.NewAnalyzer(cfg, emprof.WithObserver(emprof.NopObserver{}))
	if err != nil {
		return err
	}
	var runErr error
	timeRun := func(an *emprof.Analyzer) float64 {
		start := time.Now()
		if _, err := an.Run(context.Background(), capture); err != nil {
			runErr = err
		}
		return float64(time.Since(start).Nanoseconds())
	}
	// One untimed run each settles first-use allocations; then the pairs
	// alternate which side runs first, so neither always inherits the
	// other's cache state.
	n := count * observerGuardPairs
	nils, nops, ratios := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := -1; i < n; i++ {
		var a, b float64
		if i%2 == 0 {
			a, b = timeRun(nilAn), timeRun(nopAn)
		} else {
			b, a = timeRun(nopAn), timeRun(nilAn)
		}
		if runErr != nil {
			return runErr
		}
		if i >= 0 {
			nils[i], nops[i], ratios[i] = a, b, b/a
		}
	}
	cycles := float64(run.Truth.Cycles)
	nilNs, nopNs := median(nils), median(nops)
	overhead := median(ratios) - 1
	fmt.Fprintf(w, "observer guard: nil %.3f ns/cycle, no-op observer %.3f ns/cycle, median of %d pair ratios %+.2f%%\n",
		nilNs/cycles, nopNs/cycles, n, 100*overhead)
	if overhead > ObserverGuardMaxOverhead {
		return fmt.Errorf("observer overhead %.2f%% exceeds the %.0f%% budget (median nil %.0f ns/op, no-op %.0f ns/op)",
			100*overhead, 100*ObserverGuardMaxOverhead, nilNs, nopNs)
	}

	// Steady-state allocation check, through the public streaming API: a
	// warmed-up push loop over a dip-free busy signal must never touch the
	// heap when no observer is attached.
	s, err := nilAn.Stream(capture.SampleRate, capture.ClockHz)
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

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}
