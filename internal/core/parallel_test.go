package core

import (
	"fmt"
	"math"
	"testing"

	"emprof/internal/em"
	"emprof/internal/faults"
	"emprof/internal/sim"
)

// syntheticCapture builds a busy-level trace with periodic stall dips and
// optional acquisition nastiness (dropouts, NaN corruption) so equivalence
// is exercised on impaired signals, not just clean ones.
func syntheticCapture(n int, seed uint64, nasty bool) *em.Capture {
	rng := sim.NewRNG(seed)
	s := make([]float64, n)
	for i := range s {
		v := 1.0 + 0.1*rng.NormFloat64()
		switch {
		case i%4973 < 10:
			v = 0.05 + 0.01*rng.NormFloat64() // LLC-miss dip
		case i%50021 < 90 && i%50021 >= 60:
			v = 0.06 + 0.01*rng.NormFloat64() // refresh-length dip
		}
		if nasty {
			if i%40009 == 77 {
				v = 0 // digitizer dropout
			}
			if i%30011 == 5 {
				v = math.NaN()
			}
			if i%25013 == 11 {
				v = 40 // RF burst
			}
		}
		s[i] = math.Abs(v)
	}
	return &em.Capture{Samples: s, SampleRate: 50e6, ClockHz: 1e9}
}

// assertProfilesIdentical fails unless the two profiles are bit-identical
// in every reported field (Normalized is compared only when both kept it).
func assertProfilesIdentical(t *testing.T, want, got *Profile, ctx string) {
	t.Helper()
	if got.Misses != want.Misses || got.RefreshStalls != want.RefreshStalls {
		t.Fatalf("%s: misses/refresh %d/%d, want %d/%d", ctx,
			got.Misses, got.RefreshStalls, want.Misses, want.RefreshStalls)
	}
	if got.StallCycles != want.StallCycles || got.ExecCycles != want.ExecCycles {
		t.Fatalf("%s: cycles %v/%v, want %v/%v", ctx,
			got.StallCycles, got.ExecCycles, want.StallCycles, want.ExecCycles)
	}
	if got.Quality != want.Quality {
		t.Fatalf("%s: quality\n got %+v\nwant %+v", ctx, got.Quality, want.Quality)
	}
	if len(got.Stalls) != len(want.Stalls) {
		t.Fatalf("%s: %d stalls, want %d", ctx, len(got.Stalls), len(want.Stalls))
	}
	for i := range want.Stalls {
		if got.Stalls[i] != want.Stalls[i] {
			t.Fatalf("%s: stall %d\n got %+v\nwant %+v", ctx, i, got.Stalls[i], want.Stalls[i])
		}
	}
	if want.Normalized != nil && got.Normalized != nil {
		if len(got.Normalized) != len(want.Normalized) {
			t.Fatalf("%s: normalized length %d, want %d", ctx, len(got.Normalized), len(want.Normalized))
		}
		for i := range want.Normalized {
			if got.Normalized[i] != want.Normalized[i] {
				t.Fatalf("%s: normalized[%d] = %v, want %v", ctx, i, got.Normalized[i], want.Normalized[i])
			}
		}
	}
}

// TestParallelMatchesSequential sweeps worker counts and chunk sizes —
// including a prime chunk length that never aligns with dip or fault
// periods — over clean and impaired captures, requiring bit-identical
// profiles throughout.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NormWindowS = 40e-6 // 2000-sample window: real sharding on modest captures
	a := MustNewAnalyzer(cfg)
	a.KeepNormalized = true
	for _, nasty := range []bool{false, true} {
		c := syntheticCapture(1<<18, 11, nasty)
		want := a.Profile(c)
		if nasty && want.Quality.Clean() {
			t.Fatal("nasty capture reported clean quality; test is not exercising impairments")
		}
		if len(want.Stalls) == 0 {
			t.Fatal("sequential profile found no stalls; test is vacuous")
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, chunk := range []int{0, 4099, 30011, 1 << 16} {
				got := a.ProfileParallel(c, ParallelOptions{Workers: workers, ChunkSamples: chunk})
				assertProfilesIdentical(t, want, got,
					sprintf("nasty=%v workers=%d chunk=%d", nasty, workers, chunk))
			}
		}
	}
}

// TestParallelMatchesOnInjectedFaults covers every injector impairment
// class at once: the parallel analyzer must reproduce the hardened
// sequential profile exactly, resyncs and aborted dips included.
func TestParallelMatchesOnInjectedFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NormWindowS = 40e-6
	a := MustNewAnalyzer(cfg)
	clean := syntheticCapture(1<<18, 3, false)
	spec := faults.Spec{
		DropoutRate:   0.002,
		ClipLevel:     1.6,
		GainStepsPerS: 200,
		BurstRate:     0.0005,
		NaNRate:       0.0002,
		Seed:          9,
	}
	c, _, err := faults.Apply(clean, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Profile(c)
	if want.Quality.Resyncs == 0 {
		t.Fatal("fault spec produced no resyncs; gain-step path untested")
	}
	for _, workers := range []int{2, 5} {
		for _, chunk := range []int{8191, 1 << 15} {
			got := a.ProfileParallel(c, ParallelOptions{Workers: workers, ChunkSamples: chunk})
			assertProfilesIdentical(t, want, got, sprintf("workers=%d chunk=%d", workers, chunk))
		}
	}
}

// TestParallelConfigSweep exercises the window/smoothing corners the
// fuzzer also visits: no smoothing, wide smoothing, short windows.
func TestParallelConfigSweep(t *testing.T) {
	c := syntheticCapture(1<<17, 5, true)
	base := DefaultConfig()
	for name, mutate := range map[string]func(*Config){
		"raw":    func(c *Config) { c.SmoothSamples = 1 },
		"wide":   func(c *Config) { c.SmoothSamples = 7 },
		"narrow": func(c *Config) { c.NormWindowS = 5e-6 },
		"even":   func(c *Config) { c.SmoothSamples = 4 },
	} {
		cfg := base
		mutate(&cfg)
		a := MustNewAnalyzer(cfg)
		want := a.Profile(c)
		got := a.ProfileParallel(c, ParallelOptions{Workers: 4, ChunkSamples: 10007})
		assertProfilesIdentical(t, want, got, name)
	}
}

// TestParallelDegenerateInputs: empty, tiny, constant and all-garbage
// captures must neither panic nor diverge from the sequential result.
func TestParallelDegenerateInputs(t *testing.T) {
	a := MustNewAnalyzer(DefaultConfig())
	cases := map[string]*em.Capture{
		"empty": {Samples: nil, SampleRate: 50e6, ClockHz: 1e9},
		"one":   {Samples: []float64{1}, SampleRate: 50e6, ClockHz: 1e9},
		"tiny":  syntheticCapture(64, 1, false),
		"const": {Samples: make([]float64, 20000), SampleRate: 50e6, ClockHz: 1e9},
		"nan": {Samples: func() []float64 {
			s := make([]float64, 20000)
			for i := range s {
				s[i] = math.NaN()
			}
			return s
		}(), SampleRate: 50e6, ClockHz: 1e9},
	}
	for name, c := range cases {
		want := a.Profile(c)
		got := a.ProfileParallel(c, ParallelOptions{Workers: 4, ChunkSamples: 512})
		assertProfilesIdentical(t, want, got, name)
	}
}

// TestParallelAutoOptions: the zero options value must auto-size workers
// and chunks and still match, and Workers=1 must take the sequential path.
func TestParallelAutoOptions(t *testing.T) {
	a := MustNewAnalyzer(DefaultConfig())
	c := syntheticCapture(1<<17, 21, false)
	want := a.Profile(c)
	assertProfilesIdentical(t, want, a.ProfileParallel(c, ParallelOptions{}), "zero options")
	assertProfilesIdentical(t, want, a.ProfileParallel(c, ParallelOptions{Workers: 1}), "one worker")
	assertProfilesIdentical(t, want,
		a.ProfileParallel(c, ParallelOptions{Workers: 3, ChunkSamples: 1 << 14}), "three workers")
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestParallelShortFinalShard pins the warm-up of a final shard shorter
// than half a window: every position in it is decided against the last
// stats of the capture, whose window starts before the shard's nominal
// warm-up. A deep dip inside that window but outside the nominal warm-up
// must still set the shard's normalisation floor.
func TestParallelShortFinalShard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NormWindowS = 40e-6 // 1600-sample window at 40 MHz
	const w, half, chunk, r = 1600, 800, 4000, 500
	n := 2*chunk + r
	deep := n - w + 100 // in the last window, before lo+half-w+1
	c := synthCapture(n, map[int]int{deep: 12, 2*chunk + 100: 12, 2*chunk + 300: 12}, 0.1, 1, 0.02, 4)
	for i := deep; i < deep+12; i++ {
		c.Samples[i] = 0.01
	}
	a := MustNewAnalyzer(cfg)
	want := a.Profile(c)
	var inLast int
	for _, s := range want.Stalls {
		if s.StartSample >= 2*chunk {
			inLast++
		}
	}
	if inLast != 2 {
		t.Fatalf("%d stalls in the final shard, want 2", inLast)
	}
	for _, workers := range []int{2, 4} {
		got := a.ProfileParallel(c, ParallelOptions{Workers: workers, ChunkSamples: chunk})
		assertProfilesIdentical(t, want, got, sprintf("workers=%d", workers))
	}
}
