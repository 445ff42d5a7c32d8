package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"emprof/internal/em"
	"emprof/internal/faults"
	"emprof/internal/sim"
	"emprof/internal/trace"
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

// TestParallelMatchesSequential requires bit-identical profiles from the
// pipeline over clean and impaired captures, under a 2,000-sample window
// (half below pushBlockN) and the default 10,000-sample one (half above
// it), and over prefixes whose lengths sit on the hand-off boundaries:
// one sample, lead+1, half, and one chunk ± 1, and two chunks plus half.
func TestParallelMatchesSequential(t *testing.T) {
	narrow := DefaultConfig()
	narrow.NormWindowS = 40e-6
	for _, tc := range []struct {
		cfg   Config
		seed  uint64
		nasty bool
	}{
		{narrow, 11, false},
		{narrow, 11, true},
		{DefaultConfig(), 21, false},
	} {
		a := MustNewAnalyzer(tc.cfg)
		a.KeepNormalized = true
		c := syntheticCapture(1<<18, tc.seed, tc.nasty)
		want := a.Profile(c)
		if tc.nasty && want.Quality.Clean() {
			t.Fatal("nasty capture reported clean quality; test is not exercising impairments")
		}
		if len(want.Stalls) == 0 {
			t.Fatal("sequential profile found no stalls; test is vacuous")
		}
		ctx := sprintf("seed=%d nasty=%v", tc.seed, tc.nasty)
		assertProfilesIdentical(t, want, a.ProfileParallel(c), ctx)

		half := normWindow(tc.cfg, c.SampleRate) / 2
		lead := (tc.cfg.SmoothSamples - 1) / 2
		for _, n := range []int{1, lead + 1, half, pushBlockN - 1, pushBlockN, pushBlockN + 1, 2*pushBlockN + half} {
			pc := &em.Capture{Samples: c.Samples[:n], SampleRate: c.SampleRate, ClockHz: c.ClockHz}
			assertProfilesIdentical(t, a.Profile(pc), a.ProfileParallel(pc), sprintf("%s n=%d", ctx, n))
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
	assertProfilesIdentical(t, want, a.ProfileParallel(c), "faults")
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
		assertProfilesIdentical(t, want, a.ProfileParallel(c), name)
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
		assertProfilesIdentical(t, want, a.ProfileParallel(c), name)
	}
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// TestParallelShortFinalShard pins the final half window: its positions
// are decided against the last stats of the capture, whose window reaches
// one full window back from the end. A deep dip inside that window must
// set the normalisation floor of the two stalls in the final 500
// samples, on every path.
func TestParallelShortFinalShard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NormWindowS = 40e-6 // 1600-sample window at 40 MHz
	const w, tail, r = 1600, 4000, 500
	n := 2*tail + r
	deep := n - w + 100 // in the last window
	c := synthCapture(n, map[int]int{deep: 12, 2*tail + 100: 12, 2*tail + 300: 12}, 0.1, 1, 0.02, 4)
	for i := deep; i < deep+12; i++ {
		c.Samples[i] = 0.01
	}
	a := MustNewAnalyzer(cfg)
	want := a.Profile(c)
	var inLast int
	for _, s := range want.Stalls {
		if s.StartSample >= 2*tail {
			inLast++
		}
	}
	if inLast != 2 {
		t.Fatalf("%d stalls in the final %d samples, want 2", inLast, r)
	}
	assertProfilesIdentical(t, want, a.ProfileParallel(c), "parallel")
}

// TestPipelineFlagHoldBack pins the producer's hold-back. A receiver gain
// step flags the half−1 positions before the sample that confirms it, so
// when that sample is the first of a hand-off chunk its patch reaches
// exactly the deepest position the hold-back keeps. A stall dip exits on
// that position: flagged, the dip is aborted; handed over too early, the
// flag is lost and the dip is reported. The step is confirmed once at the
// first sample of a chunk and once at its last; the pipeline must match
// Profile and the oracle both times.
func TestPipelineFlagHoldBack(t *testing.T) {
	cfg := DefaultConfig()
	half := normWindow(cfg, 40e6) / 2
	// build returns a capture whose gain falls to a quarter at step, with
	// a 12-sample dip ending just before dipEnd.
	build := func(step, dipEnd int) *em.Capture {
		c := synthCapture(5*pushBlockN, map[int]int{dipEnd - 12: 12}, 0.1, 1, 0.02, 7)
		for i := step; i < len(c.Samples); i++ {
			c.Samples[i] *= 0.25
		}
		return c
	}
	// confirmAt returns the position of the sample that confirmed the
	// step: the one whose flag reaches half−1 positions back.
	confirmAt := func(c *em.Capture) int {
		a := MustNewAnalyzer(cfg)
		ring := trace.NewRing(1 << 16)
		a.Observer = ring
		a.Profile(c)
		for _, r := range ring.Records() {
			if r.Type == trace.TypeQualityFlag && r.Retro == half-1 {
				return int(r.Pos)
			}
		}
		t.Fatal("no gain step confirmed")
		return 0
	}
	const trial = 7000
	delay := confirmAt(build(trial, 1000)) - trial

	a := MustNewAnalyzer(cfg)
	a.KeepNormalized = true
	for _, confirm := range []int{2 * pushBlockN, 3*pushBlockN - 1} {
		deepest := confirm - (half - 1)
		c := build(confirm-delay, deepest)
		if got := confirmAt(c); got != confirm {
			t.Fatalf("step confirmed at %d, want %d", got, confirm)
		}
		want := oracleProfile(cfg, c, true)
		if want.Quality.AbortedDips == 0 {
			t.Fatalf("confirm=%d: the dip was not aborted; the check is vacuous", confirm)
		}
		for _, s := range want.Stalls {
			if s.EndSample == deepest {
				t.Fatalf("confirm=%d: the dip was reported; the check is vacuous", confirm)
			}
		}
		if got := a.Profile(c); !reflect.DeepEqual(got, want) {
			assertProfilesIdentical(t, want, got, "batch")
			t.Fatalf("confirm=%d batch: profile differs from the oracle", confirm)
		}
		if got := a.ProfileParallel(c); !reflect.DeepEqual(got, want) {
			assertProfilesIdentical(t, want, got, "parallel")
			t.Fatalf("confirm=%d parallel: profile differs from the oracle", confirm)
		}
	}
}
