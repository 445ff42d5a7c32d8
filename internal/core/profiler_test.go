package core

import (
	"math"
	"testing"
	"testing/quick"

	"emprof/internal/em"
	"emprof/internal/sim"
)

// synthCapture builds a capture at 40 MHz / 1 GHz clock: busy level 1.0
// with small ripple, and dips to dipLevel at the given sample positions
// with the given sample lengths.
func synthCapture(n int, dips map[int]int, dipLevel float64, gain float64, noise float64, seed uint64) *em.Capture {
	rng := sim.NewRNG(seed)
	s := make([]float64, n)
	for i := range s {
		s[i] = 1.0 + 0.08*math.Sin(float64(i)/3)
	}
	for start, length := range dips {
		for i := start; i < start+length && i < n; i++ {
			s[i] = dipLevel
		}
	}
	for i := range s {
		s[i] = gain * (s[i] + noise*rng.NormFloat64())
		if s[i] < 0 {
			s[i] = 0
		}
	}
	return &em.Capture{Samples: s, SampleRate: 40e6, ClockHz: 1e9}
}

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

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.NormWindowS = 0 },
		func(c *Config) { c.EnterThreshold = 0 },
		func(c *Config) { c.EnterThreshold = 1 },
		func(c *Config) { c.ExitThreshold = c.EnterThreshold - 0.1 },
		func(c *Config) { c.MinStallS = -1 },
		func(c *Config) { c.RefreshMinS = c.MinStallS - 1e-9 },
		func(c *Config) { c.MaxDipDepth = 0 },
		func(c *Config) { c.MaxDipDepthLong = c.MaxDipDepth / 2 },
		func(c *Config) { c.LongStallS = c.MinStallS / 2 },
		func(c *Config) { c.MinRangeFrac = 1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestDetectsSingleDip(t *testing.T) {
	// One 12-sample dip (= 300 ns = 300 cycles).
	c := synthCapture(20000, map[int]int{10000: 12}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 1 {
		t.Fatalf("stalls %d, want 1", len(p.Stalls))
	}
	s := p.Stalls[0]
	if s.StartSample < 9995 || s.StartSample > 10005 {
		t.Fatalf("dip located at %d, want ~10000", s.StartSample)
	}
	if s.Cycles < 200 || s.Cycles > 450 {
		t.Fatalf("stall cycles %v, want ~300", s.Cycles)
	}
	if s.Refresh {
		t.Fatal("300-cycle stall misclassified as refresh")
	}
	if p.Misses != 1 || p.RefreshStalls != 0 {
		t.Fatalf("profile counts %d/%d", p.Misses, p.RefreshStalls)
	}
}

func TestCountsManyDips(t *testing.T) {
	dips := map[int]int{}
	for i := 0; i < 50; i++ {
		dips[2000+i*400] = 10
	}
	c := synthCapture(40000, dips, 0.12, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 50 {
		t.Fatalf("stalls %d, want 50", len(p.Stalls))
	}
}

func TestIgnoresShortDips(t *testing.T) {
	// 2 samples = 50 ns < MinStallS (90 ns): must be ignored.
	c := synthCapture(20000, map[int]int{10000: 2}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 0 {
		t.Fatalf("stalls %d, want 0 for sub-threshold dip", len(p.Stalls))
	}
}

func TestIgnoresShallowDips(t *testing.T) {
	// With a genuine full stall in the same normalisation window (which
	// anchors the moving minimum at the power floor), a co-located long
	// but shallow dip — an on-chip-latency cluster at ~0.55 of busy —
	// must be rejected by the depth criterion, while the real stall is
	// kept.
	c := synthCapture(20000, map[int]int{9000: 12}, 0.1, 1, 0, 1)
	for i := 10000; i < 10012; i++ {
		c.Samples[i] = 0.55
	}
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 1 {
		t.Fatalf("stalls %d, want only the deep dip", len(p.Stalls))
	}
	if p.Stalls[0].StartSample > 9020 {
		t.Fatalf("kept the wrong dip: %+v", p.Stalls[0])
	}
}

func TestClassifiesRefreshStall(t *testing.T) {
	// 100 samples = 2.5 µs >= RefreshMinS: refresh-coincident.
	c := synthCapture(40000, map[int]int{20000: 100, 5000: 12}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if p.RefreshStalls != 1 || p.Misses != 1 {
		t.Fatalf("refresh=%d misses=%d, want 1/1", p.RefreshStalls, p.Misses)
	}
}

func TestGainInvariance(t *testing.T) {
	// The normalisation stage must make detection invariant to the
	// probe-coupling factor (paper Section IV).
	f := func(gRaw uint8) bool {
		gain := 0.1 + float64(gRaw)/32
		c := synthCapture(20000, map[int]int{6000: 12, 12000: 15}, 0.1, gain, 0, 1)
		p := MustNewAnalyzer(DefaultConfig()).Profile(c)
		return len(p.Stalls) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDriftTolerance(t *testing.T) {
	// A slow multiplicative drift (power-supply variation) must not break
	// detection.
	c := synthCapture(60000, map[int]int{10000: 12, 30000: 12, 50000: 12}, 0.1, 1, 0, 1)
	for i := range c.Samples {
		c.Samples[i] *= 1 + 0.3*math.Sin(2*math.Pi*float64(i)/55000)
	}
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 3 {
		t.Fatalf("stalls %d under drift, want 3", len(p.Stalls))
	}
}

func TestNoiseRobustness(t *testing.T) {
	c := synthCapture(40000, map[int]int{10000: 12, 20000: 12, 30000: 12}, 0.15, 1, 0.06, 3)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 3 {
		t.Fatalf("stalls %d under noise, want 3", len(p.Stalls))
	}
}

func TestQuietSignalNoFalsePositives(t *testing.T) {
	// Busy ripple with no dips, moderate noise: nothing to report.
	c := synthCapture(60000, nil, 0, 1, 0.05, 9)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) > 1 {
		t.Fatalf("false positives on quiet signal: %d", len(p.Stalls))
	}
}

func TestEmptyCapture(t *testing.T) {
	p := MustNewAnalyzer(DefaultConfig()).Profile(&em.Capture{SampleRate: 40e6, ClockHz: 1e9})
	if len(p.Stalls) != 0 || p.ExecCycles != 0 {
		t.Fatal("empty capture must yield empty profile")
	}
}

func TestProfileStats(t *testing.T) {
	c := synthCapture(40000, map[int]int{10000: 12, 20000: 12}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if p.StallFraction() <= 0 || p.StallFraction() > 0.01 {
		t.Fatalf("stall fraction %v implausible", p.StallFraction())
	}
	if p.AvgStallCycles() < 200 || p.AvgStallCycles() > 500 {
		t.Fatalf("avg stall %v, want ~300", p.AvgStallCycles())
	}
	h := p.LatencyHistogram(0, 1000, 10)
	if h.Total() != 2 {
		t.Fatalf("histogram total %d, want 2", h.Total())
	}
}

func TestMissRateSeries(t *testing.T) {
	c := synthCapture(40000, map[int]int{2000: 12, 3000: 12, 30000: 12}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	// Capture is 1 ms; bins of 250 µs.
	series := p.MissRateSeries(250e-6)
	if len(series) < 4 {
		t.Fatalf("series too short: %d", len(series))
	}
	if series[0] != 2 {
		t.Fatalf("bin 0 = %d, want 2", series[0])
	}
	if series[3] != 1 {
		t.Fatalf("bin 3 = %d, want 1", series[3])
	}
}

func TestStallsBetween(t *testing.T) {
	c := synthCapture(40000, map[int]int{10000: 12, 30000: 12}, 0.1, 1, 0, 1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	// 10000 samples at 40 MHz = 250 µs.
	out := p.StallsBetween(0, 500e-6)
	if len(out) != 1 {
		t.Fatalf("stalls in first half: %d, want 1", len(out))
	}
}

func TestKeepNormalized(t *testing.T) {
	a := MustNewAnalyzer(DefaultConfig())
	a.KeepNormalized = true
	c := synthCapture(20000, map[int]int{10000: 12}, 0.1, 1, 0, 1)
	p := a.Profile(c)
	if len(p.Normalized) != len(c.Samples) {
		t.Fatal("normalized signal not retained")
	}
	for _, v := range p.Normalized {
		if v < 0 || v > 1 {
			t.Fatalf("normalized value %v out of [0,1]", v)
		}
	}
}

func TestHysteresisMergesJitter(t *testing.T) {
	// A dip whose middle sample bounces to just above the enter threshold
	// but below the exit threshold must stay one stall.
	c := synthCapture(20000, map[int]int{10000: 12}, 0.05, 1, 0, 1)
	// Compute approximately where normalised ~0.38 lands in raw units:
	// busy ~1, floor 0.05 -> raw ~0.42.
	c.Samples[10006] = 0.42
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if len(p.Stalls) != 1 {
		t.Fatalf("stalls %d, want 1 merged dip", len(p.Stalls))
	}
}
