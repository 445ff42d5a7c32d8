package em

import (
	"math"
	"testing"
	"testing/quick"
)

func cleanConfig() ReceiverConfig {
	return ReceiverConfig{
		ClockHz:     1e9,
		BandwidthHz: 50e6,
		ProbeGain:   1,
		SNRdB:       math.Inf(1),
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	if err := cleanConfig().Validate(); err != nil {
		t.Fatalf("clean config rejected: %v", err)
	}
	muts := []func(*ReceiverConfig){
		func(c *ReceiverConfig) { c.ClockHz = 0 },
		func(c *ReceiverConfig) { c.BandwidthHz = 0 },
		func(c *ReceiverConfig) { c.BandwidthHz = 2e9 },
		func(c *ReceiverConfig) { c.ProbeGain = 0 },
		func(c *ReceiverConfig) { c.DriftDepth = 1 },
		func(c *ReceiverConfig) { c.DriftDepth = 0.1; c.DriftPeriodS = 0 },
	}
	for i, mut := range muts {
		cfg := cleanConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// fill returns n cycles of constant power v.
func fill(n int, v float64) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = v
	}
	return ps
}

func TestReceiverDecimation(t *testing.T) {
	r := MustNewReceiver(cleanConfig())
	if r.decim != 20 {
		t.Fatalf("decimation %d, want 20", r.decim)
	}
	if r.SampleRate() != 50e6 {
		t.Fatalf("sample rate %v, want 50 MHz", r.SampleRate())
	}
	r.PushBlock(fill(1000, 1))
	if got := len(r.Capture().Samples); got != 50 {
		t.Fatalf("%d samples from 1000 cycles at factor 20, want 50", got)
	}
}

func TestReceiverDCLevelPreserved(t *testing.T) {
	r := MustNewReceiver(cleanConfig())
	r.PushBlock(fill(4000, 1.5))
	s := r.Capture().Samples
	// Steady state after filter warm-up.
	for _, v := range s[20:] {
		if math.Abs(v-1.5) > 1e-6 {
			t.Fatalf("steady-state level %v, want 1.5", v)
		}
	}
}

func TestReceiverSeesStallDip(t *testing.T) {
	r := MustNewReceiver(cleanConfig())
	// 2000 busy cycles, 300 stalled, 2000 busy.
	r.PushBlock(fill(2000, 1.4))
	r.PushBlock(fill(300, 0.25))
	r.PushBlock(fill(2000, 1.4))
	r.Flush()
	s := r.Capture().Samples
	min := s[20]
	for _, v := range s[20:] {
		if v < min {
			min = v
		}
	}
	if min > 0.4 {
		t.Fatalf("stall dip bottom %v, want < 0.4", min)
	}
}

func TestProbeGainScalesSignal(t *testing.T) {
	cfg := cleanConfig()
	cfg.ProbeGain = 3
	r := MustNewReceiver(cfg)
	r.PushBlock(fill(2000, 1))
	s := r.Capture().Samples
	if got := s[len(s)-1]; math.Abs(got-3) > 1e-6 {
		t.Fatalf("gained level %v, want 3", got)
	}
}

func TestDriftModulatesSignal(t *testing.T) {
	cfg := cleanConfig()
	cfg.DriftDepth = 0.1
	cfg.DriftPeriodS = 1e-5 // short period so one test sees full swings
	r := MustNewReceiver(cfg)
	r.PushBlock(fill(60000, 1))
	s := r.Capture().Samples[50:]
	min, max := s[0], s[0]
	for _, v := range s {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max < 1.08 || min > 0.92 {
		t.Fatalf("drift swing [%v, %v], want ~[0.9, 1.1]", min, max)
	}
}

func TestNoiseProducesFloorAndSpread(t *testing.T) {
	cfg := cleanConfig()
	cfg.SNRdB = 20
	cfg.Seed = 7
	r := MustNewReceiver(cfg)
	r.PushBlock(fill(40000, 0)) // pure stall: output is the noise floor
	s := r.Capture().Samples[50:]
	var sum float64
	for _, v := range s {
		if v < 0 {
			t.Fatal("magnitude must be non-negative")
		}
		sum += v
	}
	mean := sum / float64(len(s))
	if mean <= 0.01 || mean > 0.3 {
		t.Fatalf("noise floor mean %v, want a small positive level", mean)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []float64 {
		cfg := cleanConfig()
		cfg.SNRdB = 25
		cfg.Seed = seed
		r := MustNewReceiver(cfg)
		r.PushBlock(fill(2000, 1))
		return r.Capture().Samples
	}
	a, b := run(1), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical captures")
		}
	}
	c := run(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must give different noise")
	}
}

func TestCaptureHelpers(t *testing.T) {
	c := &Capture{Samples: make([]float64, 100), SampleRate: 50e6, ClockHz: 1e9}
	if got := c.Duration(); math.Abs(got-2e-6) > 1e-15 {
		t.Fatalf("duration %v, want 2 µs", got)
	}
	if got := c.CyclesPerSample(); got != 20 {
		t.Fatalf("cycles/sample %v, want 20", got)
	}
	sl := c.Slice(10, 30)
	if len(sl.Samples) != 20 || sl.SampleRate != c.SampleRate {
		t.Fatal("slice wrong")
	}
	// Out-of-range slicing clamps.
	if got := c.Slice(-5, 1000); len(got.Samples) != 100 {
		t.Fatal("slice must clamp to bounds")
	}
	if got := c.Slice(50, 10); len(got.Samples) != 0 {
		t.Fatal("inverted slice must be empty")
	}
	empty := &Capture{}
	if empty.Duration() != 0 {
		t.Fatal("empty capture duration must be 0")
	}
}

// TestSliceDegenerateBounds pins the clamping cases the old partial clamp
// let through to a slice-bounds panic: lo beyond the capture end, and a
// negative hi combined with an in-range lo.
func TestSliceDegenerateBounds(t *testing.T) {
	c := &Capture{Samples: make([]float64, 10), SampleRate: 50e6, ClockHz: 1e9}
	cases := []struct {
		lo, hi, want int
	}{
		{200, 300, 0},   // lo > len
		{15, 5, 0},      // lo > len, hi in range
		{3, -2, 0},      // negative hi
		{-4, -1, 0},     // both negative
		{0, 10, 10},     // full range stays full
		{10, 10, 0},     // empty at the end
		{-100, 100, 10}, // wildly out of range on both sides
	}
	for _, tc := range cases {
		got := c.Slice(tc.lo, tc.hi)
		if len(got.Samples) != tc.want {
			t.Errorf("Slice(%d, %d) = %d samples, want %d", tc.lo, tc.hi, len(got.Samples), tc.want)
		}
		if got.SampleRate != c.SampleRate || got.ClockHz != c.ClockHz {
			t.Errorf("Slice(%d, %d) lost metadata", tc.lo, tc.hi)
		}
	}
}

// TestCyclesPerSampleDegenerate: missing sample-rate metadata must yield 0
// (like Duration), never ±Inf or NaN.
func TestCyclesPerSampleDegenerate(t *testing.T) {
	for _, rate := range []float64{0, -50e6} {
		c := &Capture{Samples: make([]float64, 4), SampleRate: rate, ClockHz: 1e9}
		if got := c.CyclesPerSample(); got != 0 {
			t.Errorf("CyclesPerSample with rate %v = %v, want 0", rate, got)
		}
	}
}

func TestSliceAliasesAndCloneCopies(t *testing.T) {
	c := &Capture{Samples: []float64{0, 1, 2, 3, 4}, SampleRate: 50e6, ClockHz: 1e9}

	// Slice is documented to alias the parent's backing array.
	sl := c.Slice(1, 4)
	sl.Samples[0] = 99
	if c.Samples[1] != 99 {
		t.Fatal("Slice must alias the parent samples")
	}

	// Clone must be fully independent in both directions.
	cl := c.Clone()
	if cl.SampleRate != c.SampleRate || cl.ClockHz != c.ClockHz || len(cl.Samples) != len(c.Samples) {
		t.Fatal("Clone metadata/length mismatch")
	}
	cl.Samples[0] = -1
	if c.Samples[0] != 0 {
		t.Fatal("mutating the clone changed the original")
	}
	c.Samples[2] = -2
	if cl.Samples[2] == -2 {
		t.Fatal("mutating the original changed the clone")
	}
}

func TestSynthesizeFromSeries(t *testing.T) {
	series := []float64{1, 1, 0, 0, 1, 1}
	cap, err := SynthesizeFromSeries(series, 20, cleanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Samples) != len(series) {
		t.Fatalf("synthesized %d samples from %d values", len(cap.Samples), len(series))
	}
	if _, err := SynthesizeFromSeries(series, 0, cleanConfig()); err == nil {
		t.Fatal("zero cyclesPerValue accepted")
	}
}

// TestGainInvarianceOfShape is the property EMPROF's normalisation relies
// on: scaling the probe gain scales the whole capture uniformly.
func TestGainInvarianceOfShape(t *testing.T) {
	f := func(gainRaw uint8) bool {
		gain := 0.5 + float64(gainRaw%40)/10
		base := MustNewReceiver(cleanConfig())
		cfg := cleanConfig()
		cfg.ProbeGain = gain
		scaled := MustNewReceiver(cfg)
		ps := fill(3000, 1)
		for i := 1001; i < 1400; i++ {
			ps[i] = 0.25
		}
		base.PushBlock(ps)
		scaled.PushBlock(ps)
		a, b := base.Capture().Samples, scaled.Capture().Samples
		for i := range a {
			if math.Abs(b[i]-gain*a[i]) > 1e-9*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
