package core

import (
	"math"
	"testing"

	"emprof/internal/em"
)

// Quality-monitor hardening tests. The synthetic captures run at 40 MHz
// (synthCapture), so with DefaultConfig the norm window is 8000 samples
// (half = 4000), the gap-resync threshold is 500 samples and the
// gain-step persistence is 150 samples.

// overlaps reports whether any stall intersects [lo, hi).
func overlaps(p *Profile, lo, hi int) *Stall {
	for i := range p.Stalls {
		s := &p.Stalls[i]
		if s.StartSample < hi && s.EndSample > lo {
			return s
		}
	}
	return nil
}

func TestCleanCaptureQuality(t *testing.T) {
	c := synthCapture(40000, map[int]int{10000: 12, 25000: 12}, 0.1, 1, 0.02, 7)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if !p.Quality.Clean() {
		t.Fatalf("clean capture reported impaired: %v", p.Quality)
	}
	if p.Quality.Samples != 40000 {
		t.Fatalf("Samples = %d, want 40000", p.Quality.Samples)
	}
	if f := p.Quality.UsableFraction(); f != 1 {
		t.Fatalf("UsableFraction = %v, want 1", f)
	}
	if p.Misses != 2 {
		t.Fatalf("misses = %d, want 2", p.Misses)
	}
	for _, s := range p.Stalls {
		if s.Confidence < 0.5 || s.Confidence > 1 {
			t.Fatalf("clean-dip confidence %v out of [0.5, 1]", s.Confidence)
		}
	}
	if mc := p.MeanConfidence(); mc < 0.5 || mc > 1 {
		t.Fatalf("mean confidence %v out of [0.5, 1]", mc)
	}
}

func TestNoPhantomStallOverGap(t *testing.T) {
	// Dips before the gap, a 600-sample zero-filled dropout (15 µs — far
	// beyond RefreshMinS, so an unhardened pipeline would report it as a
	// giant refresh stall), and dips after it, the first only 400 samples
	// past the gap end — well within one normalisation window.
	c := synthCapture(40000, map[int]int{5000: 12, 15000: 12, 21000: 12, 30000: 12}, 0.1, 1, 0.02, 3)
	for i := 20000; i < 20600; i++ {
		c.Samples[i] = 0
	}
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)

	if s := overlaps(p, 19990, 20610); s != nil {
		t.Fatalf("phantom stall %+v spans the dropout gap", *s)
	}
	if p.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (detection must recover after the gap)", p.Misses)
	}
	if p.RefreshStalls != 0 {
		t.Fatalf("refresh stalls = %d, want 0", p.RefreshStalls)
	}
	q := p.Quality
	if q.DroppedSamples != 600 {
		t.Fatalf("DroppedSamples = %d, want 600", q.DroppedSamples)
	}
	if q.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", q.Resyncs)
	}
	if q.Clean() {
		t.Fatal("quality reported clean despite dropout")
	}
	if f := q.UsableFraction(); f >= 1 || f < 0.97 {
		t.Fatalf("UsableFraction = %v, want ~0.985", f)
	}
}

func TestNoPhantomStallOverGainStep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		factor float64
	}{
		{"up3x", 3.0},
		{"down3x", 1.0 / 3.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Dips well clear of the step on both sides (≥ one half-window),
			// receiver gain jumps by 3× at sample 20000.
			c := synthCapture(40000, map[int]int{5000: 12, 10000: 12, 28000: 12, 34000: 12}, 0.1, 1, 0.02, 11)
			for i := 20000; i < len(c.Samples); i++ {
				c.Samples[i] *= tc.factor
			}
			p := MustNewAnalyzer(DefaultConfig()).Profile(c)

			// No stall may span the discontinuity: stalls must end before
			// the step or start after the transition region.
			if s := overlaps(p, 19850, 20160); s != nil {
				t.Fatalf("phantom stall %+v spans the gain step", *s)
			}
			if p.Misses != 4 {
				t.Fatalf("misses = %d, want 4 (both gain regimes must profile)", p.Misses)
			}
			if p.RefreshStalls != 0 {
				t.Fatalf("refresh stalls = %d, want 0", p.RefreshStalls)
			}
			q := p.Quality
			if q.Resyncs < 1 {
				t.Fatalf("Resyncs = %d, want >= 1 after a 3x gain step", q.Resyncs)
			}
			if q.StepSamples == 0 {
				t.Fatal("StepSamples = 0, want > 0")
			}
		})
	}
}

func TestNaNGuard(t *testing.T) {
	mk := func() *em.Capture {
		return synthCapture(40000, map[int]int{10000: 12, 25000: 12}, 0.1, 1, 0.02, 5)
	}
	clean := MustNewAnalyzer(DefaultConfig()).Profile(mk())

	c := mk()
	c.Samples[15000] = math.NaN()
	c.Samples[16000] = math.Inf(1)
	c.Samples[17000] = math.Inf(-1)
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)

	if p.Quality.NaNSamples != 3 {
		t.Fatalf("NaNSamples = %d, want 3", p.Quality.NaNSamples)
	}
	if p.Misses != clean.Misses || p.RefreshStalls != clean.RefreshStalls {
		t.Fatalf("stall counts changed under NaN corruption: got %d/%d, want %d/%d",
			p.Misses, p.RefreshStalls, clean.Misses, clean.RefreshStalls)
	}
	for i, s := range p.Stalls {
		cs := clean.Stalls[i]
		if s.StartSample != cs.StartSample || s.EndSample != cs.EndSample {
			t.Fatalf("stall %d moved under NaN corruption: %+v vs %+v", i, s, cs)
		}
	}
	// The corrupt samples are isolated (held, not structural), so no dip
	// is aborted and no resync fires.
	if p.Quality.Resyncs != 0 || p.Quality.AbortedDips != 0 {
		t.Fatalf("unexpected resyncs/aborts: %v", p.Quality)
	}
}

func TestClipFlagging(t *testing.T) {
	// A flat-top at the busy level in an otherwise noisy capture can only
	// be ADC saturation: consecutive exactly-equal samples do not happen
	// by chance in noise.
	c := synthCapture(40000, map[int]int{10000: 12, 30000: 12}, 0.1, 1, 0.02, 9)
	for i := 15000; i < 15300; i++ {
		c.Samples[i] = 1.05
	}
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if p.Quality.ClippedSamples < 4 {
		t.Fatalf("ClippedSamples = %d, want >= 4", p.Quality.ClippedSamples)
	}
	if p.Misses != 2 || p.RefreshStalls != 0 {
		t.Fatalf("stall counts %d/%d, want 2/0", p.Misses, p.RefreshStalls)
	}

	// A noise-free constant capture (the SESC power proxy flat-lines
	// legitimately on busy plateaus) must NOT be flagged as clipped: the
	// distinctness arm only enables the detector on demonstrably noisy
	// signals.
	flat := make([]float64, 20000)
	for i := range flat {
		flat[i] = 1.0
	}
	pf := MustNewAnalyzer(DefaultConfig()).Profile(&em.Capture{Samples: flat, SampleRate: 40e6, ClockHz: 1e9})
	if !pf.Quality.Clean() {
		t.Fatalf("noise-free constant capture flagged: %v", pf.Quality)
	}
}

func TestBurstNoPhantom(t *testing.T) {
	mk := func() *em.Capture {
		return synthCapture(40000, map[int]int{6000: 12, 15000: 12, 21000: 12, 30000: 12}, 0.1, 1, 0.02, 13)
	}
	clean := MustNewAnalyzer(DefaultConfig()).Profile(mk())

	// 3-sample impulsive bursts at ~6x the busy level. Unguarded, each
	// spike would inflate the moving max and push the busy level below the
	// dip-entry threshold for up to a full window — a phantom stall.
	c := mk()
	for _, at := range []int{12000, 18000, 24000} {
		for i := at; i < at+3; i++ {
			c.Samples[i] = 6.0
		}
	}
	p := MustNewAnalyzer(DefaultConfig()).Profile(c)
	if p.Quality.BurstSamples != 9 {
		t.Fatalf("BurstSamples = %d, want 9", p.Quality.BurstSamples)
	}
	if p.Misses != clean.Misses || p.RefreshStalls != clean.RefreshStalls {
		t.Fatalf("stall counts changed under bursts: got %d/%d, want %d/%d",
			p.Misses, p.RefreshStalls, clean.Misses, clean.RefreshStalls)
	}
}

func TestConfidencePenalisedNearImpairment(t *testing.T) {
	// Same dip shape twice; in the second capture a dropout gap ends 400
	// samples before the dip, so its confidence must drop (distance-to-
	// impairment term) while the far dip keeps a high score.
	mkDip := func(gap bool) *em.Capture {
		c := synthCapture(40000, map[int]int{11000: 12}, 0.1, 1, 0, 1)
		if gap {
			for i := 10000; i < 10600; i++ {
				c.Samples[i] = 0
			}
		}
		return c
	}
	pa := MustNewAnalyzer(DefaultConfig()).Profile(mkDip(false))
	pb := MustNewAnalyzer(DefaultConfig()).Profile(mkDip(true))
	if len(pa.Stalls) != 1 || len(pb.Stalls) != 1 {
		t.Fatalf("stall counts %d/%d, want 1/1", len(pa.Stalls), len(pb.Stalls))
	}
	ca, cb := pa.Stalls[0].Confidence, pb.Stalls[0].Confidence
	if ca <= cb+0.1 {
		t.Fatalf("confidence not penalised near impairment: clean=%v near-gap=%v", ca, cb)
	}
	if cb <= 0 || ca > 1 {
		t.Fatalf("confidence out of range: clean=%v near-gap=%v", ca, cb)
	}
}

func TestBatchStreamEquivalentUnderFaults(t *testing.T) {
	// One capture carrying every impairment class at once: dropout gap,
	// gain step, burst, and NaN corruption. Batch and streaming must agree
	// exactly — stalls, confidence, and quality record.
	c := synthCapture(40000, map[int]int{4000: 12, 12000: 12, 24500: 12, 32000: 12}, 0.1, 1, 0.02, 17)
	for i := 8000; i < 8600; i++ {
		c.Samples[i] = 0
	}
	for i := 14000; i < 14003; i++ {
		c.Samples[i] = 6.0
	}
	for i := 20000; i < len(c.Samples); i++ {
		c.Samples[i] *= 3.0
	}
	c.Samples[26000] = math.NaN()

	cfg := DefaultConfig()
	pb := MustNewAnalyzer(cfg).Profile(c)
	ps, err := ProfileStream(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Quality != ps.Quality {
		t.Fatalf("quality diverged:\nbatch:  %v\nstream: %v", pb.Quality, ps.Quality)
	}
	if len(pb.Stalls) != len(ps.Stalls) {
		t.Fatalf("stall counts diverged: batch %d, stream %d", len(pb.Stalls), len(ps.Stalls))
	}
	for i := range pb.Stalls {
		if pb.Stalls[i] != ps.Stalls[i] {
			t.Fatalf("stall %d diverged:\nbatch:  %+v\nstream: %+v", i, pb.Stalls[i], ps.Stalls[i])
		}
	}
	if pb.Misses != ps.Misses || pb.RefreshStalls != ps.RefreshStalls {
		t.Fatalf("counts diverged: batch %d/%d, stream %d/%d",
			pb.Misses, pb.RefreshStalls, ps.Misses, ps.RefreshStalls)
	}
	// Sanity: impairments were actually seen, and genuine dips survived.
	if pb.Quality.Clean() {
		t.Fatal("quality reported clean despite injected faults")
	}
	if pb.Misses < 3 {
		t.Fatalf("misses = %d, want >= 3 under faults", pb.Misses)
	}
}

func TestStreamQualitySnapshot(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewStreamAnalyzer(cfg, 40e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	s.PushBlock([]float64{1.0})
	s.PushBlock([]float64{math.NaN()})
	s.PushBlock([]float64{1.0})
	q := s.Quality()
	if q.Samples != 3 || q.NaNSamples != 1 {
		t.Fatalf("snapshot = %v, want 3 samples / 1 NaN", q)
	}
}
