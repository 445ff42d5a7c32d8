package core

import (
	"testing"

	"emprof/internal/em"
	"emprof/internal/trace"
)

// Probe-shift detector tests. A mid-capture probe bump whose gain change
// sits below the step band (ratio < 2.5) is invisible to the gain-step
// detector, yet a down-shift past ~2.2× pins the post-bump busy level
// under the dip-exit threshold for the whole straddling half-window: any
// real dip there fails to exit and smears into one giant phantom refresh
// stall. ProbeShiftRatio arms a second detector in that band which trades
// the phantom for one bounded resync.

// shiftCapture builds a capture with five dips and a 2.35× downward gain
// bump at sample 20000 (inside the step detector's blind band). The dip
// at 20300 sits in the bump's transition region.
func shiftCapture(seed uint64) *em.Capture {
	c := synthCapture(40000, map[int]int{5000: 12, 10000: 12, 20300: 12, 28000: 12, 34000: 12}, 0.1, 1, 0.02, seed)
	for i := 20000; i < len(c.Samples); i++ {
		c.Samples[i] /= 2.35
	}
	return c
}

func shiftConfig() Config {
	cfg := DefaultConfig()
	cfg.ProbeShiftRatio = 1.4
	return cfg
}

// TestProbeShiftDefaultOffBitIdentical pins that the detector's plumbing
// changes nothing while disabled: with ProbeShiftRatio zero the profile of
// the bumped capture — stalls, confidences, quality — must match what the
// pre-shift-detector pipeline produced, which the snapshot and equivalence
// suites elsewhere already pin. Here we assert the sharper property that
// an armed detector on a *clean* capture is also a no-op: no shift ever
// persists, so output is bit-identical to the default configuration.
func TestProbeShiftDefaultOffBitIdentical(t *testing.T) {
	c := synthCapture(40000, map[int]int{10000: 12, 25000: 12}, 0.1, 1, 0.02, 7)
	pa := MustNewAnalyzer(DefaultConfig()).Profile(c)
	pb := MustNewAnalyzer(shiftConfig()).Profile(c)
	if pa.Quality != pb.Quality {
		t.Fatalf("quality diverged on clean capture:\noff: %v\non:  %v", pa.Quality, pb.Quality)
	}
	if len(pa.Stalls) != len(pb.Stalls) {
		t.Fatalf("stall counts diverged: %d vs %d", len(pa.Stalls), len(pb.Stalls))
	}
	for i := range pa.Stalls {
		if pa.Stalls[i] != pb.Stalls[i] {
			t.Fatalf("stall %d diverged:\noff: %+v\non:  %+v", i, pa.Stalls[i], pb.Stalls[i])
		}
	}
}

// TestProbeShiftBoundsPhantomStalls demonstrates the failure mode and the
// fix on the same capture: unarmed, the transition-region dip fails to
// exit and reads as a phantom refresh stall; armed, the shift confirms
// within one persist window, the straddling half-window is retro-flagged
// (aborting the unreliable dip), and profiling resumes cleanly after one
// resync.
func TestProbeShiftBoundsPhantomStalls(t *testing.T) {
	// Unarmed: the post-bump busy level normalises to ~0.40, below the
	// 0.42 exit threshold, so the 20300 dip smears until the pre-bump max
	// drains from the window — a phantom refresh stall.
	pd := MustNewAnalyzer(DefaultConfig()).Profile(shiftCapture(19))
	if pd.RefreshStalls == 0 {
		t.Fatalf("expected the unarmed pipeline to smear the transition dip into a refresh stall; got %d misses / %d refresh",
			pd.Misses, pd.RefreshStalls)
	}

	ring := trace.NewRing(256)
	a := MustNewAnalyzer(shiftConfig())
	a.Observer = ring
	p := a.Profile(shiftCapture(19))

	if p.RefreshStalls != 0 {
		t.Fatalf("refresh stalls = %d, want 0 with the shift detector armed", p.RefreshStalls)
	}
	// The four dips clear of the bump must all profile; the transition
	// dip may be either sacrificed to the retro flags (4) or recovered
	// after the resync (5) depending on where the confirmation lands.
	if p.Misses < 4 || p.Misses > 5 {
		t.Fatalf("misses = %d, want 4 or 5 (regions clear of the bump must profile)", p.Misses)
	}
	if p.Quality.Resyncs < 1 {
		t.Fatalf("Resyncs = %d, want >= 1", p.Quality.Resyncs)
	}
	// The phantom is bounded by the resync window: nothing may straddle
	// the bump itself, and any stall in the transition region must be a
	// true-to-duration detection (the real 12-sample dip at 20300), not a
	// smear that failed to exit.
	if s := overlaps(p, 19850, 20300); s != nil {
		t.Fatalf("stall %+v straddles the probe bump", *s)
	}
	if s := overlaps(p, 20300, 20600); s != nil && s.EndSample-s.StartSample > 50 {
		t.Fatalf("stall %+v in the transition region smeared past the resync bound", *s)
	}
	// The resync must be attributed to the probe shift in the trace.
	sawShift := false
	for _, r := range ring.Records() {
		if r.Type == trace.TypeResync && r.Cause == trace.ResyncProbeShift {
			sawShift = true
		}
	}
	if !sawShift {
		t.Fatal("no resync with cause probe_shift in the trace")
	}
}

// TestProbeShiftBatchStreamParallelEquivalent extends the batch/stream
// equivalence discipline to the armed detector on a bumped capture.
func TestProbeShiftBatchStreamParallelEquivalent(t *testing.T) {
	cfg := shiftConfig()
	c := shiftCapture(23)
	pb := MustNewAnalyzer(cfg).Profile(c)
	ps, err := ProfileStream(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertProfilesIdentical(t, pb, ps, "stream")
}

// TestProbeShiftConfigValidation pins the knob's contract.
func TestProbeShiftConfigValidation(t *testing.T) {
	for _, v := range []float64{-0.5, 0.5, 1} {
		cfg := DefaultConfig()
		cfg.ProbeShiftRatio = v
		if err := cfg.Validate(); err == nil {
			t.Errorf("ProbeShiftRatio %v accepted", v)
		}
	}
	cfg := DefaultConfig()
	cfg.ProbeShiftRatio = 1.4
	if err := cfg.Validate(); err != nil {
		t.Errorf("ProbeShiftRatio 1.4 rejected: %v", err)
	}
}
