package em

import (
	"math"
	"testing"
)

// testSeries builds a busy/stall envelope pattern for spatial tests.
func testSeries(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		v := 1.0
		if i%200 >= 150 && i%200 < 170 {
			v = 0.1 // stall dip
		}
		s[i] = v
	}
	return s
}

func captureAt(t *testing.T, cfg ReceiverConfig, series []float64) []float64 {
	t.Helper()
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatalf("NewReceiver(%+v): %v", cfg, err)
	}
	r.PushBlock(series)
	r.Flush()
	return r.Capture().Samples
}

// TestSpatialZeroPositionBitIdentical pins the spatial model's most
// important contract (the same discipline as the block-kernel equivalence
// tests of the synthesis pipeline): a receiver configured with the
// explicit zero position produces byte-for-byte the same capture as one
// whose config predates the Position field, and the same as the per-cycle
// oracle's. The spatial stage must not exist at the reference
// placement — not even as multiplications by 1.0.
func TestSpatialZeroPositionBitIdentical(t *testing.T) {
	series := testSeries(200_000)
	base := ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  40e6,
		ProbeGain:    1.3,
		SNRdB:        18,
		DriftPeriodS: 1e-3,
		DriftDepth:   0.08,
		Seed:         7,
	}
	withPos := base
	withPos.Position = ProbePosition{} // explicit zero

	ref := captureAt(t, base, series)
	got := captureAt(t, withPos, series)
	if len(ref) != len(got) {
		t.Fatalf("lengths differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
			t.Fatalf("sample %d differs: %v vs %v", i, ref[i], got[i])
		}
	}

	// The per-cycle oracle agrees with both.
	cyc := refCapture(withPos, series)
	if len(cyc) != len(ref) {
		t.Fatalf("oracle length %d vs %d", len(cyc), len(ref))
	}
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(cyc[i]) {
			t.Fatalf("oracle sample %d differs: %v vs %v", i, ref[i], cyc[i])
		}
	}
}

// TestSpatialScalarBlockEquivalent checks the displaced-probe pipeline
// against the per-cycle oracle bit for bit: the spatial stage is stateful,
// so an ordering bug in the block path would show here.
func TestSpatialScalarBlockEquivalent(t *testing.T) {
	series := testSeries(100_000)
	cfg := ReceiverConfig{
		ClockHz:     1e9,
		BandwidthHz: 40e6,
		ProbeGain:   1,
		SNRdB:       20,
		Position:    ProbePosition{XMM: 1.5, YMM: -0.5, OrientationDeg: 20},
		Seed:        3,
	}
	blk := captureAt(t, cfg, series)
	cyc := refCapture(cfg, series)
	if len(blk) != len(cyc) {
		t.Fatalf("lengths differ: %d vs %d", len(blk), len(cyc))
	}
	for i := range blk {
		if math.Float64bits(blk[i]) != math.Float64bits(cyc[i]) {
			t.Fatalf("sample %d differs: %v vs %v", i, blk[i], cyc[i])
		}
	}
}

// TestCouplingCurve checks the physics-shaped properties the rest of the
// system relies on: identity at zero, monotone decay with offset, cosine
// orientation loss, and growing blur/leak with displacement.
func TestCouplingCurve(t *testing.T) {
	if c := CouplingAt(ProbePosition{}); c.Gain != 1 || c.BlurAlpha != 1 || c.Leak != 0 {
		t.Fatalf("zero position not identity: %+v", c)
	}
	prevGain, prevLeak, prevBlur := 1.0, 0.0, 1.0
	for _, off := range []float64{0.5, 1, 2, 3, 5, 8} {
		c := CouplingAt(ProbePosition{XMM: off})
		if !(c.Gain < prevGain) || c.Gain <= 0 {
			t.Fatalf("gain not strictly decreasing at %v mm: %v (prev %v)", off, c.Gain, prevGain)
		}
		if !(c.Leak > prevLeak) || c.Leak >= leakMax {
			t.Fatalf("leak not growing (bounded) at %v mm: %v (prev %v)", off, c.Leak, prevLeak)
		}
		if !(c.BlurAlpha < prevBlur) || c.BlurAlpha <= 0 {
			t.Fatalf("blur alpha not tightening at %v mm: %v (prev %v)", off, c.BlurAlpha, prevBlur)
		}
		prevGain, prevLeak, prevBlur = c.Gain, c.Leak, c.BlurAlpha
	}
	// Orientation: 60° costs cos(60°) = half the amplitude; 90° floors at
	// the residual coupling rather than zero.
	g0 := CouplingAt(ProbePosition{XMM: 1}).Gain
	g60 := CouplingAt(ProbePosition{XMM: 1, OrientationDeg: 60}).Gain
	if math.Abs(g60-g0/2) > 1e-12 {
		t.Fatalf("60° gain %v, want %v", g60, g0/2)
	}
	g90 := CouplingAt(ProbePosition{XMM: 1, OrientationDeg: 90}).Gain
	if g90 <= 0 || g90 > g0*minOrientGain*1.01 {
		t.Fatalf("90° gain %v outside residual floor", g90)
	}
	if PositionGain(2) != CouplingAt(ProbePosition{XMM: 2}).Gain {
		t.Fatal("PositionGain disagrees with CouplingAt")
	}
}

// TestSpatialDegradesCapture checks the end-to-end effect the robustness
// experiments depend on: displacing the probe lowers amplitude and fills
// stall dips (dip floor rises relative to the busy level), rather than
// merely scaling the whole capture.
func TestSpatialDegradesCapture(t *testing.T) {
	series := testSeries(400_000)
	base := ReceiverConfig{ClockHz: 1e9, BandwidthHz: 40e6, ProbeGain: 1, SNRdB: math.Inf(1)}
	at := func(off float64) (busy, floor float64) {
		cfg := base
		cfg.Position = ProbePosition{XMM: off}
		s := captureAt(t, cfg, series)
		s = s[len(s)/2:] // steady state
		busy, floor = 0, math.Inf(1)
		for _, v := range s {
			if v > busy {
				busy = v
			}
			if v < floor {
				floor = v
			}
		}
		return busy, floor
	}
	b0, f0 := at(0)
	b3, f3 := at(3)
	if !(b3 < 0.5*b0) {
		t.Fatalf("3 mm offset barely attenuates: busy %v vs %v", b3, b0)
	}
	// Dip contrast: the floor/busy ratio must rise with offset (leak and
	// blur fill the dips), which is what eventually costs detections.
	if !(f3/b3 > f0/b0) {
		t.Fatalf("dip contrast did not degrade: %v/%v vs %v/%v", f3, b3, f0, b0)
	}
}

// TestPositionValidate exercises the config-level guards.
func TestPositionValidate(t *testing.T) {
	bad := []ProbePosition{
		{XMM: math.NaN()},
		{YMM: math.Inf(1)},
		{OrientationDeg: math.Inf(-1)},
		{XMM: 80, YMM: 80},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("position %+v validated", p)
		}
	}
	cfg := ReceiverConfig{ClockHz: 1e9, BandwidthHz: 40e6, ProbeGain: 1, SNRdB: 20,
		Position: ProbePosition{XMM: math.NaN()}}
	if _, err := NewReceiver(cfg); err == nil {
		t.Fatal("NewReceiver accepted NaN probe position")
	}
}
