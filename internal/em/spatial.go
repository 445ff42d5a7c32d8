package em

// This file models the spatial side of the acquisition: what happens to
// the received signal when the near-field probe is not at the sweet spot
// found during setup. The paper itself observes that "even small changes
// in probe/antenna position can dramatically change the overall magnitude
// of the received signal", and follow-on work (probe-position-resilient
// profiling, SCNIFFER's automated probe-location search) shows placement
// is the dominant real-world failure mode for EM profiling. Three
// position-dependent effects matter for EMPROF:
//
//  1. Coupling gain. A small magnetic loop couples to the near field of
//     the processor's power-delivery loops; the field of such a source
//     falls off like a dipole, so amplitude decays as
//     1/(1+(r/r0)^2)^(3/2) with lateral offset r, and as the cosine of
//     the loop-plane misalignment. Because the receiver's own noise is
//     position-independent, the effective SNR drops by the same factor —
//     stall floors rise toward the noise floor.
//
//  2. Frequency-dependent attenuation. Higher-frequency envelope content
//     lives in smaller current loops whose near field decays faster with
//     distance, so a displaced probe sees a low-passed envelope: short
//     stalls smear out exactly as if the measurement bandwidth had
//     shrunk. Modelled as a one-pole smoothing of the envelope whose
//     corner tightens with offset.
//
//  3. Channel mixing. Away from the sweet spot the probe hangs over
//     other current loops (other SoC blocks, board regulators) whose
//     aggregate activity tracks the chip-wide mean rather than the
//     core's instantaneous activity. That bleed-through fills in stall
//     dips — the signal no longer reaches the quiescent floor — and is
//     modelled as mixing a running mean of the envelope into the sample.
//
// The zero position is exactly the existing acquisition path: when
// ProbePosition is the zero value no spatial stage is constructed at all,
// so captures are bit-identical to a receiver that predates this model
// (pinned by TestSpatialZeroPositionBitIdentical).

import (
	"fmt"
	"math"
)

// ProbePosition is the probe placement relative to the best-coupling
// reference point: a lateral offset in millimetres and a loop-plane
// misalignment in degrees. The zero value is the reference placement.
type ProbePosition struct {
	// XMM and YMM are the lateral displacement components in mm.
	XMM, YMM float64
	// OrientationDeg is the loop-plane rotation away from the optimal
	// orientation, in degrees (90 ≈ the loop plane parallel to the field,
	// near-zero coupling).
	OrientationDeg float64
}

// IsZero reports whether the probe sits at the reference placement.
func (p ProbePosition) IsZero() bool { return p == ProbePosition{} }

// OffsetMM returns the lateral displacement magnitude in mm.
func (p ProbePosition) OffsetMM() float64 { return math.Hypot(p.XMM, p.YMM) }

// Validate checks the position is physically sensible.
func (p ProbePosition) Validate() error {
	for _, v := range [...]float64{p.XMM, p.YMM, p.OrientationDeg} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("em: probe position %+v not finite", p)
		}
	}
	if p.OffsetMM() > 100 {
		return fmt.Errorf("em: probe offset %.1f mm out of range (near field is gone past 100 mm)", p.OffsetMM())
	}
	return nil
}

// String renders the position compactly, e.g. "(1.5,-0.5)mm/30°".
func (p ProbePosition) String() string {
	if p.OrientationDeg == 0 {
		return fmt.Sprintf("(%g,%g)mm", p.XMM, p.YMM)
	}
	return fmt.Sprintf("(%g,%g)mm/%g°", p.XMM, p.YMM, p.OrientationDeg)
}

// Spatial decay constants. couplingScaleMM is the effective standoff of
// the probe (the r0 of the dipole roll-off): a 2 mm standoff matches the
// paper's "probe touching the package" setup, where a millimetre of
// lateral slip already costs ~30% of the amplitude. leakScaleMM and
// leakMax shape how quickly unrelated-source bleed-through grows with
// offset; minOrientGain is the residual coupling of a fully misaligned
// loop (fields are never perfectly planar).
const (
	couplingScaleMM = 2.0
	leakScaleMM     = 4.0
	leakMax         = 0.6
	minOrientGain   = 0.05
)

// Coupling is the acquisition-path effect of one probe position.
type Coupling struct {
	// Gain is the amplitude attenuation relative to the reference
	// placement, in (0, 1]. Receiver noise is position-independent, so
	// the effective SNR scales by the same factor.
	Gain float64
	// BlurAlpha is the one-pole envelope smoothing coefficient in (0, 1]:
	// out += BlurAlpha*(in-out). 1 means no smearing.
	BlurAlpha float64
	// Leak is the fraction of the running mean envelope mixed into each
	// sample (bleed-through from unrelated current loops), in [0, leakMax).
	Leak float64
}

// CouplingAt maps a probe position to its acquisition effect. It is pure
// and deterministic; CouplingAt(zero) is the identity coupling
// {Gain: 1, BlurAlpha: 1, Leak: 0}.
func CouplingAt(p ProbePosition) Coupling {
	r := p.OffsetMM() / couplingScaleMM
	r2 := r * r
	g := 1 / math.Pow(1+r2, 1.5)
	if p.OrientationDeg != 0 {
		og := math.Abs(math.Cos(p.OrientationDeg * math.Pi / 180))
		if og < minOrientGain {
			og = minOrientGain
		}
		g *= og
	}
	lr := p.OffsetMM() / leakScaleMM
	return Coupling{
		Gain:      g,
		BlurAlpha: 1 / (1 + r),
		Leak:      leakMax * lr * lr / (1 + lr*lr),
	}
}

// PositionGain returns the coupling gain at a pure lateral offset of
// offsetMM millimetres (orientation unchanged). It is the single
// displacement→gain curve shared with internal/faults, whose probe-drift
// and probe-bump injectors modulate a capture's gain along it; the full
// blur/leak/SNR effect exists only in synthesis, where the signal is
// still complex-valued.
func PositionGain(offsetMM float64) float64 {
	return CouplingAt(ProbePosition{XMM: offsetMM}).Gain
}

// spatial is the streaming state of the position stage inside a Receiver.
// It runs on the envelope after RBW smoothing and before the impairment
// chain, one sample at a time in order. Constructed only for non-zero
// positions.
type spatial struct {
	gain      float64
	blurAlpha float64
	leak      float64
	meanAlpha float64

	blur, mean float64
	warm       bool
}

// newSpatial builds the position stage, or returns nil for the reference
// placement (the existing, position-free pipeline).
func newSpatial(p ProbePosition, sampleRate float64) *spatial {
	if p.IsZero() {
		return nil
	}
	c := CouplingAt(p)
	// The bleed-through mean tracks board-level activity, which moves on
	// supply/thermal timescales (~1 ms), far slower than any stall.
	meanWin := sampleRate * 1e-3
	if meanWin < 16 {
		meanWin = 16
	}
	return &spatial{
		gain:      c.Gain,
		blurAlpha: c.BlurAlpha,
		leak:      c.Leak,
		meanAlpha: 1 / meanWin,
	}
}

// apply transforms one envelope sample through the position stage.
func (s *spatial) apply(env float64) float64 {
	if !s.warm {
		s.blur, s.mean = env, env
		s.warm = true
	} else {
		s.blur += s.blurAlpha * (env - s.blur)
		s.mean += s.meanAlpha * (env - s.mean)
	}
	return s.gain * ((1-s.leak)*s.blur + s.leak*s.mean)
}
