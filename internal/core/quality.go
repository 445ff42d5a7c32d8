package core

import (
	"fmt"
	"math"

	"emprof/internal/dsp"
	"emprof/internal/trace"
)

// This file implements the signal-quality side of the profiler: a causal
// monitor that detects acquisition impairments (corrupt samples,
// dropouts, ADC saturation, receiver gain steps, impulsive RF bursts),
// sanitises the sample stream so the normalisation windows are never
// poisoned, re-seeds the min/max state after discontinuities, and a
// shared dip detector that suppresses phantom stalls across impaired
// regions and annotates every reported stall with a confidence score.
//
// The monitor's production form is the block kernel processBlock
// (qualityblock.go); every analysis path runs it (see engine.go). It is
// strictly causal, so feeding the same raw samples in the same order
// produces the same flags, sanitised values and resync points however the
// stream is split into blocks. On a clean capture every sample passes
// through bit-identically and no flag or resync ever fires, so hardened
// profiles match the pre-hardening ones exactly.

// Quality aggregates per-capture signal-health metrics. A fully clean
// acquisition reports zero in every counter; each counter is a count of
// samples (or events for Resyncs/AbortedDips) affected by one impairment
// class. A sample can contribute to more than one counter when
// impairments overlap, so Impaired is an upper bound on distinct bad
// samples.
type Quality struct {
	// Samples is the total number of raw samples seen.
	Samples int64
	// NaNSamples counts non-finite (NaN/±Inf) samples, replaced by the
	// last good value.
	NaNSamples int64
	// DroppedSamples counts exact-zero samples — the signature of
	// digitizer dropouts/gaps (a Rician noise floor is almost surely
	// nonzero, and even noise-free power-proxy captures stay strictly
	// positive because of the core's baseline power).
	DroppedSamples int64
	// ClippedSamples counts flat-lined samples at the top of the range
	// (ADC saturation).
	ClippedSamples int64
	// BurstSamples counts impulsive spikes implausibly far above the
	// busy-level reference (RF interference).
	BurstSamples int64
	// StepSamples counts samples inside confirmed gain-step (or, with
	// ProbeShiftRatio armed, probe-shift) transition regions.
	StepSamples int64
	// Resyncs counts normalisation re-seeds: the min/max windows were
	// reset after a long gap or a receiver gain discontinuity.
	Resyncs int
	// AbortedDips counts candidate dips discarded because an impairment
	// overlapped them (each would otherwise risk becoming a phantom
	// stall).
	AbortedDips int
}

// Impaired returns the total impaired-sample tally across all classes.
func (q Quality) Impaired() int64 {
	return q.NaNSamples + q.DroppedSamples + q.ClippedSamples + q.BurstSamples + q.StepSamples
}

// UsableFraction is the fraction of samples unaffected by any detected
// impairment (1 for an empty or clean capture).
func (q Quality) UsableFraction() float64 {
	if q.Samples == 0 {
		return 1
	}
	u := 1 - float64(q.Impaired())/float64(q.Samples)
	if u < 0 {
		u = 0
	}
	return u
}

// Clean reports whether no impairment of any kind was detected.
func (q Quality) Clean() bool { return q.Impaired() == 0 && q.Resyncs == 0 }

// String summarises the quality record.
func (q Quality) String() string {
	if q.Clean() {
		return fmt.Sprintf("clean (%d samples)", q.Samples)
	}
	return fmt.Sprintf("%.2f%% usable (%d samples: %d NaN, %d dropped, %d clipped, %d burst, %d step; %d resyncs, %d aborted dips)",
		100*q.UsableFraction(), q.Samples, q.NaNSamples, q.DroppedSamples,
		q.ClippedSamples, q.BurstSamples, q.StepSamples, q.Resyncs, q.AbortedDips)
}

// qflag marks the impairment classes a sample belongs to. It aliases the
// trace package's Flag so per-sample masks flow into decision events
// without conversion.
type qflag = trace.Flag

const (
	qNaN   = trace.FlagNaN
	qGap   = trace.FlagGap
	qClip  = trace.FlagClip
	qBurst = trace.FlagBurst
	qStep  = trace.FlagStep
)

// qStructural are the impairments that invalidate dip evidence outright: a
// dip overlapping one is aborted rather than reported, and no dip may
// begin on such a sample. NaN and burst samples are reconstructed by
// holding the last good value, so a dip may continue across them (at
// reduced confidence).
const qStructural = qGap | qClip | qStep

// monitor is the causal signal-quality stage. All thresholds are derived
// from the profiler configuration and sample rate, so every analysis path
// constructs an identical monitor.
type monitor struct {
	// persist is both the busy-tracker window and the number of samples a
	// gain-step condition must persist before a resync is declared. It is
	// sized to 2.5× the refresh-stall ceiling so that even the longest
	// genuine stall (which depresses the short moving max only after
	// persist samples, and then only for its remaining duration) can
	// never masquerade as a gain step.
	persist int
	// resyncGap is the dropout length at or beyond which the
	// normalisation state is re-seeded when the gap ends.
	resyncGap int
	// clipRun is the flat-line run length that confirms saturation.
	clipRun int
	// half is the normalisation half-window; retroactive flagging is
	// clamped below it so every patch lands on a still-undecided position.
	half int

	// stepRatio is the smax/ref band edge for gain-step suspicion. It is
	// deliberately far above any workload-induced busy-level shift
	// (phase changes move the envelope by up to ~2.2× in practice):
	// gain changes below it are exactly what the moving min/max
	// normalisation absorbs by design — a down-step of less than ~2.8×
	// cannot push the busy level under the dip-entry threshold — so only
	// steps large enough to fake a stall need an explicit resync.
	stepRatio float64
	// shiftRatio, when > 0, arms the opt-in probe-shift detector (the
	// config's ProbeShiftRatio): a sustained band departure smaller than a
	// gain step but larger than this ratio re-seeds the normalisation with
	// cause probe_shift. It shares the persist discipline — and the
	// retroactive half-window flagging — with the step detector, so a
	// probe bump costs exactly one bounded resync. 0 leaves every code
	// path bit-identical to the shift-free monitor.
	shiftRatio    float64
	burstK        float64 // spike threshold as a multiple of ref
	clipMinFrac   float64 // flat-lines below this fraction of ref are ignored
	refAlpha      float64 // busy-reference EMA coefficient
	distinctAlpha float64 // EMA coefficient of the sample-distinctness arm

	smax *dsp.MovingExtremum // busy-level tracker (moving max, persist wide)
	monitorState

	// obs, when non-nil, receives a Resync event for every normalisation
	// re-seed and a QualityFlag event for every flagged sample. Nil keeps
	// the monitor on its original, emission-free path.
	obs trace.Observer
}

// monitorState is the monitor's mutable state. It is also the hand-off
// wire form (StreamState.Monitor, with the busy tracker's state beside
// it), so each field is declared once, here, with its JSON name.
type monitorState struct {
	Ref      float64 `json:"ref"` // busy-level reference
	RefReady bool    `json:"ref_ready"`
	Warm     int     `json:"warm"`

	LastGood float64 `json:"last_good"`
	ZeroRun  int     `json:"zero_run"`
	RunVal   float64 `json:"run_val"`
	RunLen   int     `json:"run_len"`
	// ClipActive is set once the current flat-line run has been flagged,
	// so the run's tail increments counters one sample at a time.
	ClipActive bool `json:"clip_active"`
	StepDir    int  `json:"step_dir"`
	StepLen    int  `json:"step_len"`
	// StepResyncPending delays a confirmed step's resync to the next
	// position: the first post-reset normalisation stat is then read by
	// the first retro-flagged decision, so a phantom dip induced by
	// straddling stats is aborted rather than flushed one position early.
	StepResyncPending bool `json:"step_resync_pending"`
	// SinceHigh counts samples since the raw input last exceeded the
	// step band. The moving max holds an excursion for a full persist
	// window after it ends; this distinguishes a live step (raw highs
	// keep re-asserting) from a dead burst tail.
	SinceHigh int `json:"since_high"`
	// ShiftDir/ShiftLen/SinceShiftHigh mirror the step-candidacy state at
	// the shift band edge; maintained only when shiftRatio > 0.
	ShiftDir       int `json:"shift_dir"`
	ShiftLen       int `json:"shift_len"`
	SinceShiftHigh int `json:"since_shift_high"`
	// PendingCause is the resync cause reported when StepResyncPending
	// fires (gain-step or probe-shift).
	PendingCause trace.ResyncCause `json:"pending_cause,omitempty"`
	// Distinct is an EMA of "this sample differs from the previous one".
	// Noise-free captures (the SESC power proxy) legitimately flat-line
	// on busy plateaus; the clip detector is armed only while the signal
	// is demonstrably noisy, where consecutive equality cannot happen by
	// chance.
	Distinct float64 `json:"distinct"`
	PrevX    float64 `json:"prev_x"`
	HavePrev bool    `json:"have_prev"`

	Quality Quality `json:"quality"`
}

// newMonitor derives the quality-monitor parameters from the profiler
// configuration and the acquisition sample rate.
func newMonitor(cfg Config, sampleRate float64) *monitor {
	win := normWindow(cfg, sampleRate)
	p := int(math.Ceil(2.5 * cfg.RefreshMinS * sampleRate))
	if p < 4 {
		p = 4
	}
	if p > 1<<14 {
		p = 1 << 14
	}
	refWin := 2 * p
	if w4 := win / 4; w4 > refWin {
		refWin = w4
	}
	return &monitor{
		persist:    p,
		resyncGap:  max(8, win/16),
		clipRun:    4,
		half:       win / 2,
		stepRatio:  2.5,
		shiftRatio: cfg.ProbeShiftRatio,
		// burstK matches stepRatio so the two detectors partition all
		// upward excursions: everything above the band is held out of the
		// sanitised stream as a burst, while the raw value still drives
		// gain-step tracking (see processBlock). A gap between the thresholds
		// would let a spike below burstK poison the moving max for a
		// whole persist window and fake a step.
		burstK:        2.5,
		clipMinFrac:   0.5,
		refAlpha:      1.0 / float64(refWin),
		distinctAlpha: 1.0 / 256,
		smax:          dsp.NewMovingMax(p),
		monitorState:  monitorState{Distinct: 1},
	}
}

// detector is the dip state machine every analysis path shares. step
// normalises one position against the normalisation stats in force and
// decides it together with the position's impairment flags; decide takes
// an already-normalised value. Stalls are emitted with confidence
// annotations into the profile.
type detector struct {
	cfg        Config
	sampleRate float64
	clockHz    float64
	minSamples float64
	half       int

	detectorState

	// keep appends every normalised value to prof.Normalized.
	keep bool

	prof *Profile
	q    *Quality
	// onStall, when non-nil, points at the callback each accepted stall
	// is handed to; it is read at emit time, so the owner may set the
	// callback after construction.
	onStall *func(Stall)
	// obs, when non-nil, receives dip_candidate, stall_accepted and
	// stall_rejected records at the corresponding decision points. All
	// emissions sit on branches the detector takes rarely, so the
	// per-sample fast path is untouched when tracing is off.
	obs trace.Observer
}

// detectorState is the dip state machine's mutable state and its
// hand-off wire form (StreamState.Detector). Depth is read only inside a
// dip and is 0 outside one.
type detectorState struct {
	InDip        bool    `json:"in_dip"`
	Start        int64   `json:"start"`
	Depth        float64 `json:"depth"`
	EntryLo      float64 `json:"entry_lo"`
	EntryHi      float64 `json:"entry_hi"`
	LastImpaired int64   `json:"last_impaired"`
}

// newDetector builds the shared dip detector; half is the normalisation
// half-window in samples (used only for confidence distance scaling).
func newDetector(cfg Config, sampleRate, clockHz float64, half int, prof *Profile, q *Quality, onStall *func(Stall)) *detector {
	return &detector{
		cfg:           cfg,
		sampleRate:    sampleRate,
		clockHz:       clockHz,
		minSamples:    cfg.MinStallS * sampleRate,
		half:          half,
		detectorState: detectorState{LastImpaired: math.MinInt64 / 2},
		prof:          prof,
		q:             q,
		onStall:       onStall,
	}
}

// normWindow is the moving min/max window in samples: NormWindowS at the
// sample rate, at least 8. Every capture length uses the same window;
// positions of a capture shorter than it are all decided against the
// final stats, exactly as the stream drains them.
func normWindow(cfg Config, sampleRate float64) int {
	return max(8, int(cfg.NormWindowS*sampleRate))
}

// normValue maps the smoothed value x of a position into [0, 1] against
// the trailing (lo, hi) stats read half a window ahead (Section IV:
// "EMPROF compensates for these effects by tracking a moving minimum and
// maximum of the signal's magnitude"). A window whose range is below
// minFrac of its maximum carries no dip information and normalises to 1.
// NaN in x, lo or hi yields 1 or NaN, never a value in [0, 1).
func normValue(x, lo, hi, minFrac float64) float64 {
	r := hi - lo
	if hi <= 0 || r < minFrac*hi {
		return 1
	}
	v := (x - lo) / r
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// step is the general normalise+decide step: it normalises the smoothed
// value x of position i against (lo, hi) and runs the dip detector on it.
// It is the only code that enters, aborts or flushes a dip, or emits an
// observer event.
func (d *detector) step(i int64, x float64, fl qflag, lo, hi float64) {
	v := normValue(x, lo, hi, d.cfg.MinRangeFrac)
	if d.keep {
		d.prof.Normalized = append(d.prof.Normalized, v)
	}
	d.decide(i, v, fl, lo, hi)
}

// run is the decide stage kernel: it decides positions i0, i0+1, … whose
// smoothed values, impairment flags and normalisation stats are xs, fl,
// lo and hi (fl, lo and hi at least len(xs) long). It alternates the fast
// run with step, which takes each position the fast run declines, so it
// decides exactly as a step per position does, however a stream of
// positions is split into spans.
func (d *detector) run(i0 int64, xs []float64, fl []qflag, lo, hi []float64) {
	fl, lo, hi = fl[:len(xs)], lo[:len(xs)], hi[:len(xs)]
	for j := 0; j < len(xs); {
		j += d.fastRun(xs[j:], fl[j:], lo[j:], hi[j:])
		// step takes the declined position and the flagged run after it,
		// which the fast run would decline one by one.
		for j < len(xs) {
			d.step(i0+int64(j), xs[j], fl[j], lo[j], hi[j])
			if j++; j == len(xs) || fl[j] == 0 {
				break
			}
		}
	}
}

// fastRun decides positions from the front of xs while each is uneventful
// and returns how many it decided. Outside a dip a position is uneventful
// when it is unflagged and !(v < EnterThreshold); inside one, when it is
// unflagged and !(v > ExitThreshold), and it only lowers depth. The
// negated comparisons keep a NaN v in the loop, as decide does: NaN
// neither enters nor exits a dip, nor moves depth. Such a position
// changes nothing but depth and emits nothing, so the loops carry depth
// in a register and leave every other decision to step.
func (d *detector) fastRun(xs []float64, fl []qflag, lo, hi []float64) int {
	fl, lo, hi = fl[:len(xs)], lo[:len(xs)], hi[:len(xs)]
	minFrac := d.cfg.MinRangeFrac
	keep := d.keep
	norm := d.prof.Normalized
	j := 0
	if !d.InDip {
		enter := d.cfg.EnterThreshold
		for ; j < len(xs); j++ {
			if fl[j] != 0 {
				break
			}
			v := normValue(xs[j], lo[j], hi[j], minFrac)
			if v < enter {
				break
			}
			if keep {
				norm = append(norm, v)
			}
		}
	} else {
		exit, depth := d.cfg.ExitThreshold, d.Depth
		for ; j < len(xs); j++ {
			if fl[j] != 0 {
				break
			}
			v := normValue(xs[j], lo[j], hi[j], minFrac)
			if v > exit {
				break
			}
			if v < depth {
				depth = v
			}
			if keep {
				norm = append(norm, v)
			}
		}
		d.Depth = depth
	}
	if keep {
		d.prof.Normalized = norm
	}
	return j
}

// decide processes the normalised value v of position i with impairment
// flags fl and the (lo, hi) normalisation stats used for it.
func (d *detector) decide(i int64, v float64, fl qflag, lo, hi float64) {
	if fl != 0 {
		d.LastImpaired = i
		if fl&qStructural != 0 {
			// The sample carries no dip evidence: suppress entry, and
			// abort rather than report a dip that spans the impairment.
			if d.InDip {
				if d.obs != nil {
					d.obs.Observe(trace.Record{
						Type:  trace.TypeStallRejected,
						Start: d.Start, End: i,
						DurationS: float64(i-d.Start) / d.sampleRate,
						Depth:     d.Depth,
						Reason:    trace.RejectImpaired,
					})
				}
				d.InDip, d.Depth = false, 0
				d.q.AbortedDips++
			}
			return
		}
	}
	if !d.InDip {
		if v < d.cfg.EnterThreshold {
			d.InDip = true
			d.Start = i
			d.Depth = v
			d.EntryLo, d.EntryHi = lo, hi
			if d.obs != nil {
				d.obs.Observe(trace.Record{Type: trace.TypeDipCandidate, Pos: i, Value: v, Lo: lo, Hi: hi})
			}
		}
		return
	}
	if v < d.Depth {
		d.Depth = v
	}
	if v > d.cfg.ExitThreshold {
		d.flush(i)
		d.InDip, d.Depth = false, 0
	}
}

// finish closes any dip still open at end-of-signal position end.
func (d *detector) finish(end int64) {
	if d.InDip {
		d.flush(end)
		d.InDip, d.Depth = false, 0
	}
}

// flush closes the current dip ending (exclusive) at position end and
// reports it if it passes the duration and depth criteria.
func (d *detector) flush(end int64) {
	durSamples := end - d.Start
	durS := float64(durSamples) / d.sampleRate
	if float64(durSamples) < d.minSamples {
		if d.obs != nil {
			d.obs.Observe(trace.Record{
				Type: trace.TypeStallRejected, Start: d.Start, End: end,
				DurationS: durS, Depth: d.Depth, Reason: trace.RejectTooShort,
			})
		}
		return
	}
	maxDepth := d.cfg.MaxDipDepth
	if durS >= d.cfg.LongStallS {
		maxDepth = d.cfg.MaxDipDepthLong
	}
	if d.Depth > maxDepth {
		if d.obs != nil {
			d.obs.Observe(trace.Record{
				Type: trace.TypeStallRejected, Start: d.Start, End: end,
				DurationS: durS, Depth: d.Depth, Reason: trace.RejectTooShallow,
			})
		}
		return
	}
	st := Stall{
		StartSample: int(d.Start),
		EndSample:   int(end),
		StartS:      float64(d.Start) / d.sampleRate,
		DurationS:   durS,
		Cycles:      durS * d.clockHz,
		Depth:       d.Depth,
		Refresh:     durS >= d.cfg.RefreshMinS,
		Confidence:  d.confidence(maxDepth),
	}
	d.prof.Stalls = append(d.prof.Stalls, st)
	if st.Refresh {
		d.prof.RefreshStalls++
	} else {
		d.prof.Misses++
	}
	d.prof.StallCycles += st.Cycles
	if d.obs != nil {
		d.obs.Observe(trace.Record{
			Type: trace.TypeStallAccepted, Start: d.Start, End: end, StartS: st.StartS,
			DurationS: st.DurationS, Cycles: st.Cycles, Depth: st.Depth,
			Confidence: st.Confidence, Refresh: st.Refresh,
		})
	}
	if d.onStall != nil && *d.onStall != nil {
		(*d.onStall)(st)
	}
}

// confidence scores the dip being flushed in [0, 1] from three margins:
// how far below the depth threshold its floor reached, how much
// normalisation contrast (a local-SNR proxy) the surrounding window had,
// and how far the dip sits from the nearest detected impairment.
func (d *detector) confidence(maxDepth float64) float64 {
	depthTerm := clamp01((maxDepth - d.Depth) / maxDepth)
	contrast := 0.0
	if d.EntryHi > 0 {
		rangeFrac := (d.EntryHi - d.EntryLo) / d.EntryHi
		contrast = clamp01((rangeFrac - d.cfg.MinRangeFrac) / (1 - d.cfg.MinRangeFrac))
	}
	cleanTerm := 1.0
	if d.half > 0 {
		dist := d.Start - d.LastImpaired
		if dist < 0 {
			dist = 0
		}
		cleanTerm = clamp01(float64(dist) / float64(d.half))
	}
	return 0.45*depthTerm + 0.30*contrast + 0.25*cleanTerm
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
