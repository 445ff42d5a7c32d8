package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/sim"
	"emprof/internal/trace"
)

// This file is the test oracle: the whole-array form of the paper's
// Section IV pipeline, written for reading rather than speed. A per-sample
// quality monitor scans the capture, one pass smooths and normalises the
// whole array against moving min/max windows read half a window ahead,
// and one loop runs the dip detector over the result. Every production
// composition of the engine — batch, streaming at any split, the
// two-stage pipeline, and rolling windows merged back — must reproduce it
// bit for bit.

// ---- The per-sample monitor ----
//
// The production monitor is the block kernel processBlock; these methods
// are its readable per-sample reference. Its busy tracker is the
// reference deque below, not the production extremum kernel, so the
// oracle stays independent of the code it checks.

// oracleMonitor is the monitor's state driven by the per-sample methods;
// smax shadows the embedded monitor's extremum kernel, which stays nil.
type oracleMonitor struct {
	*monitor
	smax *refDeque
}

func newOracleMonitor(cfg Config, sampleRate float64) *oracleMonitor {
	m := newMonitor(cfg, sampleRate)
	m.smax = nil
	return &oracleMonitor{monitor: m, smax: &refDeque{w: m.persist}}
}

// refDeque is the textbook monotonic deque: the sliding extremum the
// oracle's min/max windows and busy tracker run on. It holds the live
// candidates, oldest first, each strictly beyond every later sample of
// the window; its State is the hand-off wire shape. (internal/dsp's
// kernel tests keep their own copy.)
type refDeque struct {
	w     int
	isMin bool
	idx   []int64
	val   []float64
	count int64
}

func (d *refDeque) beyond(a, b float64) bool {
	if d.isMin {
		return a < b
	}
	return a > b
}

func (d *refDeque) Process(x float64) float64 {
	for n := len(d.val); n > 0 && !d.beyond(d.val[n-1], x); n-- {
		d.idx, d.val = d.idx[:n-1], d.val[:n-1]
	}
	d.idx, d.val = append(d.idx, d.count), append(d.val, x)
	if d.idx[0] <= d.count-int64(d.w) {
		d.idx, d.val = d.idx[1:], d.val[1:]
	}
	d.count++
	return d.val[0]
}

func (d *refDeque) Reset() { d.idx, d.val, d.count = nil, nil, 0 }

func (d *refDeque) State() dsp.MovingExtremumState {
	return dsp.MovingExtremumState{
		W:     d.w,
		Idx:   append(append([]int64(nil), d.idx...), 0),
		Val:   append(append([]float64(nil), d.val...), 0),
		Tail:  len(d.idx),
		Count: d.count,
	}
}

// process consumes one raw sample and returns the sanitised value, the
// impairment flags for this sample, how many immediately preceding samples
// must retroactively receive the same flags (always < half, so pending
// stream positions can still absorb them), and whether the normalisation
// state must be re-seeded before this position is folded in.
//
// It wraps processInner with the trace emission points so that the
// nil-observer path pays exactly one predictable branch per sample.
func (m *oracleMonitor) process(x float64) (y float64, fl qflag, retro int, resync bool) {
	y, fl, retro, resync = m.processInner(x)
	if m.obs != nil {
		pos := m.q.Samples - 1
		if resync {
			m.obs.Resync(trace.Resync{Pos: pos, Cause: m.resyncCause})
		}
		if fl != 0 {
			m.obs.QualityFlag(trace.QualityFlag{Pos: pos, Flags: fl, Retro: retro})
		}
	}
	return y, fl, retro, resync
}

func (m *oracleMonitor) processInner(x float64) (y float64, fl qflag, retro int, resync bool) {
	m.q.Samples++
	if m.stepResyncPending {
		resync = true
		m.stepResyncPending = false
		m.resyncCause = m.pendingCause
	}

	// Non-finite corruption: hold the last good value so a single NaN can
	// no longer poison a full min/max window.
	if math.IsNaN(x) || math.IsInf(x, 0) {
		m.q.NaNSamples++
		m.runLen, m.zeroRun = 0, 0
		m.clipActive = false
		y = m.lastGood
		m.track(y)
		return y, qNaN, 0, resync
	}

	// Exact-zero samples: dropped by the digitizer (gaps are zero-filled).
	if x == 0 {
		m.zeroRun++
		m.q.DroppedSamples++
		m.runLen = 0
		m.clipActive = false
		y = m.lastGood
		m.track(y)
		return y, qGap, 0, resync
	}
	if m.zeroRun >= m.resyncGap {
		// A long gap just ended: the coupling or gain may have moved while
		// we were blind, so re-seed the normalisation windows here.
		resync = true
		m.resyncCause = trace.ResyncGap
		m.q.Resyncs++
	}
	m.zeroRun = 0

	// Distinctness arm for the flat-line detector.
	if m.havePrev {
		d := 0.0
		if x != m.prevX {
			d = 1
		}
		m.distinct += m.distinctAlpha * (d - m.distinct)
	}
	m.prevX, m.havePrev = x, true

	// Flat-line run at the top of the range: ADC saturation. Runs near the
	// signal floor are left alone — a noise-free stall legitimately sits
	// at a constant level.
	if x == m.runVal {
		m.runLen++
	} else {
		m.runVal, m.runLen = x, 1
		m.clipActive = false
	}
	if m.refReady && m.distinct > 0.9 && m.runLen >= m.clipRun && x >= m.clipMinFrac*m.ref {
		fl |= qClip
		if !m.clipActive {
			retro = m.runLen - 1
			if retro > m.half-1 {
				retro = m.half - 1
			}
			m.q.ClippedSamples += int64(retro) + 1
			m.clipActive = true
		} else {
			m.q.ClippedSamples++
		}
	}

	// An excursion implausibly far above the busy level: an impulsive RF
	// burst, or the onset of an upward gain step. The sample is held so
	// neither the normalisation windows nor the sanitised stream are
	// poisoned, but the RAW value still drives the busy tracker: a
	// transient excursion can never confirm a step (track's raw-high
	// recency gate), while a sustained one re-references within a persist
	// window and then passes normally against the new reference.
	if m.refReady && x > m.burstK*m.ref && fl == 0 {
		m.q.BurstSamples++
		y = m.lastGood
		fl = qBurst
		if stepped, stepRetro := m.track(x); stepped {
			m.stepResyncPending = true
			fl |= qStep
			retro = stepRetro
		}
		return y, fl, retro, resync
	}

	y = x
	m.lastGood = y
	if stepped, stepRetro := m.track(y); stepped {
		// The resync itself is deferred to the next position (see
		// stepResyncPending); this position and the trailing half-window
		// carry the step flag now.
		m.stepResyncPending = true
		fl |= qStep
		retro = stepRetro
	}
	return y, fl, retro, resync
}

// track feeds the busy-level tracker with a sanitised sample and runs
// gain-step detection: a sustained departure of the short moving max from
// the busy reference in either direction is a receiver gain discontinuity
// (dips never move the max; the reference EMA absorbs slow drift).
func (m *oracleMonitor) track(y float64) (resync bool, retro int) {
	sm := m.smax.Process(y)
	if !m.refReady {
		m.warm++
		if m.warm >= m.persist {
			m.ref = sm
			m.refReady = true
		}
		return false, 0
	}
	if m.ref <= 0 {
		m.ref = sm
		return false, 0
	}
	if y > m.stepRatio*m.ref {
		m.sinceHigh = 0
	} else if m.sinceHigh < 1<<30 {
		m.sinceHigh++
	}
	ratio := sm / m.ref
	dir := 0
	if ratio > m.stepRatio {
		dir = 1
	} else if ratio < 1/m.stepRatio {
		dir = -1
	}
	sdir := 0
	if m.shiftRatio > 0 {
		if y > m.shiftRatio*m.ref {
			m.sinceShiftHigh = 0
		} else if m.sinceShiftHigh < 1<<30 {
			m.sinceShiftHigh++
		}
		if ratio > m.shiftRatio {
			sdir = 1
		} else if ratio < 1/m.shiftRatio {
			sdir = -1
		}
	}
	// An up-candidacy whose raw highs stopped more than half a persist
	// window ago is a dead excursion the moving max is still holding (a
	// burst tail), not a gain step: drop it and leave the reference
	// untouched. A genuine step re-asserts raw highs at least once per
	// stall, and stalls are bounded by 0.4 persist (RefreshMinS).
	if dir == 1 && m.sinceHigh > m.persist/2 {
		m.stepDir, m.stepLen = 0, 0
		if m.shiftRatio > 0 {
			return m.trackShift(sdir, sm)
		}
		return false, 0
	}
	switch {
	case dir == 0:
		m.stepDir, m.stepLen = 0, 0
		// A live shift candidacy freezes the reference: with refWin ≥
		// 2×persist the EMA would otherwise absorb a moderate shift
		// before it can persist long enough to confirm.
		if sdir == 0 {
			m.ref += m.refAlpha * (sm - m.ref)
		}
	case dir == m.stepDir:
		m.stepLen++
	default:
		m.stepDir, m.stepLen = dir, 1
	}
	if m.stepLen >= m.persist {
		m.q.Resyncs++
		// Flag the whole trailing half-window, not just the transition:
		// every position decided against stats that straddle the
		// discontinuity is unreliable. An up-step in particular inflates
		// the moving max seen by the preceding half-window, which would
		// otherwise read as a deep phantom dip ending at the resync.
		retro = m.half - 1
		if retro < 0 {
			retro = 0
		}
		m.q.StepSamples += int64(retro) + 1
		m.ref = sm
		m.stepDir, m.stepLen = 0, 0
		m.shiftDir, m.shiftLen = 0, 0
		m.pendingCause = trace.ResyncGainStep
		return true, retro
	}
	if m.shiftRatio > 0 {
		return m.trackShift(sdir, sm)
	}
	return false, 0
}

// trackShift advances the probe-shift candidacy (the shift-band twin of
// the step detector, active only when shiftRatio > 0). A shift departs
// the band less violently than a step, so the step detector keeps
// priority: track calls this only when no step confirmed this sample.
func (m *oracleMonitor) trackShift(sdir int, sm float64) (resync bool, retro int) {
	// Same dead-excursion gate as the step detector, at the shift band
	// edge: an up-shift whose raw highs stopped re-asserting is a held
	// burst tail, not the probe moving back toward the sweet spot.
	if sdir == 1 && m.sinceShiftHigh > m.persist/2 {
		m.shiftDir, m.shiftLen = 0, 0
		return false, 0
	}
	switch {
	case sdir == 0:
		m.shiftDir, m.shiftLen = 0, 0
	case sdir == m.shiftDir:
		m.shiftLen++
	default:
		m.shiftDir, m.shiftLen = sdir, 1
	}
	if m.shiftLen >= m.persist {
		m.q.Resyncs++
		// Same retroactive half-window discipline as a confirmed step:
		// every decision straddling the shift is unreliable, and the
		// flags bound the phantom stalls a bump can cause.
		retro = m.half - 1
		if retro < 0 {
			retro = 0
		}
		m.q.StepSamples += int64(retro) + 1
		m.ref = sm
		m.shiftDir, m.shiftLen = 0, 0
		m.stepDir, m.stepLen = 0, 0
		m.pendingCause = trace.ResyncProbeShift
		return true, retro
	}
	return false, 0
}

// scan runs the monitor over a whole capture (the batch path): it returns
// the sanitised copy of the samples, the per-sample impairment mask (nil
// when the capture is clean), and the positions at which the normalisation
// state must be re-seeded.
func (m *oracleMonitor) scan(samples []float64) (san []float64, mask []qflag, resyncs []int) {
	san = make([]float64, len(samples))
	for i, x := range samples {
		y, fl, retro, rs := m.process(x)
		san[i] = y
		if fl != 0 {
			if mask == nil {
				mask = make([]qflag, len(samples))
			}
			mask[i] |= fl
			for k := 1; k <= retro && i-k >= 0; k++ {
				mask[i-k] |= fl
			}
		}
		if rs {
			resyncs = append(resyncs, i)
		}
	}
	return san, mask, resyncs
}

// oracleNormalize smooths the sanitised samples (compensating the moving
// average's group delay, with the final lead positions left
// uncompensated) and maps them into [0, 1] against trailing moving
// min/max windows reset at each resync and read half a window ahead —
// or at the last position, for positions within half a window of the
// end. The window is the same at every capture length. It returns the
// smoothed series, the normalised series, the trailing stats and the
// half-window.
func oracleNormalize(cfg Config, sampleRate float64, x []float64, resyncs []int) (sm, norm, mins, maxs []float64, half int) {
	n := len(x)
	w := int(cfg.NormWindowS * sampleRate)
	if w < 8 {
		w = 8
	}
	if cfg.SmoothSamples > 1 {
		ma := dsp.NewMovingAverage(cfg.SmoothSamples)
		trailing := make([]float64, n)
		for i, v := range x {
			trailing[i] = ma.Process(v)
		}
		lead := (cfg.SmoothSamples - 1) / 2
		sm = make([]float64, n)
		for i := range sm {
			if i+lead < n {
				sm[i] = trailing[i+lead]
			} else {
				sm[i] = trailing[i]
			}
		}
		x = sm
	} else {
		sm = x
	}

	mins = make([]float64, n)
	maxs = make([]float64, n)
	mmin := &refDeque{w: w, isMin: true}
	mmax := &refDeque{w: w}
	ri := 0
	for i := 0; i < n; i++ {
		if ri < len(resyncs) && resyncs[ri] == i {
			mmin.Reset()
			mmax.Reset()
			ri++
		}
		mins[i] = mmin.Process(x[i])
		maxs[i] = mmax.Process(x[i])
	}

	norm = make([]float64, n)
	half = w / 2
	for i := 0; i < n; i++ {
		j := min(i+half, n-1)
		lo, hi := mins[j], maxs[j]
		r := hi - lo
		if hi <= 0 || r < cfg.MinRangeFrac*hi {
			// Nearly-constant signal: no dip information here.
			norm[i] = 1
			continue
		}
		v := (x[i] - lo) / r
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		norm[i] = v
	}
	return sm, norm, mins, maxs, half
}

// oracleProfile is the reference profile of a capture: monitor scan,
// whole-array normalisation, and the detector loop. keep retains the
// normalised series, as KeepNormalized does.
func oracleProfile(cfg Config, c *em.Capture, keep bool) *Profile {
	n := len(c.Samples)
	p := &Profile{
		ExecCycles: float64(n) * c.CyclesPerSample(),
		SampleRate: c.SampleRate,
		ClockHz:    c.ClockHz,
	}
	if n == 0 {
		return p
	}
	mon := newOracleMonitor(cfg, c.SampleRate)
	san, mask, resyncs := mon.scan(c.Samples)
	_, norm, mins, maxs, half := oracleNormalize(cfg, c.SampleRate, san, resyncs)
	if keep {
		p.Normalized = norm
	}
	d := newDetector(cfg, c.SampleRate, c.ClockHz, half, p, &mon.q, nil)
	for i, v := range norm {
		var fl qflag
		if mask != nil {
			fl = mask[i]
		}
		j := min(i+half, n-1)
		d.decide(int64(i), v, fl, mins[j], maxs[j])
	}
	d.finish(int64(n))
	p.Quality = mon.q
	return p
}

// ProfileStream runs a capture through a StreamAnalyzer one sample per
// PushBlock.
func ProfileStream(c *em.Capture, cfg Config) (*Profile, error) {
	s, err := NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, err
	}
	for i := range c.Samples {
		s.PushBlock(c.Samples[i : i+1])
	}
	return s.Finalize(), nil
}

// ---- Checks against the oracle ----

// oracleConfigs are the configurations every composition is checked
// under: smoothing off, odd and even widths (an even width has a zero
// group delay but still smooths), probe-shift armed (an extra resync
// source), and a tiny normalisation window (half-window of 4, so
// retroactive flag patches and pending drains hit their boundaries
// constantly).
func oracleConfigs() map[string]Config {
	configs := blockConfigs()
	even := DefaultConfig()
	even.SmoothSamples = 2
	configs["even-smooth"] = even
	return configs
}

// oracleCapture is one input the compositions are checked on.
type oracleCapture struct {
	name string
	c    *em.Capture
}

// oracleCaptures returns clean, impaired, probe-shift, shorter-than-a-
// window and final-half-window captures for a configuration.
func oracleCaptures(cfg Config) []oracleCapture {
	const rate = 40e6
	w := normWindow(cfg, rate)
	half := w / 2
	clean := synthCapture(30000, map[int]int{3000: 12, 11000: 40, 19000: 9, 26000: 110}, 0.1, 1, 0.02, 3)
	impaired := &em.Capture{Samples: blockSeries(30000, 21), SampleRate: rate, ClockHz: 1e9}
	short := synthCapture(max(w/2, 40), map[int]int{max(w/4, 20): 12}, 0.1, 1, 0.02, 5)
	caps := []oracleCapture{
		{"clean", clean},
		{"impaired", impaired},
		{"probe-shift", shiftCapture(23)},
		{"short", short},
	}
	if half < 64 {
		return caps // no room for dips in the final half window
	}
	// A dip in the final half window, decided against the final stats,
	// and a deeper dip that sets those stats' floor: inside the last
	// window, before the final half window.
	chunk := max(3*w, 4096)
	n := 2*chunk + half/2
	deep := 2*chunk - w + 3*half/4
	last := synthCapture(n, map[int]int{deep: 12, 2*chunk + 4: 12}, 0.1, 1, 0.02, 9)
	for i := deep; i < deep+12; i++ {
		last.Samples[i] = 0.01
	}
	return append(caps, oracleCapture{"final-half-window", last})
}

// TestMonitorBlockKernelMatchesOracle pins the monitor kernel to the
// per-sample monitor: over any split of the stream, processBlock
// produces the same sanitised samples, flags (retroactive patches
// included), resync positions, and final monitor state.
func TestMonitorBlockKernelMatchesOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		for _, oc := range oracleCaptures(cfg) {
			xs := oc.c.Samples
			ref := newOracleMonitor(cfg, oc.c.SampleRate)
			wantSan, wantMask, wantResyncs := ref.scan(xs)
			rng := sim.NewRNG(7)
			for _, maxBlock := range []int{1, 3, 257, pushBlockN, len(xs)} {
				m := newMonitor(cfg, oc.c.SampleRate)
				san, flags, resyncs := monitorBlocks(m, xs, func() int { return 1 + int(rng.Uint64()%uint64(maxBlock)) })
				ctx := fmt.Sprintf("%s/%s blocks<=%d", name, oc.name, maxBlock)
				if d := monitorDiff(san, flags, resyncs, wantSan, wantMask, wantResyncs); d != "" {
					t.Fatalf("%s: %s", ctx, d)
				}
				if d := monitorStateDiff(m, ref); d != "" {
					t.Fatalf("%s: %s", ctx, d)
				}
			}
		}
	}
}

// monitorBlocks runs the block kernel over xs, split into blocks whose
// lengths next draws, and returns the sanitised samples, the flags with
// every retroactive patch applied and the resync positions.
func monitorBlocks(m *monitor, xs []float64, next func() int) (san []float64, flags []qflag, resyncs []int) {
	san = make([]float64, len(xs))
	flags = make([]qflag, len(xs))
	for b0 := 0; b0 < len(xs); {
		b1 := min(b0+next(), len(xs))
		m.processBlock(xs[b0:b1], san[b0:b1], flags[b0:b1],
			func(back int, f qflag) bool {
				if b0-back < 0 {
					return false
				}
				flags[b0-back] |= f
				return true
			},
			func(i int) { resyncs = append(resyncs, b0+i) })
		b0 = b1
	}
	return san, flags, resyncs
}

// monitorDiff describes the first difference between the block kernel's
// outputs and the oracle's (a nil oracle mask is all clear), or returns
// "" when they agree bit for bit.
func monitorDiff(san []float64, flags []qflag, resyncs []int, wantSan []float64, wantMask []qflag, wantResyncs []int) string {
	for i := range san {
		if math.Float64bits(san[i]) != math.Float64bits(wantSan[i]) {
			return fmt.Sprintf("sanitised sample %d is %v, want %v", i, san[i], wantSan[i])
		}
		var want qflag
		if wantMask != nil {
			want = wantMask[i]
		}
		if flags[i] != want {
			return fmt.Sprintf("sample %d flags %v, want %v", i, flags[i], want)
		}
	}
	if !reflect.DeepEqual(resyncs, wantResyncs) {
		return fmt.Sprintf("resyncs %v, want %v", resyncs, wantResyncs)
	}
	return ""
}

// monitorStateDiff describes how the block kernel's monitor state — the
// quality record, every state field and the busy tracker's State —
// differs from the oracle's, or returns "" when it does not. Observers
// are not state and are left out.
func monitorStateDiff(m *monitor, ref *oracleMonitor) string {
	got, want := *m, *ref.monitor
	got.smax, got.obs, want.obs = nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("monitor state differs\n got %+v\nwant %+v", got, want)
	}
	if gs, ws := m.smax.State(), ref.smax.State(); !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("busy tracker state differs\n got %+v\nwant %+v", gs, ws)
	}
	return ""
}

// TestCompositionsMatchOracle is the single equivalence gate: batch,
// streaming at several split patterns (one sample per push included),
// the two-stage pipeline, and rolling windows
// merged back must each reproduce the oracle's profile exactly —
// stalls, confidences and the quality record — on every capture kind.
func TestCompositionsMatchOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		a := MustNewAnalyzer(cfg)
		a.KeepNormalized = true
		for _, oc := range oracleCaptures(cfg) {
			c := oc.c
			ctx := name + "/" + oc.name
			want := oracleProfile(cfg, c, true)
			if oc.name != "short" && len(want.Stalls) == 0 {
				t.Fatalf("%s: oracle found no stalls; the check is vacuous", ctx)
			}

			if got := a.Profile(c); !reflect.DeepEqual(got, want) {
				assertProfilesIdentical(t, want, got, ctx+" batch")
				t.Fatalf("%s batch: profile differs from the oracle", ctx)
			}
			if got := a.Normalize(c); !reflect.DeepEqual(got, want.Normalized) {
				t.Fatalf("%s: Normalize differs from the oracle", ctx)
			}

			plain := *want
			plain.Normalized = nil
			for _, maxBlock := range []int{2, 1000, pushBlockN + 1, len(c.Samples) + 1} {
				if got := splitPushProfile(t, cfg, c, maxBlock); !reflect.DeepEqual(got, &plain) {
					assertProfilesIdentical(t, &plain, got, ctx+" stream")
					t.Fatalf("%s stream blocks<=%d: profile differs from the oracle", ctx, maxBlock)
				}
			}
			if got, err := ProfileStream(c, cfg); err != nil || !reflect.DeepEqual(got, &plain) {
				t.Fatalf("%s per-sample: profile differs from the oracle", ctx)
			}

			if got := a.ProfileParallel(c); !reflect.DeepEqual(got, want) {
				assertProfilesIdentical(t, want, got, ctx+" parallel")
				t.Fatalf("%s parallel: profile differs from the oracle", ctx)
			}

			merged := windowsMerged(t, cfg, c, 1.3e-4)
			assertProfilesIdentical(t, &plain, merged, ctx+" windows")
		}
	}
}

// splitPushProfile streams the capture in blocks of 1..maxBlock samples
// (drawn at random) and finalizes.
func splitPushProfile(t *testing.T, cfg Config, c *em.Capture, maxBlock int) *Profile {
	t.Helper()
	s, err := NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(uint64(maxBlock))
	for rest := c.Samples; len(rest) > 0; {
		k := min(1+int(rng.Uint64()%uint64(maxBlock)), len(rest))
		s.PushBlock(rest[:k])
		rest = rest[k:]
	}
	return s.Finalize()
}

// windowsMerged streams the capture through a windower of the given
// width and merges the sealed windows back into one profile.
func windowsMerged(t *testing.T, cfg Config, c *em.Capture, widthS float64) *Profile {
	t.Helper()
	an, err := NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindower(widthS, 0, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	var wins []ProfileWindow
	w.OnWindow = func(pw *ProfileWindow) {
		pw.Quality = an.Quality()
		wins = append(wins, *pw)
	}
	an.OnStall = w.Observe
	for rest := c.Samples; len(rest) > 0; {
		k := min(3001, len(rest))
		an.PushBlock(rest[:k])
		rest = rest[k:]
		w.Advance(an.Frontier())
	}
	an.Finalize()
	w.Flush(an.Pushed())
	p, err := MergeWindows(wins, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShortCaptureWindowRule pins the one window rule below NormWindowS:
// a capture shorter than the normalisation window keeps the full window,
// so every position is decided against the final stats, on every path.
func TestShortCaptureWindowRule(t *testing.T) {
	cfg := DefaultConfig()
	c := synthCapture(3000, map[int]int{1000: 12, 2000: 12}, 0.1, 1, 0.02, 5)
	if w := normWindow(cfg, c.SampleRate); len(c.Samples) >= w {
		t.Fatalf("capture of %d samples is not shorter than the %d-sample window", len(c.Samples), w)
	}
	a := MustNewAnalyzer(cfg)
	a.KeepNormalized = true
	p := a.Profile(c)
	if p.Misses != 2 {
		t.Fatalf("misses = %d, want 2", p.Misses)
	}
	// One set of stats for every position: the min/max over the whole
	// capture, so the decision stats of both stalls coincide.
	mon := newOracleMonitor(cfg, c.SampleRate)
	san, _, _ := mon.scan(c.Samples)
	sm, _, mins, maxs, _ := oracleNormalize(cfg, c.SampleRate, san, nil)
	lo, hi := mins[len(mins)-1], maxs[len(maxs)-1]
	for i, v := range p.Normalized {
		want := math.Min(math.Max((sm[i]-lo)/(hi-lo), 0), 1)
		if v != want {
			t.Fatalf("normalized[%d] = %v, want %v against the final stats", i, v, want)
		}
	}
	stream, err := ProfileStream(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel := a.ProfileParallel(c)
	for _, got := range []*Profile{stream, parallel} {
		assertProfilesIdentical(t, p, got, "short capture")
	}
}
