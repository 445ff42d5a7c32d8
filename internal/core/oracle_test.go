package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/faults"
	"emprof/internal/sim"
	"emprof/internal/trace"
)

// This file is the test oracle: the whole-array form of the paper's
// Section IV pipeline, written for reading rather than speed. A per-sample
// quality monitor scans the capture, one pass smooths and normalises the
// whole array against moving min/max windows read half a window ahead,
// and one loop runs the dip detector over the result. Every production
// composition of the engine — batch, streaming at any split, and rolling
// windows merged back — must reproduce it bit for bit.

// ---- The per-sample monitor ----
//
// The production monitor is the block kernel processBlock; these methods
// are its readable per-sample reference. Its busy tracker is the
// reference deque below, not the production extremum kernel, so the
// oracle stays independent of the code it checks.

// oracleMonitor is the monitor's state driven by the per-sample methods;
// smax shadows the embedded monitor's extremum kernel, which stays nil,
// and resyncCause remembers what armed the resync being reported.
type oracleMonitor struct {
	*monitor
	smax        *refDeque
	resyncCause trace.ResyncCause
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
		pos := m.Quality.Samples - 1
		if resync {
			m.obs.Observe(trace.Record{Type: trace.TypeResync, Pos: pos, Cause: m.resyncCause})
		}
		if fl != 0 {
			m.obs.Observe(trace.Record{Type: trace.TypeQualityFlag, Pos: pos, Flags: fl, Retro: retro})
		}
	}
	return y, fl, retro, resync
}

func (m *oracleMonitor) processInner(x float64) (y float64, fl qflag, retro int, resync bool) {
	m.Quality.Samples++
	if m.StepResyncPending {
		resync = true
		m.StepResyncPending = false
		m.resyncCause = m.PendingCause
	}

	// Non-finite corruption: hold the last good value so a single NaN can
	// no longer poison a full min/max window.
	if math.IsNaN(x) || math.IsInf(x, 0) {
		m.Quality.NaNSamples++
		m.RunLen, m.ZeroRun = 0, 0
		m.ClipActive = false
		y = m.LastGood
		m.track(y)
		return y, qNaN, 0, resync
	}

	// Exact-zero samples: dropped by the digitizer (gaps are zero-filled).
	if x == 0 {
		m.ZeroRun++
		m.Quality.DroppedSamples++
		m.RunLen = 0
		m.ClipActive = false
		y = m.LastGood
		m.track(y)
		return y, qGap, 0, resync
	}
	if m.ZeroRun >= m.resyncGap {
		// A long gap just ended: the coupling or gain may have moved while
		// we were blind, so re-seed the normalisation windows here.
		resync = true
		m.resyncCause = trace.ResyncGap
		m.Quality.Resyncs++
	}
	m.ZeroRun = 0

	// Distinctness arm for the flat-line detector.
	if m.HavePrev {
		d := 0.0
		if x != m.PrevX {
			d = 1
		}
		m.Distinct += m.distinctAlpha * (d - m.Distinct)
	}
	m.PrevX, m.HavePrev = x, true

	// Flat-line run at the top of the range: ADC saturation. Runs near the
	// signal floor are left alone — a noise-free stall legitimately sits
	// at a constant level.
	if x == m.RunVal {
		m.RunLen++
	} else {
		m.RunVal, m.RunLen = x, 1
		m.ClipActive = false
	}
	if m.RefReady && m.Distinct > 0.9 && m.RunLen >= m.clipRun && x >= m.clipMinFrac*m.Ref {
		fl |= qClip
		if !m.ClipActive {
			retro = m.RunLen - 1
			if retro > m.half-1 {
				retro = m.half - 1
			}
			m.Quality.ClippedSamples += int64(retro) + 1
			m.ClipActive = true
		} else {
			m.Quality.ClippedSamples++
		}
	}

	// An excursion implausibly far above the busy level: an impulsive RF
	// burst, or the onset of an upward gain step. The sample is held so
	// neither the normalisation windows nor the sanitised stream are
	// poisoned, but the RAW value still drives the busy tracker: a
	// transient excursion can never confirm a step (track's raw-high
	// recency gate), while a sustained one re-references within a persist
	// window and then passes normally against the new reference.
	if m.RefReady && x > m.burstK*m.Ref && fl == 0 {
		m.Quality.BurstSamples++
		y = m.LastGood
		fl = qBurst
		if stepped, stepRetro := m.track(x); stepped {
			m.StepResyncPending = true
			fl |= qStep
			retro = stepRetro
		}
		return y, fl, retro, resync
	}

	y = x
	m.LastGood = y
	if stepped, stepRetro := m.track(y); stepped {
		// The resync itself is deferred to the next position (see
		// stepResyncPending); this position and the trailing half-window
		// carry the step flag now.
		m.StepResyncPending = true
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
	if !m.RefReady {
		m.Warm++
		if m.Warm >= m.persist {
			m.Ref = sm
			m.RefReady = true
		}
		return false, 0
	}
	if m.Ref <= 0 {
		m.Ref = sm
		return false, 0
	}
	if y > m.stepRatio*m.Ref {
		m.SinceHigh = 0
	} else if m.SinceHigh < 1<<30 {
		m.SinceHigh++
	}
	ratio := sm / m.Ref
	dir := 0
	if ratio > m.stepRatio {
		dir = 1
	} else if ratio < 1/m.stepRatio {
		dir = -1
	}
	sdir := 0
	if m.shiftRatio > 0 {
		if y > m.shiftRatio*m.Ref {
			m.SinceShiftHigh = 0
		} else if m.SinceShiftHigh < 1<<30 {
			m.SinceShiftHigh++
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
	if dir == 1 && m.SinceHigh > m.persist/2 {
		m.StepDir, m.StepLen = 0, 0
		if m.shiftRatio > 0 {
			return m.trackShift(sdir, sm)
		}
		return false, 0
	}
	switch {
	case dir == 0:
		m.StepDir, m.StepLen = 0, 0
		// A live shift candidacy freezes the reference: with refWin ≥
		// 2×persist the EMA would otherwise absorb a moderate shift
		// before it can persist long enough to confirm.
		if sdir == 0 {
			m.Ref += m.refAlpha * (sm - m.Ref)
		}
	case dir == m.StepDir:
		m.StepLen++
	default:
		m.StepDir, m.StepLen = dir, 1
	}
	if m.StepLen >= m.persist {
		m.Quality.Resyncs++
		// Flag the whole trailing half-window, not just the transition:
		// every position decided against stats that straddle the
		// discontinuity is unreliable. An up-step in particular inflates
		// the moving max seen by the preceding half-window, which would
		// otherwise read as a deep phantom dip ending at the resync.
		retro = m.half - 1
		if retro < 0 {
			retro = 0
		}
		m.Quality.StepSamples += int64(retro) + 1
		m.Ref = sm
		m.StepDir, m.StepLen = 0, 0
		m.ShiftDir, m.ShiftLen = 0, 0
		m.PendingCause = trace.ResyncGainStep
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
	if sdir == 1 && m.SinceShiftHigh > m.persist/2 {
		m.ShiftDir, m.ShiftLen = 0, 0
		return false, 0
	}
	switch {
	case sdir == 0:
		m.ShiftDir, m.ShiftLen = 0, 0
	case sdir == m.ShiftDir:
		m.ShiftLen++
	default:
		m.ShiftDir, m.ShiftLen = sdir, 1
	}
	if m.ShiftLen >= m.persist {
		m.Quality.Resyncs++
		// Same retroactive half-window discipline as a confirmed step:
		// every decision straddling the shift is unreliable, and the
		// flags bound the phantom stalls a bump can cause.
		retro = m.half - 1
		if retro < 0 {
			retro = 0
		}
		m.Quality.StepSamples += int64(retro) + 1
		m.Ref = sm
		m.ShiftDir, m.ShiftLen = 0, 0
		m.StepDir, m.StepLen = 0, 0
		m.PendingCause = trace.ResyncProbeShift
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
	d := newDetector(cfg, c.SampleRate, c.ClockHz, half, p, &mon.Quality, nil)
	for i, v := range norm {
		var fl qflag
		if mask != nil {
			fl = mask[i]
		}
		j := min(i+half, n-1)
		d.decide(int64(i), v, fl, mins[j], maxs[j])
	}
	d.finish(int64(n))
	p.Quality = mon.Quality
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
	// Half a window longer than one chunk (the default's half is 4,000
	// samples at 40 MS/s, just under pushBlockN).
	long := DefaultConfig()
	long.NormWindowS = 250e-6
	configs["long-window"] = long
	return configs
}

// oracleCapture is one input the compositions are checked on. A quiet
// input is too short or too featureless to hold a stall.
type oracleCapture struct {
	name  string
	c     *em.Capture
	quiet bool
}

// oracleCaptures returns, for a configuration: clean, impaired,
// injected-fault and probe-shift captures; degenerate ones (empty, one
// sample, constant, all NaN); prefixes of the impaired capture whose
// lengths sit on the engine's boundaries (one sample, lead+1, half, one
// chunk ± 1, two chunks plus half); a capture shorter than a window; and
// one with dips in the final half window.
func oracleCaptures(cfg Config) []oracleCapture {
	const rate = 40e6
	w := normWindow(cfg, rate)
	half := w / 2
	lead := (cfg.SmoothSamples - 1) / 2
	clean := synthCapture(30000, map[int]int{3000: 12, 11000: 40, 19000: 9, 26000: 110}, 0.1, 1, 0.02, 3)
	impaired := &em.Capture{Samples: blockSeries(30000, 21), SampleRate: rate, ClockHz: 1e9}
	short := synthCapture(max(w/2, 40), map[int]int{max(w/4, 20): 12}, 0.1, 1, 0.02, 5)
	filled := func(n int, v float64) *em.Capture {
		c := &em.Capture{Samples: make([]float64, n), SampleRate: rate, ClockHz: 1e9}
		for i := range c.Samples {
			c.Samples[i] = v
		}
		return c
	}
	caps := []oracleCapture{
		{"clean", clean, false},
		{"impaired", impaired, false},
		{"injected-faults", faultCapture(), false},
		{"probe-shift", shiftCapture(23), false},
		{"short", short, true},
		{"empty", filled(0, 0), true},
		{"one", filled(1, 1), true},
		{"const", filled(20000, 0), true},
		{"nan", filled(20000, math.NaN()), true},
	}
	seen := map[int]bool{}
	for _, n := range []int{1, lead + 1, half, pushBlockN - 1, pushBlockN, pushBlockN + 1, 2*pushBlockN + half} {
		if !seen[n] {
			seen[n] = true
			pc := &em.Capture{Samples: impaired.Samples[:n], SampleRate: rate, ClockHz: 1e9}
			caps = append(caps, oracleCapture{fmt.Sprintf("prefix-%d", n), pc, true})
		}
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
	return append(caps, oracleCapture{"final-half-window", last, false})
}

// faultCapture runs a clean capture through the fault injector with
// every impairment class on at once: dropouts, clipping, gain steps, RF
// bursts and NaN corruption.
func faultCapture() *em.Capture {
	clean := synthCapture(30000, map[int]int{2000: 12, 9000: 40, 17000: 12, 24000: 12}, 0.1, 1, 0.02, 13)
	c, _, err := faults.Apply(clean, faults.Spec{
		DropoutRate:   0.002,
		ClipLevel:     1.6,
		GainStepsPerS: 8000,
		BurstRate:     0.0005,
		NaNRate:       0.0002,
		Seed:          2,
	})
	if err != nil {
		panic(err)
	}
	return c
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
// and rolling windows merged back must each reproduce the oracle's
// profile exactly — stalls, confidences and the quality record — on
// every capture kind.
func TestCompositionsMatchOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		a := MustNewAnalyzer(cfg)
		a.KeepNormalized = true
		for _, oc := range oracleCaptures(cfg) {
			c := oc.c
			ctx := name + "/" + oc.name
			want := oracleProfile(cfg, c, true)
			if !oc.quiet && len(want.Stalls) == 0 {
				t.Fatalf("%s: oracle found no stalls; the check is vacuous", ctx)
			}
			if oc.name == "injected-faults" && want.Quality.Resyncs == 0 {
				t.Fatalf("%s: the faults caused no resync; the gain-step path is untested", ctx)
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
	assertProfilesIdentical(t, p, stream, "short capture")
}

// TestRetroFlagAtChunkEdge pins the monitor's retroactive patches at a
// chunk edge. A receiver gain step flags the half−1 positions before the
// sample that confirms it, and the patch goes through the flag queue, so
// it must reach positions still undecided in earlier chunks: the deepest
// one is decided only once the confirming sample's successor is folded
// in. A stall dip exits on that deepest position: flagged, the dip is
// aborted; a lost patch reports it. The step is confirmed once at the
// first sample of a pushBlockN chunk (the patch crosses the edge) and once
// at its last (the patch stays in the chunk); Profile must match the
// oracle both times.
func TestRetroFlagAtChunkEdge(t *testing.T) {
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
			t.Fatalf("confirm=%d: profile differs from the oracle", confirm)
		}
	}
}
