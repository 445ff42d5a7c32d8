package core

import (
	"fmt"
	"math"

	"emprof/internal/dsp"
	"emprof/internal/trace"
)

// This file implements replay-free streaming hand-off: a StreamAnalyzer
// can export its complete mid-stream state (ExportState), ship it to
// another process as JSON, and be resumed there (ResumeStreamAnalyzer)
// such that pushing the remaining samples produces a profile bit-
// identical to one analyzer having seen the whole stream. The fleet
// layer uses this to move live profiling sessions between shards during
// rebalance without re-ingesting a single sample.
//
// Everything derivable from (Config, sampleRate, clockHz) — window
// widths, monitor thresholds, detector durations — is NOT part of the
// state: the resuming side rebuilds it through NewStreamAnalyzer and
// Restore validates the buffer shapes against it, so a state forged for
// a different configuration is rejected instead of silently corrupting
// the pipeline. All retained floats are finite (the monitor sanitises
// the stream before anything is buffered), so the state survives a JSON
// round trip exactly: Go marshals float64 at full round-trip precision,
// and the only non-finite internal value (the detector's +Inf dip-depth
// sentinel) is re-derived from InDip on restore.

// monitorState is the serializable mid-stream state of the quality
// monitor (quality.go); derived thresholds are omitted.
type monitorState struct {
	SMax              dsp.MovingExtremumState `json:"smax"`
	Ref               float64                 `json:"ref"`
	RefReady          bool                    `json:"ref_ready"`
	Warm              int                     `json:"warm"`
	LastGood          float64                 `json:"last_good"`
	ZeroRun           int                     `json:"zero_run"`
	RunVal            float64                 `json:"run_val"`
	RunLen            int                     `json:"run_len"`
	ClipActive        bool                    `json:"clip_active"`
	StepDir           int                     `json:"step_dir"`
	StepLen           int                     `json:"step_len"`
	StepResyncPending bool                    `json:"step_resync_pending"`
	SinceHigh         int                     `json:"since_high"`
	ShiftDir          int                     `json:"shift_dir"`
	ShiftLen          int                     `json:"shift_len"`
	SinceShiftHigh    int                     `json:"since_shift_high"`
	PendingCause      trace.ResyncCause       `json:"pending_cause,omitempty"`
	Distinct          float64                 `json:"distinct"`
	PrevX             float64                 `json:"prev_x"`
	HavePrev          bool                    `json:"have_prev"`
	Quality           Quality                 `json:"quality"`
}

// detectorState is the serializable mid-stream state of the dip state
// machine. Depth is meaningful only while InDip (outside a dip the
// detector holds a +Inf sentinel that JSON cannot carry).
type detectorState struct {
	InDip        bool    `json:"in_dip"`
	Start        int64   `json:"start"`
	Depth        float64 `json:"depth"`
	EntryLo      float64 `json:"entry_lo"`
	EntryHi      float64 `json:"entry_hi"`
	LastImpaired int64   `json:"last_impaired"`
}

// StreamState is a complete, serializable snapshot of a StreamAnalyzer
// mid-stream. It is produced by ExportState and consumed by
// ResumeStreamAnalyzer; the profiling service wraps it (with session
// metadata and decoder state) as the hand-off wire format.
type StreamState struct {
	Config     Config  `json:"config"`
	SampleRate float64 `json:"sample_rate"`
	ClockHz    float64 `json:"clock_hz"`

	Pushed  int64 `json:"pushed"`
	Decided int64 `json:"decided"`
	Fed     int64 `json:"fed"`

	FlagBuf  []trace.Flag `json:"flag_buf,omitempty"`
	ResyncAt []int64      `json:"resync_at,omitempty"`
	SmTail   []float64    `json:"sm_tail,omitempty"`
	Pending  []float64    `json:"pending,omitempty"`

	LastMin   float64 `json:"last_min"`
	LastMax   float64 `json:"last_max"`
	HaveStats bool    `json:"have_stats"`

	// Smoother is nil when the configuration disables smoothing
	// (SmoothSamples <= 1).
	Smoother *dsp.MovingAverageState `json:"smoother,omitempty"`
	MMin     dsp.MovingExtremumState `json:"mmin"`
	MMax     dsp.MovingExtremumState `json:"mmax"`

	Monitor  monitorState  `json:"monitor"`
	Detector detectorState `json:"detector"`

	// Profile is the profile accumulated so far (stalls whose end was
	// decided before the export).
	Profile *Profile `json:"profile"`
}

// ExportState snapshots the analyzer's complete mid-stream state. The
// analyzer itself is left untouched and may keep being pushed to; the
// returned state shares no memory with it. Callbacks (OnStall) and
// observers are deliberately not part of the state — they are process-
// local and must be re-attached after ResumeStreamAnalyzer.
func (s *StreamAnalyzer) ExportState() *StreamState {
	st := &StreamState{
		Config:     s.cfg,
		SampleRate: s.sampleRate,
		ClockHz:    s.clockHz,
		Pushed:     s.n,
		Decided:    s.emitted,
		Fed:        s.fed,
		FlagBuf:    s.flagBuf.items(),
		ResyncAt:   append([]int64(nil), s.resyncAt...),
		SmTail:     append([]float64(nil), s.smTail...),
		Pending:    s.pending.items(),
		LastMin:    s.lastMin,
		LastMax:    s.lastMax,
		HaveStats:  s.haveStats,
		MMin:       s.mmin.State(),
		MMax:       s.mmax.State(),
	}
	if s.smoother != nil {
		sm := s.smoother.State()
		st.Smoother = &sm
	}
	m := s.mon
	st.Monitor = monitorState{
		SMax:              m.smax.State(),
		Ref:               m.ref,
		RefReady:          m.refReady,
		Warm:              m.warm,
		LastGood:          m.lastGood,
		ZeroRun:           m.zeroRun,
		RunVal:            m.runVal,
		RunLen:            m.runLen,
		ClipActive:        m.clipActive,
		StepDir:           m.stepDir,
		StepLen:           m.stepLen,
		StepResyncPending: m.stepResyncPending,
		SinceHigh:         m.sinceHigh,
		ShiftDir:          m.shiftDir,
		ShiftLen:          m.shiftLen,
		SinceShiftHigh:    m.sinceShiftHigh,
		PendingCause:      m.pendingCause,
		Distinct:          m.distinct,
		PrevX:             m.prevX,
		HavePrev:          m.havePrev,
		Quality:           m.q,
	}
	d := s.det
	st.Detector = detectorState{
		InDip:        d.inDip,
		Start:        d.start,
		EntryLo:      d.entryLo,
		EntryHi:      d.entryHi,
		LastImpaired: d.lastImpaired,
	}
	if d.inDip {
		st.Detector.Depth = d.depth
	}
	prof := *s.prof
	prof.Stalls = append([]Stall(nil), s.prof.Stalls...)
	st.Profile = &prof
	return st
}

// ResumeStreamAnalyzer rebuilds a StreamAnalyzer from an exported state.
// Pushing the remaining samples of the original stream (and finalizing)
// produces output bit-identical to the exporting analyzer having seen
// the whole stream. OnStall and the trace observer start out unset; the
// caller re-attaches them before the next PushBlock.
func ResumeStreamAnalyzer(st *StreamState) (*StreamAnalyzer, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil stream state")
	}
	s, err := NewStreamAnalyzer(st.Config, st.SampleRate, st.ClockHz)
	if err != nil {
		return nil, err
	}
	if st.Pushed < 0 || st.Decided < 0 || st.Fed < 0 || st.Decided > st.Pushed || st.Fed > st.Pushed {
		return nil, fmt.Errorf("core: inconsistent stream state counters pushed=%d fed=%d decided=%d",
			st.Pushed, st.Fed, st.Decided)
	}
	if len(st.SmTail) > s.lead+1 {
		return nil, fmt.Errorf("core: smoother tail %d exceeds group delay %d", len(st.SmTail), s.lead)
	}
	if len(st.Pending) > s.half {
		return nil, fmt.Errorf("core: %d pending positions exceed half-window %d", len(st.Pending), s.half)
	}
	// The queues hold exactly the undecided positions: a flag for each
	// pushed one, a value for each fed one, and fed trails pushed by the
	// smoother's lead. The decide stage takes each due position's value
	// and flag from the queue fronts and relies on them being there.
	if int64(len(st.FlagBuf)) != st.Pushed-st.Decided || int64(len(st.Pending)) != st.Fed-st.Decided ||
		st.Fed != max(st.Pushed-int64(s.lead), 0) {
		return nil, fmt.Errorf("core: queues hold %d flags and %d values for pushed=%d fed=%d decided=%d",
			len(st.FlagBuf), len(st.Pending), st.Pushed, st.Fed, st.Decided)
	}
	if (st.Smoother == nil) != (s.smoother == nil) {
		return nil, fmt.Errorf("core: smoother state does not match config (SmoothSamples=%d)", st.Config.SmoothSamples)
	}
	if s.smoother != nil {
		if err := s.smoother.Restore(*st.Smoother); err != nil {
			return nil, err
		}
	}
	if st.MMin.Count != st.MMax.Count || st.MMin.Count > st.Fed {
		return nil, fmt.Errorf("core: normalisation windows hold %d and %d positions, fed %d",
			st.MMin.Count, st.MMax.Count, st.Fed)
	}
	for i, r := range st.ResyncAt {
		if r < st.Fed || r >= st.Pushed || (i > 0 && r <= st.ResyncAt[i-1]) {
			return nil, fmt.Errorf("core: resync at %d outside the unfed positions [%d, %d) or out of order", r, st.Fed, st.Pushed)
		}
	}
	if err := s.mmin.Restore(st.MMin); err != nil {
		return nil, err
	}
	if err := s.mmax.Restore(st.MMax); err != nil {
		return nil, err
	}
	s.n = st.Pushed
	s.emitted = st.Decided
	s.fed = st.Fed
	s.flagBuf.load(st.FlagBuf)
	s.resyncAt = append(s.resyncAt[:0], st.ResyncAt...)
	s.smTail = append(s.smTail[:0], st.SmTail...)
	s.pending.load(st.Pending)
	s.lastMin, s.lastMax, s.haveStats = st.LastMin, st.LastMax, st.HaveStats

	m := s.mon
	ms := st.Monitor
	if err := m.smax.Restore(ms.SMax); err != nil {
		return nil, err
	}
	m.ref = ms.Ref
	m.refReady = ms.RefReady
	m.warm = ms.Warm
	m.lastGood = ms.LastGood
	m.zeroRun = ms.ZeroRun
	m.runVal = ms.RunVal
	m.runLen = ms.RunLen
	m.clipActive = ms.ClipActive
	m.stepDir, m.stepLen = ms.StepDir, ms.StepLen
	m.stepResyncPending = ms.StepResyncPending
	m.sinceHigh = ms.SinceHigh
	m.shiftDir, m.shiftLen = ms.ShiftDir, ms.ShiftLen
	m.sinceShiftHigh = ms.SinceShiftHigh
	m.pendingCause = ms.PendingCause
	m.distinct = ms.Distinct
	m.prevX, m.havePrev = ms.PrevX, ms.HavePrev
	m.q = ms.Quality

	d := s.det
	ds := st.Detector
	d.inDip = ds.InDip
	d.start = ds.Start
	d.depth = math.Inf(1)
	if ds.InDip {
		d.depth = ds.Depth
	}
	d.entryLo, d.entryHi = ds.EntryLo, ds.EntryHi
	d.lastImpaired = ds.LastImpaired

	if st.Profile == nil {
		return nil, fmt.Errorf("core: stream state carries no profile")
	}
	// The detector and monitor keep their pointers into s.prof / s.mon.q;
	// overwrite the pointees rather than the pointers.
	prof := *st.Profile
	prof.Stalls = append([]Stall(nil), st.Profile.Stalls...)
	prof.SampleRate, prof.ClockHz = st.SampleRate, st.ClockHz
	*s.prof = prof
	// Re-derive the aggregate counters from the stall list so a tampered
	// state cannot desynchronise them.
	s.prof.Misses, s.prof.RefreshStalls, s.prof.StallCycles = 0, 0, 0
	for _, stall := range s.prof.Stalls {
		if stall.Refresh {
			s.prof.RefreshStalls++
		} else {
			s.prof.Misses++
		}
		s.prof.StallCycles += stall.Cycles
	}
	return s, nil
}
