package core

import (
	"fmt"

	"emprof/internal/dsp"
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
// round trip exactly: Go marshals float64 at full round-trip precision.
// The monitor's and the detector's mutable state are declared once, in
// monitorState and detectorState (quality.go), and travel as they are.

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

	// FlagBuf holds the trace.Flag set of each undecided position as a
	// byte, so JSON carries it as base64 rather than as flag names.
	FlagBuf  []byte    `json:"flag_buf,omitempty"`
	ResyncAt []int64   `json:"resync_at,omitempty"`
	SmTail   []float64 `json:"sm_tail,omitempty"`
	Pending  []float64 `json:"pending,omitempty"`

	LastMin   float64 `json:"last_min"`
	LastMax   float64 `json:"last_max"`
	HaveStats bool    `json:"have_stats"`

	// Smoother is nil when the configuration disables smoothing
	// (SmoothSamples <= 1).
	Smoother *dsp.MovingAverageState `json:"smoother,omitempty"`
	MMin     dsp.MovingExtremumState `json:"mmin"`
	MMax     dsp.MovingExtremumState `json:"mmax"`

	// Monitor carries the busy tracker's state first, where the wire
	// form has always had it, then the rest of the monitor's.
	Monitor struct {
		SMax dsp.MovingExtremumState `json:"smax"`
		monitorState
	} `json:"monitor"`
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
		FlagBuf:    convertFlags[byte](s.flagBuf.items()),
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
	st.Monitor.SMax = s.mon.smax.State()
	st.Monitor.monitorState = s.mon.monitorState
	st.Detector = s.det.detectorState
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
	// Every pushed sample passes through the monitor, and its busy
	// tracker, exactly once.
	q := st.Monitor.Quality
	if q.Samples != st.Pushed || st.Monitor.SMax.Count != st.Pushed {
		return nil, fmt.Errorf("core: monitor saw %d samples and its busy tracker %d, pushed %d",
			q.Samples, st.Monitor.SMax.Count, st.Pushed)
	}
	if q.NaNSamples < 0 || q.DroppedSamples < 0 || q.ClippedSamples < 0 ||
		q.BurstSamples < 0 || q.StepSamples < 0 || q.Resyncs < 0 || q.AbortedDips < 0 {
		return nil, fmt.Errorf("core: negative quality counter in %+v", q)
	}
	// A dip in progress was opened at a decided position, and its depth
	// is a normalised value.
	if d := st.Detector; d.InDip && (d.Start < 0 || d.Start >= st.Decided || !(d.Depth >= 0 && d.Depth <= 1)) {
		return nil, fmt.Errorf("core: dip of depth %g opened at %d, outside the %d decided positions or [0, 1]",
			d.Depth, d.Start, st.Decided)
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
	s.flagBuf.load(convertFlags[qflag](st.FlagBuf))
	s.resyncAt = append(s.resyncAt[:0], st.ResyncAt...)
	s.smTail = append(s.smTail[:0], st.SmTail...)
	s.pending.load(st.Pending)
	s.lastMin, s.lastMax, s.haveStats = st.LastMin, st.LastMax, st.HaveStats

	if err := s.mon.smax.Restore(st.Monitor.SMax); err != nil {
		return nil, err
	}
	s.mon.monitorState = st.Monitor.monitorState
	s.det.detectorState = st.Detector

	if st.Profile == nil {
		return nil, fmt.Errorf("core: stream state carries no profile")
	}
	// The detector keeps its pointers into s.prof and s.mon.Quality;
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

// convertFlags copies a flag queue between its in-memory and wire
// element types.
func convertFlags[D, S ~uint8](xs []S) []D {
	if xs == nil {
		return nil
	}
	out := make([]D, len(xs))
	for i, x := range xs {
		out[i] = D(x)
	}
	return out
}
