package core

import (
	"fmt"
	"time"

	"emprof/internal/dsp"
	"emprof/internal/trace"
)

// StreamAnalyzer applies EMPROF incrementally, in bounded memory, as
// samples arrive — the deployment mode the paper implies, where a
// software-defined receiver streams for minutes (most SPEC runs exceed
// the spectrum analyzer's record length, which is why the authors moved
// to a streaming digitizer, Section VI). Push samples with PushBlock,
// then call Finalize for the profile.
//
// StreamAnalyzer is the analysis engine itself (engine.go): the batch
// analyzer runs it over a whole capture, so its output matches
// Analyzer.Profile on the same capture by construction, however the
// stream is split into pushes.
type StreamAnalyzer struct {
	cfg        Config
	sampleRate float64
	clockHz    float64

	// Quality monitor stage (runs on raw samples, before smoothing).
	mon *monitor
	// flagBuf holds the impairment flags of positions not yet decided;
	// its front belongs to the next position to decide.
	flagBuf fifo[qflag]
	// resyncAt holds positions at which the min/max state must be reset
	// before that position is folded in.
	resyncAt []int64
	// fed counts positions folded into the min/max windows so far.
	fed int64

	// Smoothing stage with centre compensation: the moving average of
	// input j describes position j-lead.
	smoother *dsp.MovingAverage
	lead     int
	// smTail holds the last lead+1 raw smoother outputs: at Finalize the
	// final lead positions take their own trailing averages.
	smTail []float64

	// Normalisation stage: trailing min/max over smoothed positions; the
	// decision for position i is taken half a window later.
	mmin, mmax *dsp.MovingExtremum
	half       int
	// pending holds smoothed values awaiting their (delayed) decision.
	pending fifo[float64]

	// Detection state.
	n       int64 // raw samples pushed
	emitted int64 // positions decided
	det     *detector

	prof *Profile
	// OnStall, when set, is invoked for each detected stall as soon as
	// its end is decided.
	OnStall func(Stall)
	// obs receives decision-trace events when set via SetObserver.
	obs trace.Observer

	// scratch backs the staged block processing; empty until the first
	// push.
	scratch blockScratch
	// clock times the stages of a traced batch run; nil otherwise.
	clock *stageClock

	lastMin, lastMax float64
	haveStats        bool
}

// NewStreamAnalyzer returns a streaming analyzer for a signal with the
// given acquisition metadata.
func NewStreamAnalyzer(cfg Config, sampleRate, clockHz float64) (*StreamAnalyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w := cfg.NormWindowS * sampleRate; !(w <= maxWindowSamples) || cfg.SmoothSamples > maxWindowSamples {
		return nil, fmt.Errorf("core: window of %v samples or smoother of %d exceeds %d", w, cfg.SmoothSamples, maxWindowSamples)
	}
	return newStreamAnalyzer(cfg, sampleRate, clockHz), nil
}

// maxWindowSamples bounds the normalisation window and the smoother
// width, whose buffers a stream allocates up front: a session (or a
// hand-off state) asking for more is refused rather than allowed to
// exhaust memory. It is 2,000× the default window at 40 MS/s.
const maxWindowSamples = 1 << 24

// newStreamAnalyzer builds the engine for an already-validated
// configuration.
func newStreamAnalyzer(cfg Config, sampleRate, clockHz float64) *StreamAnalyzer {
	s := &StreamAnalyzer{
		cfg:        cfg,
		sampleRate: sampleRate,
		clockHz:    clockHz,
		mon:        newMonitor(cfg, sampleRate),
		prof: &Profile{
			SampleRate: sampleRate,
			ClockHz:    clockHz,
		},
	}
	w := normWindow(cfg, sampleRate)
	s.half = w / 2
	s.mmin = dsp.NewMovingMin(w)
	s.mmax = dsp.NewMovingMax(w)
	if cfg.SmoothSamples > 1 {
		s.smoother = dsp.NewMovingAverage(cfg.SmoothSamples)
		s.lead = (cfg.SmoothSamples - 1) / 2
	}
	s.det = newDetector(cfg, sampleRate, clockHz, s.half, s.prof, &s.mon.q, &s.OnStall)
	return s
}

// SetObserver attaches a decision-trace observer: it receives one event
// per analyzer decision (dip candidates, accepted/rejected stalls,
// resyncs, quality flags, and a drain timing at Finalize) as each
// decision is taken. Call it before the first PushBlock; attaching an
// observer never changes the produced profile. A nil observer restores
// the original, emission-free path.
func (s *StreamAnalyzer) SetObserver(o trace.Observer) {
	s.obs = o
	s.mon.obs = o
	s.det.obs = o
}

// Finalize drains the pipeline and returns the profile. The analyzer must
// not be pushed to afterwards.
func (s *StreamAnalyzer) Finalize() *Profile {
	if s.obs == nil {
		return s.finish()
	}
	t0 := time.Now()
	drainFrom := s.emitted
	p := s.finish()
	s.obs.StageTiming(trace.StageTiming{
		Stage:      trace.StageDrain,
		DurationNs: time.Since(t0).Nanoseconds(),
		Samples:    s.emitted - drainFrom,
	})
	return p
}

// Quality returns a snapshot of the signal-quality record accumulated so
// far; it is also available on the profile after Finalize.
func (s *StreamAnalyzer) Quality() Quality { return s.mon.q }

// Pushed returns the number of raw samples pushed so far.
func (s *StreamAnalyzer) Pushed() int64 { return s.n }

// Decided returns the number of positions whose detection decision is
// final. It trails Pushed by the pipeline latency (smoother group delay +
// half a normalisation window); only stalls ending at or before this
// position can appear in a Snapshot.
func (s *StreamAnalyzer) Decided() int64 { return s.emitted }

// Snapshot returns the profile of the samples analysed so far without
// disturbing the stream: the analyzer may keep being pushed to afterwards
// and Finalize still produces its usual result. The snapshot is strictly
// causal — it contains exactly the stalls whose end had been decided when
// it was taken (each a prefix of the eventual Finalize output on the same
// stream), the quality record to date, and ExecCycles covering every
// pushed sample. Dips still open, or buffered behind the normalisation
// half-window, are not speculated about.
//
// The returned profile shares nothing with the analyzer's internal state;
// StreamAnalyzer itself is still not safe for concurrent use, so callers
// interleaving PushBlock and Snapshot from different goroutines must
// serialise them (the profiling service's session lock does exactly
// this).
func (s *StreamAnalyzer) Snapshot() *Profile {
	p := *s.prof
	p.Stalls = append([]Stall(nil), s.prof.Stalls...)
	if s.sampleRate > 0 {
		p.ExecCycles = float64(s.n) * (s.clockHz / s.sampleRate)
	}
	p.Quality = s.mon.q
	return &p
}

// SnapshotView is Snapshot without the stall-list clone: the returned
// profile's Stalls alias the analyzer's live list. It exists for callers
// that hold the analyzer's external serialisation lock across both the
// call and every read of the result (the profiling service encodes the
// snapshot to JSON under its session lock); the view must not be
// retained or read after that lock is released. All scalar fields match
// Snapshot exactly.
func (s *StreamAnalyzer) SnapshotView() Profile {
	p := *s.prof
	if s.sampleRate > 0 {
		p.ExecCycles = float64(s.n) * (s.clockHz / s.sampleRate)
	}
	p.Quality = s.mon.q
	return p
}
