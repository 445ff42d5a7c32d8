package core

import (
	"fmt"

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
	// clock times the stages while an observer is attached; nil
	// otherwise.
	clock *stageClock

	lastMin, lastMax float64
	haveStats        bool
}

// NewStreamAnalyzer returns a streaming analyzer for a signal with the
// given acquisition metadata.
func NewStreamAnalyzer(cfg Config, sampleRate, clockHz float64) (*StreamAnalyzer, error) {
	if _, err := WindowSamples(cfg, sampleRate); err != nil {
		return nil, err
	}
	return newStreamAnalyzer(cfg, sampleRate, clockHz), nil
}

// MaxWindowSamples bounds the normalisation window plus the smoother
// width, whose buffers a stream allocates up front (about 32 bytes per
// window sample): a session (or a hand-off state) asking for more is
// refused rather than allowed to exhaust memory. It is 2,000× the
// default window at 40 MS/s.
const MaxWindowSamples = 1 << 24

// WindowSamples returns how many samples of window buffers a stream with
// this configuration allocates up front, the normalisation window plus
// the smoother, without allocating them. It refuses what
// NewStreamAnalyzer refuses: an invalid configuration, or more than
// MaxWindowSamples in all.
func WindowSamples(cfg Config, sampleRate float64) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	n := 0
	if w := cfg.NormWindowS * sampleRate; w <= MaxWindowSamples && cfg.SmoothSamples <= MaxWindowSamples {
		n = normWindow(cfg, sampleRate)
		if cfg.SmoothSamples > 1 {
			n += cfg.SmoothSamples
		}
	}
	if n == 0 || n > MaxWindowSamples {
		return 0, fmt.Errorf("core: window of %v s at %v samples/s and smoother of %d exceed %d samples",
			cfg.NormWindowS, sampleRate, cfg.SmoothSamples, MaxWindowSamples)
	}
	return n, nil
}

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
	s.det = newDetector(cfg, sampleRate, clockHz, s.half, s.prof, &s.mon.Quality, &s.OnStall)
	return s
}

// SetObserver attaches a decision-trace observer: it receives one event
// per analyzer decision (dip candidates, accepted/rejected stalls,
// resyncs, quality flags) as each decision is taken, and the scan,
// normalize and detect stage timings at Finalize. Call it before the
// first PushBlock; attaching an observer never changes the produced
// profile. A nil observer restores the original, emission-free path,
// which never reads the clock. Attached mid-stream (a resumed hand-off),
// the timings cover the samples pushed from then on.
func (s *StreamAnalyzer) SetObserver(o trace.Observer) {
	s.obs = o
	s.mon.obs = o
	s.det.obs = o
	s.clock = nil
	if o != nil {
		s.clock = &stageClock{from: s.n}
	}
}

// Finalize drains the pipeline and returns the profile; a traced run
// then reports its scan (monitor plus smoother), normalize and detect
// stage timings. The analyzer must not be pushed to afterwards.
func (s *StreamAnalyzer) Finalize() *Profile {
	p := s.finish()
	if c := s.clock; s.obs != nil {
		n := s.n - c.from
		s.obs.Observe(trace.Record{Type: trace.TypeStageTiming, Stage: trace.StageScan, DurationNs: c.ns[stageMonitor] + c.ns[stageSmooth], Samples: n})
		s.obs.Observe(trace.Record{Type: trace.TypeStageTiming, Stage: trace.StageNormalize, DurationNs: c.ns[stageNormalize], Samples: n})
		s.obs.Observe(trace.Record{Type: trace.TypeStageTiming, Stage: trace.StageDetect, DurationNs: c.ns[stageDetect], Samples: n})
	}
	return p
}

// Quality returns a snapshot of the signal-quality record accumulated so
// far; it is also available on the profile after Finalize.
func (s *StreamAnalyzer) Quality() Quality { return s.mon.Quality }

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
	p := s.SnapshotView()
	p.Stalls = append([]Stall(nil), p.Stalls...)
	return &p
}

// SnapshotView is Snapshot without the stall-list clone: the returned
// profile's Stalls alias the analyzer's live list. It exists for callers
// that hold the analyzer's external serialisation lock across both the
// call and every read of the result (the profiling service encodes the
// snapshot to JSON under its session lock); the view must not be
// retained or read after that lock is released. Snapshot is this view
// with the stall list copied.
func (s *StreamAnalyzer) SnapshotView() Profile {
	p := *s.prof
	if s.sampleRate > 0 {
		p.ExecCycles = float64(s.n) * (s.clockHz / s.sampleRate)
	}
	p.Quality = s.mon.Quality
	return p
}
