package emprof

import (
	"context"
	"fmt"

	"emprof/internal/core"
)

// runBlockSamples is the push granularity of Analyzer.Run's streaming
// path; cancellation is checked between blocks.
const runBlockSamples = 1 << 16

// Analyzer is the configured profiling pipeline behind the package's
// analysis API: construct one with NewAnalyzer, then Run it over
// captures. The zero value is not usable.
//
// One Analyzer may Run any number of captures, sequentially or from
// multiple goroutines (each Run builds its own pipeline state); an
// attached Observer must be safe for concurrent use in the latter case,
// or whenever WithWorkers enables the parallel path.
type Analyzer struct {
	core      *core.Analyzer
	workers   int
	streaming bool
	obs       Observer
}

// Option configures an Analyzer at construction time.
type Option func(*Analyzer)

// WithWorkers selects the parallel analysis path with the given worker
// count: the capture is sharded across a bounded pool, bit-identically to
// the sequential result. n <= 0 uses runtime.GOMAXPROCS(0); n == 1 is
// the sequential default. Ignored by the streaming path (WithStreaming),
// which is single-pass by construction.
func WithWorkers(n int) Option {
	return func(a *Analyzer) {
		if n <= 0 {
			n = 0 // auto-size
		}
		a.workers = n
	}
}

// WithObserver attaches a decision-trace observer (see the trace types:
// NewTraceJSONL, NewTraceRing, NewTraceMetrics, MultiObserver): it
// receives one event per analyzer decision. Observers never change the
// produced profile, and a nil observer keeps the pipeline on its
// original allocation-free path.
func WithObserver(o Observer) Option {
	return func(a *Analyzer) { a.obs = o }
}

// WithStreaming selects the bounded-memory incremental path: Run pushes
// the capture through a StreamAnalyzer block by block instead of holding
// intermediate buffers proportional to the capture. The result still
// matches the batch path bit-for-bit; Run additionally honours context
// cancellation between blocks.
func WithStreaming() Option {
	return func(a *Analyzer) { a.streaming = true }
}

// WithNormalized retains the normalised signal on the produced Profile
// (Profile.Normalized) for debugging and display experiments. Ignored by
// the streaming path, which never materialises the normalised series.
func WithNormalized() Option {
	return func(a *Analyzer) { a.core.KeepNormalized = true }
}

// NewAnalyzer validates the configuration and builds an analyzer.
// Without options it runs the batch path; options select the
// parallel or streaming execution paths (every path is bit-identical in
// output) and attach observability:
//
//	a, err := emprof.NewAnalyzer(cfg,
//	        emprof.WithWorkers(8),
//	        emprof.WithObserver(emprof.NewTraceMetrics()))
//	prof, err := a.Run(ctx, capture)
//
// Configuration failures are reported as ErrBadConfig.
func NewAnalyzer(cfg Config, opts ...Option) (*Analyzer, error) {
	ca, err := core.NewAnalyzer(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadConfig, err)
	}
	a := &Analyzer{core: ca, workers: 1}
	for _, opt := range opts {
		opt(a)
	}
	ca.Observer = a.obs
	return a, nil
}

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.core.Config() }

// Run profiles one capture on the path the options selected. It reports
// ErrBadCapture for captures that cannot be analysed, and honours ctx:
// a nil ctx means context.Background(), cancellation is checked up front
// on every path and between blocks on the streaming path. On the batch
// and parallel paths a capture already in flight runs to completion —
// they have no internal yield points.
func (a *Analyzer) Run(ctx context.Context, c *Capture) (*Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateCapture(c); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.streaming {
		return a.runStreaming(ctx, c)
	}
	if a.workers != 1 {
		return a.core.ProfileParallel(c, core.ParallelOptions{Workers: a.workers}), nil
	}
	return a.core.Profile(c), nil
}

// runStreaming pushes the capture through a fresh StreamAnalyzer in
// runBlockSamples blocks, checking for cancellation between blocks.
func (a *Analyzer) runStreaming(ctx context.Context, c *Capture) (*Profile, error) {
	s, err := a.Stream(c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(c.Samples); off += runBlockSamples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := off + runBlockSamples
		if end > len(c.Samples) {
			end = len(c.Samples)
		}
		s.PushBlock(c.Samples[off:end])
	}
	return s.Finalize(), nil
}

// Stream returns a push-based incremental profiler carrying the
// analyzer's configuration and observer, for signals acquired at
// sampleRate from a processor clocked at clockHz — the live-acquisition
// form of Run(ctx, capture) with WithStreaming.
func (a *Analyzer) Stream(sampleRate, clockHz float64) (*StreamAnalyzer, error) {
	s, err := core.NewStreamAnalyzer(a.core.Config(), sampleRate, clockHz)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadConfig, err)
	}
	if a.obs != nil {
		s.SetObserver(a.obs)
	}
	return s, nil
}
