package emprof

import (
	"context"
	"fmt"

	"emprof/internal/core"
)

// runBlockSamples is the push granularity of Analyzer.Run's sequential
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
	core     *core.Analyzer
	parallel bool
	obs      Observer
}

// Option configures an Analyzer at construction time.
type Option func(*Analyzer)

// WithWorkers selects the analysis path: n == 1 is the sequential
// default, and any other value selects the two-stage pipeline, which runs
// the quality monitor and smoother on one goroutine and normalisation and
// detection on the caller's, bit-identically to the sequential result.
func WithWorkers(n int) Option {
	return func(a *Analyzer) { a.parallel = n != 1 }
}

// WithObserver attaches a decision-trace observer (see the trace types:
// NewTraceJSONL, NewTraceRing, NewTraceMetrics, MultiObserver): it
// receives one event per analyzer decision. Observers never change the
// produced profile, and a nil observer keeps the pipeline on its
// original allocation-free path.
func WithObserver(o Observer) Option {
	return func(a *Analyzer) { a.obs = o }
}

// WithStreaming does nothing: the default sequential path already pushes
// the capture through a StreamAnalyzer block by block, in bounded memory,
// checking ctx between blocks.
//
// Deprecated: Run's default path is the streaming path; drop the option.
func WithStreaming() Option {
	return func(*Analyzer) {}
}

// NewAnalyzer validates the configuration and builds an analyzer.
// Without options it runs the sequential path; WithWorkers selects the
// parallel path (both are bit-identical in output) and WithObserver
// attaches observability:
//
//	a, err := emprof.NewAnalyzer(cfg,
//	        emprof.WithWorkers(2),
//	        emprof.WithObserver(emprof.NewTraceMetrics()))
//	prof, err := a.Run(ctx, capture)
//
// Configuration failures are reported as ErrBadConfig.
func NewAnalyzer(cfg Config, opts ...Option) (*Analyzer, error) {
	ca, err := core.NewAnalyzer(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadConfig, err)
	}
	a := &Analyzer{core: ca}
	for _, opt := range opts {
		opt(a)
	}
	ca.Observer = a.obs
	return a, nil
}

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.core.Config() }

// Run profiles one capture on the path the options selected. It reports
// ErrBadCapture for captures that cannot be analysed, and ErrBadConfig
// when the configuration's windows are too large for the capture's
// sample rate. It honours ctx: a nil ctx means context.Background(), and
// cancellation is checked up front on both paths. The sequential path
// pushes the capture through the engine (Stream) in blocks and checks
// ctx between them; the parallel path runs a capture already in flight
// to completion.
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
	if a.parallel {
		return a.core.ProfileParallel(c), nil
	}
	s, err := a.Stream(c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, err
	}
	for xs := c.Samples; len(xs) > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := min(len(xs), runBlockSamples)
		s.PushBlock(xs[:n])
		xs = xs[n:]
	}
	return s.Finalize(), nil
}

// Stream returns a push-based incremental profiler carrying the
// analyzer's configuration and observer, for signals acquired at
// sampleRate from a processor clocked at clockHz: PushBlock samples as
// they arrive, set OnStall for live event delivery, and Finalize returns
// the profile. It is the engine Run drives over a whole capture, so any
// split of the capture into pushes profiles bit-identically to Run.
func (a *Analyzer) Stream(sampleRate, clockHz float64) (*StreamAnalyzer, error) {
	s, err := core.NewStreamAnalyzer(a.core.Config(), sampleRate, clockHz)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadConfig, err)
	}
	s.SetObserver(a.obs)
	return s, nil
}
