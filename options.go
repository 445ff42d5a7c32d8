package emprof

import (
	"context"
	"fmt"

	"emprof/internal/core"
)

// runBlockSamples is the push granularity of Analyzer.Run; cancellation
// is checked between blocks.
const runBlockSamples = 1 << 16

// Analyzer is the configured profiling pipeline behind the package's
// analysis API: construct one with NewAnalyzer, then Run it over
// captures. The zero value is not usable.
//
// Each Run analyses its capture on one goroutine. One Analyzer may Run
// any number of captures, sequentially or from multiple goroutines (each
// Run builds its own pipeline state), which is how to use more than one
// core; an attached Observer must be safe for concurrent use in the
// latter case.
type Analyzer struct {
	core *core.Analyzer
	obs  Observer
}

// Option configures an Analyzer at construction time.
type Option func(*Analyzer)

// WithWorkers does nothing: Run analyses a capture on one goroutine.
// Run several captures concurrently (or use RunSweep) to use more cores.
//
// Deprecated: Run has one path; drop the option. Its only caller is
// the benchmark module (bench/layers.go:205); it is deleted together
// with WithStreaming once that caller moves off it.
func WithWorkers(int) Option {
	return func(*Analyzer) {}
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
// WithObserver attaches observability:
//
//	a, err := emprof.NewAnalyzer(cfg,
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

// Run profiles one capture. It reports ErrBadCapture for captures that
// cannot be analysed, and ErrBadConfig when the configuration's windows
// are too large for the capture's sample rate. It pushes the capture
// through the engine (Stream) in blocks and honours ctx between them: a
// nil ctx means context.Background(), and cancellation is also checked
// up front.
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
