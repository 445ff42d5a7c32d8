// Package perfsim models the baseline the paper uses to motivate EMPROF:
// counter-overflow sampling à la Linux perf on a small ARM core. The paper
// reports that counting LLC misses with perf for a microbenchmark
// engineered to produce exactly 1024 misses yielded an average of 32768
// reported misses with a standard deviation of 14543 (Section V) — the
// "observer effect" EMPROF exists to avoid.
//
// The model is mechanistic: every overflow interrupt runs a sampling
// handler whose own (cold) kernel data structures miss the LLC; those
// handler misses are themselves counted and advance the overflow counter,
// creating positive feedback that the kernel bounds only via interrupt
// throttling. The reported count is therefore dominated by
// (interrupt rate × handler misses), both of which vary strongly from run
// to run — reproducing both the inflation and the variance.
package perfsim

import (
	"fmt"
	"math"

	"emprof/internal/dsp"
	"emprof/internal/sim"
)

// Config parameterises the sampling profiler.
type Config struct {
	// OverflowPeriod is the counter value at which the PMU raises an
	// overflow interrupt (perf's sample period).
	OverflowPeriod int
	// HandlerMissMean / HandlerMissSigma describe the LLC misses the
	// sampling handler itself produces per interrupt (ring-buffer append,
	// stack, task metadata — cold on these small LLCs).
	HandlerMissMean  float64
	HandlerMissSigma float64
	// ThrottleRate is the kernel's maximum sampling-interrupt rate in
	// interrupts/second; ThrottleJitter is its run-to-run relative
	// variation (CPU frequency scaling, hrtimer slack, other interrupt
	// load).
	ThrottleRate   float64
	ThrottleJitter float64
	// TimerRateHz is the base timer-tick sampling unrelated to overflow.
	TimerRateHz float64
}

// DefaultConfig returns values calibrated so that a 1024-miss
// microbenchmark run of a few milliseconds reports on the order of the
// paper's 32768 ± 14543.
func DefaultConfig() Config {
	return Config{
		OverflowPeriod:   64,
		HandlerMissMean:  230,
		HandlerMissSigma: 70,
		ThrottleRate:     34_000,
		ThrottleJitter:   0.34,
		TimerRateHz:      4_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.OverflowPeriod < 1 {
		return fmt.Errorf("perfsim: overflow period %d < 1", c.OverflowPeriod)
	}
	if c.HandlerMissMean < 0 || c.HandlerMissSigma < 0 {
		return fmt.Errorf("perfsim: negative handler miss parameters")
	}
	if c.ThrottleRate <= 0 || c.ThrottleJitter < 0 || c.ThrottleJitter >= 1 {
		return fmt.Errorf("perfsim: bad throttle parameters")
	}
	if c.TimerRateHz < 0 {
		return fmt.Errorf("perfsim: negative timer rate")
	}
	return nil
}

// RunReport is one simulated profiling run.
type RunReport struct {
	// Reported is the LLC miss count perf would print.
	Reported int
	// TrueMisses is the application's own miss count.
	TrueMisses int
	// Interrupts is the number of sampling interrupts taken.
	Interrupts int
	// HandlerMisses is the total misses contributed by the handler.
	HandlerMisses int
	// DurationS is the (dilated) run duration: handler time is the
	// profiler's direct overhead on the target.
	DurationS float64
}

// Sampler simulates perf-style overflow sampling.
type Sampler struct {
	cfg Config
	rng *sim.RNG
}

// NewSampler returns a sampler; rng drives run-to-run variation.
func NewSampler(cfg Config, rng *sim.RNG) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("perfsim: nil RNG")
	}
	return &Sampler{cfg: cfg, rng: rng}, nil
}

// MustNewSampler is NewSampler but panics on configuration errors.
func MustNewSampler(cfg Config, rng *sim.RNG) *Sampler {
	s, err := NewSampler(cfg, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Profile simulates one perf run over an application with the given true
// LLC miss count and uninstrumented duration. handlerCostS is the handler
// execution time per interrupt (defaulted when zero).
func (s *Sampler) Profile(trueMisses int, durationS float64) RunReport {
	cfg := s.cfg
	r := s.rng

	// Effective throttled interrupt rate for this run.
	rate := cfg.ThrottleRate * (1 + cfg.ThrottleJitter*r.NormFloat64())
	if rate < cfg.TimerRateHz {
		rate = cfg.TimerRateHz
	}

	// Feedback: each interrupt's handler misses advance the overflow
	// counter by ~handlerMiss/OverflowPeriod further interrupts. The
	// un-throttled demand rate is the fixed point of
	//   demand = (appMissRate + demand × h) / T
	// which diverges when h > T — exactly why the kernel throttles.
	h := cfg.HandlerMissMean
	T := float64(cfg.OverflowPeriod)
	appRate := float64(trueMisses) / durationS / T // overflow interrupts/s from app misses alone
	demand := appRate
	if h < T {
		demand = appRate / (1 - h/T)
	} else {
		demand = math.Inf(1)
	}
	intRate := demand
	if intRate > rate {
		intRate = rate
	}
	intRate += cfg.TimerRateHz

	// Handler time dilates the run; interrupts keep firing during the
	// dilated portion too (the handler's own misses re-trigger overflow).
	const handlerCostS = 6e-6
	dur := durationS
	for i := 0; i < 4; i++ { // fixed-point iteration on dilation
		dur = durationS + intRate*dur*handlerCostS
	}

	n := int(intRate * dur)
	if n < 0 {
		n = 0
	}
	handlerTotal := 0
	for i := 0; i < n; i++ {
		m := cfg.HandlerMissMean + cfg.HandlerMissSigma*r.NormFloat64()
		if m < 0 {
			m = 0
		}
		handlerTotal += int(m)
	}
	return RunReport{
		Reported:      trueMisses + handlerTotal,
		TrueMisses:    trueMisses,
		Interrupts:    n,
		HandlerMisses: handlerTotal,
		DurationS:     dur,
	}
}

// Study summarises repeated runs, as the paper's mean ± stddev.
type Study struct {
	Runs    []RunReport
	Summary dsp.Summary
}

// Repeat performs n independent profiling runs and summarises the
// reported counts.
func (s *Sampler) Repeat(n, trueMisses int, durationS float64) Study {
	st := Study{Runs: make([]RunReport, 0, n)}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rep := s.Profile(trueMisses, durationS)
		st.Runs = append(st.Runs, rep)
		xs = append(xs, float64(rep.Reported))
	}
	st.Summary = dsp.Summarize(xs)
	return st
}
