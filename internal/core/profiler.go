// Package core implements EMPROF itself (Section IV of the paper): given
// the magnitude of an EM side-channel signal captured around the processor
// clock frequency, it (1) normalises the signal against probe-position and
// supply-voltage effects by tracking a moving minimum and maximum of the
// magnitude, (2) identifies every significant dip whose duration exceeds a
// threshold chosen to be "significantly shorter than the LLC latency but
// significantly longer than typical on-chip latencies", and (3) reports
// each dip as one LLC-miss-induced stall with its measured duration in
// processor cycles. Refresh-coincident stalls (2–3 µs, Fig. 5) are
// classified separately, as the paper's reporting does.
package core

import (
	"fmt"

	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/trace"
)

// Config holds the profiler's tuning knobs. DefaultConfig returns the
// values used throughout the paper reproduction; the ablation benchmarks
// sweep them.
type Config struct {
	// NormWindowS is the moving min/max window, in seconds. It must be
	// much longer than any stall (so the minimum tracks the stall floor
	// without the maximum collapsing) and much shorter than supply-drift
	// periods (so normalisation tracks the drift).
	NormWindowS float64
	// EnterThreshold and ExitThreshold implement hysteresis on the
	// normalised magnitude: a dip begins when the signal falls below
	// EnterThreshold and ends when it rises above ExitThreshold.
	EnterThreshold float64
	ExitThreshold  float64
	// MinStallS is the minimum dip duration reported as an LLC-miss
	// stall.
	MinStallS float64
	// RefreshMinS is the duration at or above which a stall is classified
	// as refresh-coincident (the paper observes 2–3 µs for these).
	RefreshMinS float64
	// SmoothSamples applies a short moving average before detection to
	// suppress single-sample noise; 0 or 1 disables it.
	SmoothSamples int
	// MaxDipDepth is the deepest normalised value a dip must reach to be
	// reported. A fully-stalled core sits at the power floor (normalised
	// ≈ 0), while clusters of on-chip-latency stalls (LLC *hits*) only
	// reduce average activity part-way; depth separates the two even when
	// such a cluster lasts longer than MinStallS. It also reproduces the
	// paper's Fig. 12 low-bandwidth behaviour: at 20 MHz a short stall
	// spans under two samples, never reaches the floor after band-
	// limiting, and is therefore not detected.
	MaxDipDepth float64
	// MaxDipDepthLong and LongStallS relax the depth requirement for long
	// dips: acquisition noise can keep a dip's floor above MaxDipDepth,
	// but a dip that stays down for LongStallS or more cannot be an
	// on-chip-latency cluster, so a looser depth bound suffices.
	MaxDipDepthLong float64
	LongStallS      float64
	// MinRangeFrac guards normalisation in windows without genuine stall
	// contrast: when (max-min) < MinRangeFrac*max the sample is treated
	// as non-dipping. A fully-stalled core draws a small fraction of its
	// busy power, so windows containing a real stall always have a large
	// relative range; windows whose "range" is just busy-IPC ripple
	// (marker loops, cache-resident code) stay below the guard.
	MinRangeFrac float64
	// ProbeShiftRatio, when > 1, arms the position-adaptive resync: a
	// busy-level shift sustained beyond the stall ceiling whose ratio
	// exceeds this value (or falls below its inverse) re-seeds the
	// normalisation state, flagging the straddling half-window so a probe
	// bump costs one bounded resync instead of a run of phantom stalls.
	// It covers the band below the gain-step detector (ratio 2.5), where
	// a 1–2 mm probe bump lands. 0 (the default) disables the detector;
	// it is opt-in because workload phase changes legitimately move the
	// busy level by up to ~2.2×, so values that low trade spurious
	// resyncs on phase-heavy workloads for probe robustness. 1.4 works
	// well when the probe is expected to move.
	ProbeShiftRatio float64
}

// DefaultConfig returns the profiler configuration used for all paper
// experiments.
func DefaultConfig() Config {
	return Config{
		NormWindowS:     200e-6,
		EnterThreshold:  0.32,
		ExitThreshold:   0.42,
		MinStallS:       90e-9,
		RefreshMinS:     1.5e-6,
		SmoothSamples:   3,
		MaxDipDepth:     0.18,
		MaxDipDepthLong: 0.32,
		LongStallS:      170e-9,
		MinRangeFrac:    0.40,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NormWindowS <= 0 {
		return fmt.Errorf("core: norm window %v <= 0", c.NormWindowS)
	}
	if c.EnterThreshold <= 0 || c.EnterThreshold >= 1 {
		return fmt.Errorf("core: enter threshold %v out of (0,1)", c.EnterThreshold)
	}
	if c.ExitThreshold < c.EnterThreshold || c.ExitThreshold >= 1 {
		return fmt.Errorf("core: exit threshold %v invalid (enter=%v)", c.ExitThreshold, c.EnterThreshold)
	}
	if c.MinStallS < 0 || c.RefreshMinS < c.MinStallS {
		return fmt.Errorf("core: invalid duration thresholds min=%v refresh=%v", c.MinStallS, c.RefreshMinS)
	}
	if c.MaxDipDepth <= 0 || c.MaxDipDepth >= 1 {
		return fmt.Errorf("core: max dip depth %v out of (0,1)", c.MaxDipDepth)
	}
	if c.MaxDipDepthLong < c.MaxDipDepth || c.MaxDipDepthLong >= 1 {
		return fmt.Errorf("core: long-dip depth %v invalid (short=%v)", c.MaxDipDepthLong, c.MaxDipDepth)
	}
	if c.LongStallS < c.MinStallS {
		return fmt.Errorf("core: long-stall threshold %v below min stall %v", c.LongStallS, c.MinStallS)
	}
	if c.MinRangeFrac < 0 || c.MinRangeFrac >= 1 {
		return fmt.Errorf("core: min range fraction %v out of [0,1)", c.MinRangeFrac)
	}
	if c.ProbeShiftRatio != 0 && c.ProbeShiftRatio <= 1 {
		return fmt.Errorf("core: probe shift ratio %v invalid (0 disables, else > 1)", c.ProbeShiftRatio)
	}
	return nil
}

// Stall is one detected LLC-miss-induced processor stall.
type Stall struct {
	// StartSample and EndSample delimit the dip in the capture
	// (half-open).
	StartSample, EndSample int
	// StartS is the dip onset in seconds from the capture start.
	StartS float64
	// DurationS is the dip duration in seconds (Δt in the paper's
	// Fig. 1).
	DurationS float64
	// Cycles is DurationS × clock: the stall cost in processor cycles.
	Cycles float64
	// Depth is the minimum normalised magnitude inside the dip.
	Depth float64
	// Refresh is true for refresh-coincident stalls.
	Refresh bool
	// Confidence scores the detection in [0, 1] from the dip's depth
	// margin, the normalisation contrast (a local-SNR proxy) around it,
	// and its distance from the nearest detected acquisition impairment.
	// Clean, deep, well-contrasted dips score near 1.
	Confidence float64
}

// Profile is the outcome of analysing one capture.
type Profile struct {
	// Stalls lists every detected stall in time order. StallList carries
	// fast JSON codecs wire-compatible with a plain []Stall.
	Stalls StallList
	// Misses is the reported LLC miss count: one per non-refresh stall
	// (the paper counts refresh-coincident events separately).
	Misses int
	// RefreshStalls counts refresh-coincident events.
	RefreshStalls int
	// StallCycles is the summed cost of all stalls, in cycles.
	StallCycles float64
	// ExecCycles is the capture length in cycles.
	ExecCycles float64
	// SampleRate and ClockHz echo the capture metadata.
	SampleRate, ClockHz float64
	// Normalized optionally retains the normalised signal for debugging
	// and display experiments (set Analyzer.KeepNormalized).
	Normalized []float64
	// Quality aggregates the signal-quality monitor's findings: counts of
	// corrupt/dropped/clipped/burst samples, normalisation resyncs, and
	// dips aborted across impairments. Clean captures report Clean().
	Quality Quality
}

// MeanConfidence returns the mean per-stall confidence (1 when no stalls
// were detected, so a clean empty profile is not penalised).
func (p *Profile) MeanConfidence() float64 {
	if len(p.Stalls) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range p.Stalls {
		sum += s.Confidence
	}
	return sum / float64(len(p.Stalls))
}

// StallFraction returns stall cycles as a fraction of execution time —
// the "Miss Latency (%Total Time)" column of Table IV when multiplied by
// 100.
func (p *Profile) StallFraction() float64 {
	if p.ExecCycles == 0 {
		return 0
	}
	return p.StallCycles / p.ExecCycles
}

// AvgStallCycles returns the mean stall duration in cycles.
func (p *Profile) AvgStallCycles() float64 {
	if len(p.Stalls) == 0 {
		return 0
	}
	return p.StallCycles / float64(len(p.Stalls))
}

// LatencyHistogram bins stall durations (in cycles) into a histogram with
// the given range, reproducing Fig. 11.
func (p *Profile) LatencyHistogram(lo, hi float64, bins int) *dsp.Histogram {
	h := dsp.NewHistogram(lo, hi, bins)
	for _, s := range p.Stalls {
		h.Add(s.Cycles)
	}
	return h
}

// MissRateSeries returns the number of detected misses per time bin of
// binS seconds across the capture — the boot-profiling view of Fig. 13.
func (p *Profile) MissRateSeries(binS float64) []int {
	if binS <= 0 {
		panic("core: bin width must be positive")
	}
	durS := p.ExecCycles / p.ClockHz
	n := int(durS/binS) + 1
	out := make([]int, n)
	for _, s := range p.Stalls {
		b := int(s.StartS / binS)
		if b >= 0 && b < n {
			out[b]++
		}
	}
	return out
}

// StallsBetween returns the stalls whose onset lies in [loS, hiS) seconds.
func (p *Profile) StallsBetween(loS, hiS float64) []Stall {
	var out []Stall
	for _, s := range p.Stalls {
		if s.StartS >= loS && s.StartS < hiS {
			out = append(out, s)
		}
	}
	return out
}

// Analyzer applies EMPROF to captures.
type Analyzer struct {
	cfg Config
	// KeepNormalized retains the normalised signal in the Profile.
	KeepNormalized bool
	// Observer, when non-nil, receives one trace event per analyzer
	// decision (dip candidates, accepted/rejected stalls, resyncs,
	// quality flags, stage timings). Leaving it nil keeps the pipeline on
	// its original path: output is bit-identical and the per-sample hot
	// path allocation-free, and no clock is ever read. Observers never
	// influence the produced Profile. Profiles run concurrently with one
	// shared observer invoke it from several goroutines, so it must then
	// be safe for concurrent use (all sinks in internal/trace are).
	Observer trace.Observer
}

// NewAnalyzer returns an analyzer; it returns an error for invalid
// configurations.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{cfg: cfg}, nil
}

// MustNewAnalyzer is NewAnalyzer but panics on configuration errors.
func MustNewAnalyzer(cfg Config) *Analyzer {
	a, err := NewAnalyzer(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the analyzer configuration.
func (a *Analyzer) Config() Config { return a.cfg }

// Normalize maps the capture's magnitude into [0,1] against a moving
// minimum and maximum, compensating probe coupling and supply drift
// (Section IV: "EMPROF compensates for these effects by tracking a moving
// minimum and maximum of the signal's magnitude").
//
// The min/max windows are centred on each sample (implemented as trailing
// windows read with a half-window lead), so a dip is normalised against
// the busy level on both sides. The input is first passed through the
// signal-quality monitor, which sanitises corrupt and dropped samples and
// re-seeds the min/max state after gaps and gain discontinuities; on a
// clean capture the output is bit-identical to the unhardened pipeline.
// The series is the one Profile keeps with KeepNormalized.
func (a *Analyzer) Normalize(c *em.Capture) []float64 {
	b := *a
	b.KeepNormalized, b.Observer = true, nil
	return b.Profile(c).Normalized
}

// Profile runs the full EMPROF pipeline on a capture: quality monitoring,
// normalisation, and stall detection. It is the streaming engine run over
// the whole capture (engine.go), so its scratch memory is bounded however
// long the capture is.
func (a *Analyzer) Profile(c *em.Capture) *Profile {
	s := newStreamAnalyzer(a.cfg, c.SampleRate, c.ClockHz)
	if n := len(c.Samples); a.KeepNormalized && n > 0 {
		s.det.keep = true
		s.prof.Normalized = make([]float64, 0, n)
	}
	s.SetObserver(a.Observer)
	s.PushBlock(c.Samples)
	return s.Finalize()
}
