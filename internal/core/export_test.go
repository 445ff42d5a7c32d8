package core

import "emprof/internal/em"

// TimeStages attaches a stage clock to s, as SetObserver does, and
// returns a reader of the nanoseconds spent so far in the monitor,
// smooth, min/max and detect stages.
func TimeStages(s *StreamAnalyzer) func() [numStages]int64 {
	s.clock = &stageClock{}
	return func() [numStages]int64 { return s.clock.ns }
}

// SettledShare runs a fresh monitor for cfg and sampleRate over xs the way
// processBlock does, alternating the settled fast run with the general
// step, and returns the share of samples the fast run committed.
func SettledShare(cfg Config, sampleRate float64, xs []float64) float64 {
	m := newMonitor(cfg, sampleRate)
	san := make([]float64, len(xs))
	flags := make([]qflag, len(xs))
	fast := 0
	for i := 0; i < len(xs); {
		n := m.settledRun(xs[i:], san[i:], flags[i:])
		fast += n
		i += n
		if i < len(xs) {
			i = m.generalRun(xs, san, flags, i, func(int, qflag) bool { return false }, func(int) {})
		}
	}
	return float64(fast) / float64(max(len(xs), 1))
}

// DecideShare decides the positions of capture c under cfg the way
// detector.run does, alternating the fast run with step over one span,
// and returns the share of positions the fast run decided. The values,
// flags and stats come from the oracle pipeline, which every composition
// matches bit for bit.
func DecideShare(cfg Config, c *em.Capture) float64 {
	n := len(c.Samples)
	mon := newOracleMonitor(cfg, c.SampleRate)
	san, mask, resyncs := mon.scan(c.Samples)
	x, _, mins, maxs, half := oracleNormalize(cfg, c.SampleRate, san, resyncs)
	if mask == nil {
		mask = make([]qflag, n)
	}
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range lo {
		j := min(i+half, n-1)
		lo[i], hi[i] = mins[j], maxs[j]
	}
	d := newDetector(cfg, c.SampleRate, c.ClockHz, half, &Profile{}, &Quality{}, nil)
	fast := 0
	for i := 0; i < n; {
		k := d.fastRun(x[i:], mask[i:], lo[i:], hi[i:])
		fast += k
		i += k
		if i < n {
			d.step(int64(i), x[i], mask[i], lo[i], hi[i])
			i++
		}
	}
	return float64(fast) / float64(max(n, 1))
}
