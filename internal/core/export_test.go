package core

// TimeStages attaches a stage clock to s, as a traced batch run does, and
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
