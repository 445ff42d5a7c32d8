package core

// TimeStages attaches a stage clock to s, as a traced batch run does, and
// returns a reader of the nanoseconds spent so far in the scan, min/max
// and detect stages.
func TimeStages(s *StreamAnalyzer) func() [3]int64 {
	s.clock = &stageClock{}
	return func() [3]int64 { return s.clock.ns }
}
