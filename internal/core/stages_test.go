package core_test

import (
	"testing"

	"emprof"
	"emprof/internal/core"
)

// BenchmarkEngineStages splits the engine's cost into its stages with the
// engine's own stage clock: the quality monitor, the smoother, min/max
// (the moving extremum kernel) and detect, each in ns per raw sample. The
// input is an analyze-batch-shaped capture: 131,072 samples of an
// impaired samsung SPEC run (dropouts, gain steps, coupling drift), pushed
// whole once per iteration into one long-lived stream, so the steady
// state allocates nothing.
//
//	go test ./internal/core -run '^$' -bench EngineStages -benchtime 200x
func BenchmarkEngineStages(b *testing.B) {
	g := goldenCase{
		device: "samsung", workload: "spec:gzip", scaleM: 2.5, seed: 1,
		faults: &emprof.FaultSpec{DropoutRate: 0.002, DropoutMeanLen: 16, GainStepsPerS: 1000, DriftDepth: 0.1, Seed: 1},
	}
	const n = 1 << 17
	c := g.capture(b)
	if len(c.Samples) < n {
		b.Fatalf("capture has %d samples, want %d", len(c.Samples), n)
	}
	xs := c.Samples[:n]
	s, err := core.NewStreamAnalyzer(g.config(), c.SampleRate, c.ClockHz)
	if err != nil {
		b.Fatal(err)
	}
	s.PushBlock(xs) // warm the scratch lanes and queues
	stages := core.TimeStages(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PushBlock(xs)
	}
	b.StopTimer()
	ns := stages()
	per := float64(b.N) * n
	b.ReportMetric(float64(ns[0])/per, "monitor-ns/sample")
	b.ReportMetric(float64(ns[1])/per, "smooth-ns/sample")
	b.ReportMetric(float64(ns[2])/per, "minmax-ns/sample")
	b.ReportMetric(float64(ns[3])/per, "detect-ns/sample")
	b.ReportMetric(0, "ns/op")
}
