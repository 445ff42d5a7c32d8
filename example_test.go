package emprof_test

import (
	"context"
	"fmt"
	"log"

	"emprof"
)

// Example profiles the paper's engineered microbenchmark on the Olimex
// IoT-board model and checks EMPROF's count against the engineered miss
// count — the repository's headline result.
func Example() {
	const tm = 256
	w, err := emprof.Microbenchmark(tm, 8)
	if err != nil {
		log.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	prof, err := an.Run(context.Background(), run.Capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count accuracy >= 98%:", prof.CountAccuracy(tm).Percent >= 98)
	// Output: count accuracy >= 98%: true
}

// ExampleAnalyzer_Stream shows that the bounded-memory streaming profiler,
// fed the capture in receiver-sized blocks, produces the same result as
// analysing the whole capture at once.
func ExampleAnalyzer_Stream() {
	w, err := emprof.Microbenchmark(64, 8)
	if err != nil {
		log.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	batch, err := an.Run(context.Background(), run.Capture)
	if err != nil {
		log.Fatal(err)
	}
	s, err := an.Stream(run.Capture.SampleRate, run.Capture.ClockHz)
	if err != nil {
		log.Fatal(err)
	}
	for xs := run.Capture.Samples; len(xs) > 0; {
		n := min(len(xs), 4096)
		s.PushBlock(xs[:n])
		xs = xs[n:]
	}
	stream := s.Finalize()
	fmt.Println("stream matches batch:", len(stream.Stalls) == len(batch.Stalls))
	// Output: stream matches batch: true
}

// ExampleNewAnalyzer shows the options-based analyzer API: an observer
// attached at construction traces every detection decision the profiler
// makes.
func ExampleNewAnalyzer() {
	w, err := emprof.Microbenchmark(64, 8)
	if err != nil {
		log.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// A metrics observer aggregates the analyzer's decisions as it runs.
	m := emprof.NewTraceMetrics()
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig(), emprof.WithObserver(m))
	if err != nil {
		log.Fatal(err)
	}
	prof, err := an.Run(context.Background(), run.Capture)
	if err != nil {
		log.Fatal(err)
	}

	snap := m.Snapshot()
	var rejected uint64
	for _, n := range snap.Rejected {
		rejected += n
	}
	fmt.Println("every stall was traced:", int(snap.StallsAccepted) == len(prof.Stalls))
	fmt.Println("every dip was resolved:", snap.DipCandidates == snap.StallsAccepted+rejected)
	// Output:
	// every stall was traced: true
	// every dip was resolved: true
}

// ExampleCaptureOptions demonstrates sweeping the measurement bandwidth,
// the Fig. 12 experiment: at 20 MHz the receiver cannot resolve short
// stalls that 80 MHz sees clearly.
func ExampleCaptureOptions() {
	wl, err := emprof.SPECWorkload("mcf", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	run20, err := emprof.Simulate(emprof.DeviceAlcatel(), wl, emprof.CaptureOptions{Seed: 1, BandwidthHz: 20e6})
	if err != nil {
		log.Fatal(err)
	}
	wl2, _ := emprof.SPECWorkload("mcf", 0.5)
	run80, err := emprof.Simulate(emprof.DeviceAlcatel(), wl2, emprof.CaptureOptions{Seed: 1, BandwidthHz: 80e6})
	if err != nil {
		log.Fatal(err)
	}
	an, _ := emprof.NewAnalyzer(emprof.DefaultConfig())
	p20, _ := an.Run(context.Background(), run20.Capture)
	p80, _ := an.Run(context.Background(), run80.Capture)
	fmt.Println("20 MHz misses stalls that 80 MHz sees:", len(p20.Stalls) < len(p80.Stalls))
	// Output: 20 MHz misses stalls that 80 MHz sees: true
}
