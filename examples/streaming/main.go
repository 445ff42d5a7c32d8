// Streaming profiles a long capture incrementally: samples are pushed as
// they "arrive" from the receiver and stalls are delivered live, in
// bounded memory — the acquisition mode the paper needed for SPEC runs
// that exceeded the spectrum analyzer's record length (§VI).
package main

import (
	"context"
	"fmt"
	"log"

	"emprof"
)

func main() {
	dev := emprof.DeviceOlimex()
	wl, err := emprof.SPECWorkload("parser", 2.0)
	if err != nil {
		log.Fatal(err)
	}
	run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	sa, err := emprof.NewStreamAnalyzer(emprof.DefaultConfig(),
		run.Capture.SampleRate, run.Capture.ClockHz)
	if err != nil {
		log.Fatal(err)
	}
	delivered := 0
	sa.OnStall = func(s emprof.Stall) {
		delivered++
		if delivered <= 5 {
			kind := "miss"
			if s.Refresh {
				kind = "refresh"
			}
			fmt.Printf("  live event %d: t=%8.1f µs, %4.0f cycles, %s\n",
				delivered, s.StartS*1e6, s.Cycles, kind)
		}
	}

	// Feed the capture in 4096-sample blocks, as a receiver's buffers
	// deliver it.
	for xs := run.Capture.Samples; len(xs) > 0; {
		n := min(len(xs), 4096)
		sa.PushBlock(xs[:n])
		xs = xs[n:]
	}
	prof := sa.Finalize()

	// Cross-check against the one-shot batch analysis.
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	batch, err := an.Run(context.Background(), run.Capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreaming: %d stalls (%d delivered live), %.2f%% stalled\n",
		len(prof.Stalls), delivered, 100*prof.StallFraction())
	fmt.Printf("batch:     %d stalls, %.2f%% stalled — identical pipeline, bounded memory\n",
		len(batch.Stalls), 100*batch.StallFraction())
}
