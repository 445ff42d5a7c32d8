// Quickstart: run the paper's engineered microbenchmark on the Olimex
// IoT-board model, capture its EM emanations, and let EMPROF count the
// LLC misses and account their stall time — all with zero code on, or
// contact with, the "profiled" system.
package main

import (
	"context"
	"fmt"
	"log"

	"emprof"
)

func main() {
	const tm, cm = 256, 8 // engineer 256 misses in groups of 8

	dev := emprof.DeviceOlimex()
	workload, err := emprof.Microbenchmark(tm, cm)
	if err != nil {
		log.Fatal(err)
	}

	// Simulate the device executing the workload while a near-field probe
	// records its emanations at the default 40 MHz bandwidth.
	run, err := emprof.Simulate(dev, workload, emprof.CaptureOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s (%s, %.3f GHz, %d KB LLC)\n",
		dev.Name, dev.CoreName, dev.CPU.ClockHz/1e9, dev.Mem.LLC.SizeBytes/1024)
	fmt.Printf("capture: %d samples at %.1f MHz (%.2f ms of execution)\n",
		len(run.Capture.Samples), run.Capture.SampleRate/1e6, run.Capture.Duration()*1e3)

	// Profile the whole capture.
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	prof, err := an.Run(context.Background(), run.Capture)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEMPROF report:\n")
	fmt.Printf("  LLC-miss stalls detected:   %d (engineered: %d)\n", len(prof.Stalls), tm)
	fmt.Printf("  refresh-coincident stalls:  %d\n", prof.RefreshStalls)
	fmt.Printf("  total stall time:           %.0f cycles (%.2f%% of execution)\n",
		prof.StallCycles, 100*prof.StallFraction())
	fmt.Printf("  average stall:              %.0f cycles (%.0f ns)\n",
		prof.AvgStallCycles(), prof.AvgStallCycles()/dev.CPU.ClockHz*1e9)

	// Compare against the simulator's ground truth, which a real probe
	// never needs but a reproduction can check.
	fmt.Printf("\nground truth: %d LLC misses, %d fully-stalled cycles\n",
		len(run.Truth.Misses), run.Truth.FullStallCycles)
	fmt.Printf("count accuracy vs engineered TM: %.2f%%\n", prof.CountAccuracy(tm).Percent)
}
