// Bootprofile demonstrates EMPROF's signature capability (paper Fig. 13):
// profiling a device's boot sequence, where no conventional profiler can
// run — the performance counters are not yet initialised and there is
// nowhere to store profiling data. The probe needs nothing from the
// target; it just listens from power-on.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"emprof"
)

func main() {
	dev := emprof.DeviceOlimex()
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	for boot := 0; boot < 2; boot++ {
		wl := emprof.BootWorkload(2.0, uint64(boot)*31+1)
		run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: uint64(boot) + 1})
		if err != nil {
			log.Fatal(err)
		}
		prof, err := an.Run(context.Background(), run.Capture)
		if err != nil {
			log.Fatal(err)
		}

		binS := run.Capture.Duration() / 50
		series := prof.MissRateSeries(binS)
		peak := 0
		for _, v := range series {
			if v > peak {
				peak = v
			}
		}
		fmt.Printf("boot %d: %.2f ms, %d LLC-miss stalls, %.2f%% of time stalled\n",
			boot+1, run.Capture.Duration()*1e3, len(prof.Stalls), 100*prof.StallFraction())
		fmt.Printf("  miss rate over time (bins of %.0f µs, peak %d):\n", binS*1e6, peak)
		for i, v := range series {
			bar := strings.Repeat("#", v*50/max(peak, 1))
			fmt.Printf("  %6.2f ms |%s\n", float64(i)*binS*1e3, bar)
		}
		fmt.Println()
	}
	fmt.Println("the early loader/decompress phases dominate the miss rate — a")
	fmt.Println("memory-locality optimisation there would speed up boot (paper §VI-C).")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
