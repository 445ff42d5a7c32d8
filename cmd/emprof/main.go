// Command emprof applies the EMPROF analysis to a recorded EM capture
// (acquired with emsim, or any capture in the same format) and reports the
// LLC-miss stalls it finds. Examples:
//
//	emprof -i run.cap
//	emprof -i run.cap -hist -rate
//	emprof -i run.cap -enter 0.3 -min-stall 120e-9
//	emprof -i run.cap -trace out.jsonl # record every analyzer decision
//
// The `top` subcommand watches a live emprofd daemon (or fleet router)
// instead of a capture file: it refreshes a table of the live sessions —
// or, with -session, one session's rolling profile windows — from the
// continuous-profiling endpoint:
//
//	emprof top -url http://localhost:7979
//	emprof top -url http://localhost:7979 -session 3f2a... -last 20
//	emprof top -once             # single frame, script/CI friendly
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"emprof"
	"emprof/internal/em"
	"emprof/internal/version"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	var (
		in       = flag.String("i", "capture.cap", "input capture file")
		enter    = flag.Float64("enter", 0, "override dip-entry threshold (0 = default)")
		exit     = flag.Float64("exit", 0, "override dip-exit threshold (0 = default)")
		minStall = flag.Float64("min-stall", 0, "override minimum stall duration in seconds (0 = default)")
		window   = flag.Float64("window", 0, "override normalisation window in seconds (0 = default)")
		hist     = flag.Bool("hist", false, "print the stall-latency histogram")
		rate     = flag.Bool("rate", false, "print the miss rate over time")
		events   = flag.Int("events", 0, "print the first N detected stalls")
		traceOut = flag.String("trace", "", "write the analyzer's decision trace (dip candidates, accepts, rejects, resyncs, stage timings) to this JSONL file")
		showVer  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Printf("emprof %s\n", version.Version)
		return
	}

	cap, err := em.LoadCapture(*in)
	if err != nil {
		fatal(err)
	}
	cfg := emprof.DefaultConfig()
	if *enter > 0 {
		cfg.EnterThreshold = *enter
	}
	if *exit > 0 {
		cfg.ExitThreshold = *exit
	}
	if *minStall > 0 {
		cfg.MinStallS = *minStall
		if cfg.LongStallS < cfg.MinStallS {
			cfg.LongStallS = cfg.MinStallS
		}
	}
	if *window > 0 {
		cfg.NormWindowS = *window
	}

	var opts []emprof.Option
	var rec *emprof.TraceJSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rec = emprof.NewTraceJSONL(f)
		opts = append(opts, emprof.WithObserver(rec))
	}
	an, err := emprof.NewAnalyzer(cfg, opts...)
	if err != nil {
		fatal(err)
	}
	prof, err := an.Run(context.Background(), cap)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
	}

	fmt.Printf("capture: %d samples at %.2f MHz, clock %.3f GHz, %.3f ms\n",
		len(cap.Samples), cap.SampleRate/1e6, cap.ClockHz/1e9, cap.Duration()*1e3)
	fmt.Printf("LLC misses (stall events):  %d\n", prof.Misses)
	fmt.Printf("refresh-coincident stalls:  %d\n", prof.RefreshStalls)
	fmt.Printf("total stall time:           %.0f cycles (%.2f%% of execution)\n",
		prof.StallCycles, 100*prof.StallFraction())
	if len(prof.Stalls) > 0 {
		fmt.Printf("average stall:              %.0f cycles (%.0f ns)\n",
			prof.AvgStallCycles(), prof.AvgStallCycles()/cap.ClockHz*1e9)
	}
	fmt.Printf("signal quality:             %s\n", prof.Quality)
	if len(prof.Stalls) > 0 {
		fmt.Printf("mean stall confidence:      %.2f\n", prof.MeanConfidence())
	}

	if *hist && len(prof.Stalls) > 0 {
		fmt.Println("\nstall-latency histogram (cycles):")
		h := prof.LatencyHistogram(0, 1600, 16)
		for i, c := range h.Counts {
			fmt.Printf("  %6.0f  %6d\n", h.BinCenter(i), c)
		}
		fmt.Printf("  tail >= 300 cycles: %.1f%%\n", 100*h.TailFraction(300))
	}
	if *rate {
		fmt.Println("\nmisses per time bin:")
		binS := cap.Duration() / 40
		if binS <= 0 {
			binS = 1e-3
		}
		for i, v := range prof.MissRateSeries(binS) {
			fmt.Printf("  %8.3f ms  %d\n", float64(i)*binS*1e3, v)
		}
	}
	for i, s := range prof.Stalls {
		if i >= *events {
			break
		}
		kind := "miss"
		if s.Refresh {
			kind = "refresh"
		}
		fmt.Printf("  stall %4d: t=%9.3f µs  Δt=%7.1f ns  %6.0f cycles  depth=%.2f  conf=%.2f  %s\n",
			i, s.StartS*1e6, s.DurationS*1e9, s.Cycles, s.Depth, s.Confidence, kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emprof:", err)
	os.Exit(1)
}
