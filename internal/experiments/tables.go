package experiments

import (
	"fmt"
	"io"

	"emprof"
	"emprof/internal/core"
	"emprof/internal/device"
	"emprof/internal/perfsim"
	"emprof/internal/sim"
	"emprof/internal/workloads"
)

// Table1 renders the device specifications (paper Table I).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table I: specifications of experimental devices")
	rule(w, 72)
	fmt.Fprintf(w, "%-12s %-28s %-10s %-6s %s\n", "Device", "Processor", "Frequency", "#Cores", "ARM Core")
	for _, d := range device.All() {
		fmt.Fprintf(w, "%-12s %-28s %-10s %-6d %s\n",
			d.Name, d.SoC, fmt.Sprintf("%.3g GHz", d.CPU.ClockHz/1e9), d.Cores, d.CoreName)
	}
}

// Table2Row is one cell grid row of Table II.
type Table2Row struct {
	TM, CM int
	// AccuracyPct is EMPROF's miss-count accuracy per device, in the
	// paper's column order (Alcatel, Samsung, Olimex).
	AccuracyPct [3]float64
	// Detected is the raw detected count per device.
	Detected [3]int
}

// Table2 is the microbenchmark count-accuracy experiment on the three
// physical-device models (paper Table II; paper average 99.52%).
type Table2 struct {
	Rows    []Table2Row
	Devices [3]string
	// AveragePct is the grand mean accuracy.
	AveragePct float64
}

// RunTable2 reproduces Table II: for each (TM, CM) and device, run the
// Fig. 6 microbenchmark through the full EM chain, isolate the engineered
// miss section, and compare EMPROF's count to TM.
func RunTable2(o Options) (*Table2, error) {
	o = o.withDefaults()
	t := &Table2{}
	devs := device.All()
	for i, d := range devs {
		t.Devices[i] = d.Name
	}
	sum, n := 0.0, 0
	for _, mp := range o.microGrid() {
		row := Table2Row{TM: mp.TM, CM: mp.CM}
		for i, d := range devs {
			_, slice, err := simulateMicro(d, mp, emprof.CaptureOptions{Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			prof := analyze(slice)
			row.Detected[i] = len(prof.Stalls)
			row.AccuracyPct[i] = prof.CountAccuracy(mp.TM).Percent
			sum += row.AccuracyPct[i]
			n++
		}
		t.Rows = append(t.Rows, row)
	}
	if n > 0 {
		t.AveragePct = sum / float64(n)
	}
	return t, nil
}

// Render writes the table.
func (t *Table2) Render(w io.Writer) {
	fmt.Fprintln(w, "Table II: EMPROF miss-count accuracy for microbenchmarks (full EM chain)")
	rule(w, 64)
	fmt.Fprintf(w, "%-6s %-6s %10s %10s %10s\n", "#TM", "#CM", t.Devices[0], t.Devices[1], t.Devices[2])
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-6d %-6d %9.2f%% %9.2f%% %9.2f%%\n",
			r.TM, r.CM, r.AccuracyPct[0], r.AccuracyPct[1], r.AccuracyPct[2])
	}
	rule(w, 64)
	fmt.Fprintf(w, "average accuracy: %.2f%% (paper: 99.52%%)\n", t.AveragePct)
}

// Table3Row is one benchmark row of Table III.
type Table3Row struct {
	Name     string
	MissPct  float64
	StallPct float64
	// Detected/TrueEvents and DetectedCycles/TrueCycles are the raw
	// quantities behind the accuracies.
	Detected, TrueEvents       int
	DetectedCycles, TrueCycles float64
}

// Table3 is the cycle-accurate-simulator validation (paper Table III):
// EMPROF applied to the noise-free power-proxy signal versus simulator
// ground truth.
type Table3 struct {
	Micro []Table3Row
	SPEC  []Table3Row
}

// RunTable3 reproduces Table III on the SESC-style device: the signal is
// the simulator's own power trace (one sample per 20 cycles, 50 MHz at
// 1 GHz) and the ground truth is the simulator's stall-interval record.
func RunTable3(o Options) (*Table3, error) {
	o = o.withDefaults()
	dev := device.SESC()
	t := &Table3{}

	for _, mp := range o.microGrid() {
		run, slice, err := simulateMicro(dev, mp, emprof.CaptureOptions{
			Seed: o.Seed, NoiseFree: true, BandwidthHz: 50e6,
		})
		if err != nil {
			return nil, err
		}
		prof := analyze(slice)
		lo, hi, _ := run.RegionWindow(workloads.RegionMisses)
		row := scoreRegion(prof, run, lo, hi)
		row.Name = fmt.Sprintf("TM=%d CM=%d", mp.TM, mp.CM)
		t.Micro = append(t.Micro, row)
	}

	for _, name := range o.specNames() {
		wl, err := emprof.SPECWorkload(name, o.Scale)
		if err != nil {
			return nil, err
		}
		run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{
			Seed: o.Seed, NoiseFree: true, BandwidthHz: 50e6,
		})
		if err != nil {
			return nil, err
		}
		prof := analyze(run.Capture)
		row := scoreRegion(prof, run, 0, run.Truth.Cycles)
		row.Name = name
		t.SPEC = append(t.SPEC, row)
	}
	return t, nil
}

// scoreRegion validates a profile against the ground truth of cycles
// [lo, hi): the profile's sample positions are relative to lo, so the
// ground-truth intervals are shifted to it before matching. A whole run
// is the region from 0.
func scoreRegion(prof *core.Profile, run *emprof.Run, lo, hi uint64) Table3Row {
	truth := mergedTruthBetween(run, lo, hi)
	rel := truth[:0:0]
	for _, s := range truth {
		s.Start -= lo
		s.End -= lo
		rel = append(rel, s)
	}
	v := prof.ValidateAgainst(rel)
	return Table3Row{
		MissPct:        v.MissCount.Percent,
		StallPct:       v.StallCycles.Percent,
		Detected:       int(v.MissCount.Detected),
		TrueEvents:     int(v.MissCount.Actual),
		DetectedCycles: v.StallCycles.Detected,
		TrueCycles:     v.StallCycles.Actual,
	}
}

// Render writes the table.
func (t *Table3) Render(w io.Writer) {
	fmt.Fprintln(w, "Table III: EMPROF accuracy on simulator (power-proxy) data")
	rule(w, 66)
	fmt.Fprintf(w, "%-14s %16s %16s\n", "Benchmark", "Miss Accuracy(%)", "Stall Accuracy(%)")
	fmt.Fprintln(w, "Microbenchmark")
	for _, r := range t.Micro {
		fmt.Fprintf(w, "%-14s %15.1f%% %15.1f%%\n", r.Name, r.MissPct, r.StallPct)
	}
	fmt.Fprintln(w, "SPEC CPU2000")
	for _, r := range t.SPEC {
		fmt.Fprintf(w, "%-14s %15.1f%% %15.1f%%\n", r.Name, r.MissPct, r.StallPct)
	}
}

// Table4Row is one benchmark row of Table IV.
type Table4Row struct {
	Name string
	// Misses and LatencyPct are per device in paper column order
	// (Alcatel, Samsung, Olimex).
	Misses     [3]int
	LatencyPct [3]float64
}

// Table4 is the headline profiling result (paper Table IV): total LLC
// misses reported by EMPROF and miss latency as a percentage of execution
// time, per benchmark per device.
type Table4 struct {
	Devices [3]string
	Micro   []Table4Row
	SPEC    []Table4Row
	Average Table4Row
}

// RunTable4 reproduces Table IV through the full EM chain on all three
// device models.
func RunTable4(o Options) (*Table4, error) {
	o = o.withDefaults()
	devs := device.All()
	t := &Table4{}
	for i, d := range devs {
		t.Devices[i] = d.Name
	}

	for _, mp := range o.microGrid() {
		row := Table4Row{Name: fmt.Sprintf("TM=%d CM=%d", mp.TM, mp.CM)}
		for i, d := range devs {
			run, slice, err := simulateMicro(d, mp, emprof.CaptureOptions{Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			prof := analyze(slice)
			whole := analyze(run.Capture)
			row.Misses[i] = len(prof.Stalls)
			row.LatencyPct[i] = 100 * whole.StallFraction()
		}
		t.Micro = append(t.Micro, row)
	}

	var sums Table4Row
	n := 0
	for _, name := range o.specNames() {
		row := Table4Row{Name: name}
		for i, d := range devs {
			wl, err := emprof.SPECWorkload(name, o.Scale)
			if err != nil {
				return nil, err
			}
			run, err := emprof.Simulate(d, wl, emprof.CaptureOptions{Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			prof := analyze(run.Capture)
			row.Misses[i] = len(prof.Stalls)
			row.LatencyPct[i] = 100 * prof.StallFraction()
			sums.Misses[i] += row.Misses[i]
			sums.LatencyPct[i] += row.LatencyPct[i]
		}
		n++
		t.SPEC = append(t.SPEC, row)
	}
	if n > 0 {
		t.Average.Name = "Average"
		for i := range sums.Misses {
			t.Average.Misses[i] = sums.Misses[i] / n
			t.Average.LatencyPct[i] = sums.LatencyPct[i] / float64(n)
		}
	}
	return t, nil
}

// Render writes the table.
func (t *Table4) Render(w io.Writer) {
	fmt.Fprintln(w, "Table IV: total LLC misses and miss latency (% total time), from EMPROF")
	rule(w, 88)
	fmt.Fprintf(w, "%-14s | %8s %8s %8s | %8s %8s %8s\n", "Benchmark",
		t.Devices[0], t.Devices[1], t.Devices[2], t.Devices[0], t.Devices[1], t.Devices[2])
	fmt.Fprintf(w, "%-14s | %26s | %26s\n", "", "Total LLC Misses", "Miss Latency (%Time)")
	rule(w, 88)
	rows := append(append([]Table4Row{}, t.Micro...), t.SPEC...)
	rows = append(rows, t.Average)
	for _, r := range rows {
		if r.Name == "" {
			continue
		}
		fmt.Fprintf(w, "%-14s | %8d %8d %8d | %8.2f %8.2f %8.2f\n", r.Name,
			r.Misses[0], r.Misses[1], r.Misses[2],
			r.LatencyPct[0], r.LatencyPct[1], r.LatencyPct[2])
	}
}

// Table5 is the parser code-attribution experiment (paper Table V +
// Fig. 14).
type Table5 struct {
	Regions []RegionRow
	// FrameAccuracy is the spectral segmentation's frame-level accuracy
	// against ground truth.
	FrameAccuracy float64
}

// RegionRow is one attributed function's statistics.
type RegionRow struct {
	Region            string
	Function          string
	TotalMiss         int
	MissRatePerMcycle float64
	StallPct          float64
	AvgLatency        float64
}

// RunTable5 reproduces Table V: train spectral signatures on one parser
// run, attribute a second run's signal, and join EMPROF's stalls with the
// segmentation.
func RunTable5(o Options) (*Table5, error) {
	o = o.withDefaults()
	res, err := RunAttribution(o)
	if err != nil {
		return nil, err
	}
	t := &Table5{FrameAccuracy: res.Segmentation.FrameAccuracy}
	labels := []string{"A", "B", "C"}
	for i, rep := range res.Reports {
		lbl := "?"
		if i < len(labels) {
			lbl = labels[i]
		}
		t.Regions = append(t.Regions, RegionRow{
			Region:            lbl,
			Function:          rep.Name,
			TotalMiss:         rep.Misses,
			MissRatePerMcycle: rep.MissRatePerMcycle,
			StallPct:          rep.StallPct,
			AvgLatency:        rep.AvgMissLatency,
		})
	}
	return t, nil
}

// Render writes the table.
func (t *Table5) Render(w io.Writer) {
	fmt.Fprintln(w, "Table V: EMPROF results with spectral code attribution (parser)")
	rule(w, 96)
	fmt.Fprintf(w, "%-7s %-16s %10s %22s %18s %20s\n",
		"Region", "Function", "Total Miss", "Miss Rate(/Mcycles)", "Mem Stall (%)", "Avg Latency (cyc)")
	for _, r := range t.Regions {
		fmt.Fprintf(w, "%-7s %-16s %10d %22.2f %18.2f %20.2f\n",
			r.Region, r.Function, r.TotalMiss, r.MissRatePerMcycle, r.StallPct, r.AvgLatency)
	}
	rule(w, 96)
	fmt.Fprintf(w, "spectral segmentation frame accuracy: %.1f%%\n", 100*t.FrameAccuracy)
}

// PerfBaseline is the Section V perf-counter motivation study.
type PerfBaseline struct {
	TrueMisses int
	// Mean and StdDev summarise the reported counts over Runs runs
	// (paper: 32768 mean, 14543 stddev for 1024 true misses).
	Mean, StdDev float64
	Runs         int
	// MechanisticReported is the miss count from actually executing a
	// handler-instrumented run on the device simulator; Dilation is the
	// execution-time inflation it caused.
	MechanisticReported int
	MechanisticTrue     int
	Dilation            float64
}

// RunPerfBaseline reproduces the perf observation: an engineered
// 1024-miss microbenchmark whose perf-reported miss counts are wildly
// inflated and unstable, plus a mechanistic handler-injection run showing
// the observer effect on the device model itself.
func RunPerfBaseline(o Options) (*PerfBaseline, error) {
	o = o.withDefaults()
	tm := 1024
	if o.Quick {
		tm = 256
	}
	dev := device.Olimex()

	// Reference (unprofiled) run for true miss count and duration.
	mp := workloads.DefaultMicroParams(tm, 10)
	run, _, err := simulateMicro(dev, mp, emprof.CaptureOptions{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	trueMisses := len(run.Truth.Misses)
	durS := dev.Seconds(run.Truth.Cycles)

	nRuns := 20
	if o.Quick {
		nRuns = 5
	}
	sampler := perfsim.MustNewSampler(perfsim.DefaultConfig(), sim.NewRNG(o.Seed))
	study := sampler.Repeat(nRuns, trueMisses, durS)

	// Mechanistic run: inject sampling-handler bursts into the same
	// workload and execute it on the device model.
	wl, err := workloads.Microbenchmark(mp)
	if err != nil {
		return nil, err
	}
	iopts := perfsim.DefaultInstrumentOptions()
	iopts.EveryInsts = 60_000
	inst := perfsim.NewInstrumentedStream(wl, iopts)
	irun, err := emprof.Simulate(dev, inst, emprof.CaptureOptions{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	return &PerfBaseline{
		TrueMisses:          trueMisses,
		Mean:                study.Summary.Mean,
		StdDev:              study.Summary.StdDev,
		Runs:                nRuns,
		MechanisticReported: len(irun.Truth.Misses),
		MechanisticTrue:     trueMisses,
		Dilation:            float64(irun.Truth.Cycles) / float64(run.Truth.Cycles),
	}, nil
}

// Render writes the study.
func (p *PerfBaseline) Render(w io.Writer) {
	fmt.Fprintln(w, "perf-counter baseline (paper Section V):")
	fmt.Fprintf(w, "  engineered misses:            %d\n", p.TrueMisses)
	fmt.Fprintf(w, "  perf-reported over %d runs:   mean=%.0f stddev=%.0f (paper: 32768 / 14543)\n",
		p.Runs, p.Mean, p.StdDev)
	fmt.Fprintf(w, "  mechanistic handler-injected run: counted misses=%d (true %d), exec dilation=%.2fx\n",
		p.MechanisticReported, p.MechanisticTrue, p.Dilation)
}
