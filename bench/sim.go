package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"emprof"
	"emprof/internal/batch"
	"emprof/internal/cpu"
	"emprof/internal/em"
	"emprof/internal/mem"
	"emprof/internal/sim"
)

// specPrograms are the ten SPEC CPU2000 reproductions of the paper.
var specPrograms = []string{"ammp", "bzip2", "crafty", "equake", "gzip", "mcf", "parser", "twolf", "vortex", "vpr"}

// faultSpec impairs a capture the way a loose probe and a flaky receiver
// would: short dropouts, a few receiver gain steps and coupling drift, so
// the analyzers' quality monitor and resyncs run.
func faultSpec(seed uint64) emprof.FaultSpec {
	return emprof.FaultSpec{
		DropoutRate:    0.002,
		DropoutMeanLen: 16,
		GainStepsPerS:  1000,
		DriftDepth:     0.1,
		Seed:           seed,
	}
}

// simulate runs one acquisition. Without a tracer it is emprof.Simulate.
// With one it re-assembles Simulate from its parts so the core's run, the
// receiver's blocks and the job carry spans; the test suite and the traced
// run check that the capture stays bit-identical to Simulate's.
func simulate(tr *tracer, job span, dev emprof.Device, wl emprof.Workload, seed uint64) (*emprof.Capture, *cpu.Result, error) {
	if tr == nil {
		run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return run.Capture, run.Truth, nil
	}
	if err := dev.Validate(); err != nil {
		return nil, nil, err
	}
	ms, err := mem.NewSystem(dev.Mem, sim.NewRNG(seed^0x9e3779b97f4a7c15), false)
	if err != nil {
		return nil, nil, err
	}
	core, err := cpu.New(dev.CPU, ms)
	if err != nil {
		return nil, nil, err
	}
	rx, err := em.NewReceiver(em.ReceiverConfig{
		ClockHz:      dev.CPU.ClockHz,
		BandwidthHz:  dev.EM.DefaultBandwidthHz,
		ProbeGain:    dev.EM.ProbeGain,
		SNRdB:        dev.EM.SNRdB,
		DriftPeriodS: dev.EM.DriftPeriodS,
		DriftDepth:   dev.EM.DriftDepth,
		Seed:         seed,
	})
	if err != nil {
		return nil, nil, err
	}
	run := tr.start("cpu.run", job.Req, job.ID)
	core.AddSink(&timedSink{rx: rx, tr: tr, parent: run})
	truth, err := core.Run(wl)
	tr.finish(run)
	if err != nil {
		return nil, nil, err
	}
	fl := tr.start("em.receiver", job.Req, job.ID)
	rx.Flush()
	tr.finish(fl)
	tr.count("sim.cycles", float64(truth.Cycles))
	tr.count("sim.insts", float64(truth.Instructions))
	tr.count("sim.stall_cycles", float64(truth.FullStallCycles))
	c := rx.Capture()
	tr.count("sim.samples", float64(len(c.Samples)))
	return c, truth, nil
}

// timedSink times every block the core hands the receiver.
type timedSink struct {
	rx     *em.Receiver
	tr     *tracer
	parent span
}

func (s *timedSink) PushCycle(p float64) { s.rx.PushCycle(p) }

func (s *timedSink) PushBlock(ps []float64) {
	sp := s.tr.start("em.receiver", s.parent.Req, s.parent.ID)
	s.rx.PushBlock(ps)
	s.tr.finish(sp)
}

// captureJob describes one input capture a workload simulates at set-up.
type captureJob struct {
	device   string
	workload string
	scaleM   float64
	seed     uint64
	faults   bool
	// samples is the exact length the capture is cut to, so that the
	// work per operation does not change with the seed; scaleM must
	// simulate at least that many.
	samples int
}

// capIn is one input capture with its reference profile and ground truth.
type capIn struct {
	c   *emprof.Capture
	ref *emprof.Profile
	// trueStall is the simulator's count of LLC-miss stall cycles.
	trueStall float64
}

// simulateCaptures builds the input captures on a pool of two workers,
// injects faults where asked, cuts each to its length, and computes each
// reference profile with the batch analyzer.
func simulateCaptures(tr *tracer, jobs []captureJob) ([]capIn, error) {
	cfg := emprof.DefaultConfig()
	an, err := emprof.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runPool(tr, jobs, func(job captureJob, sp span) (capIn, error) {
		dev, err := emprof.DeviceByName(job.device)
		if err != nil {
			return capIn{}, err
		}
		wl, err := emprof.ParseWorkload(job.workload, job.scaleM, job.seed)
		if err != nil {
			return capIn{}, err
		}
		if tr != nil {
			tr.noteWorkload(job.workload, job.scaleM, job.seed)
		}
		c, truth, err := simulate(tr, sp, dev, wl, job.seed)
		if err != nil {
			return capIn{}, err
		}
		if job.faults {
			if c, _, err = emprof.InjectFaults(c, faultSpec(job.seed)); err != nil {
				return capIn{}, err
			}
		}
		if len(c.Samples) < job.samples {
			return capIn{}, fmt.Errorf("%s %s at ScaleM %g: %d samples, want at least %d", job.device, job.workload, job.scaleM, len(c.Samples), job.samples)
		}
		c = c.Slice(0, job.samples)
		ref, err := an.Run(context.Background(), c)
		if err != nil {
			return capIn{}, err
		}
		// Ground truth over the kept part of the run.
		end := float64(len(c.Samples)) * c.CyclesPerSample()
		var stalled float64
		for _, st := range truth.Stalls {
			if float64(st.End) <= end {
				stalled += float64(st.Stalled)
			}
		}
		return capIn{c: c, ref: ref, trueStall: stalled}, nil
	})
	return res, err
}

// parallelChunk is the parallel analyzer's default shard length. When a
// capture's last shard is shorter than one normalisation window, the
// parallel analyzer (emprof.WithWorkers) can score the final stall's
// Confidence differently from the batch analyzer (README.md, "Inputs the
// benchmark avoids"); every capture length here leaves a longer last
// shard.
const parallelChunk = 1 << 16

// runPool runs fn over jobs with two workers through the sweep pool
// (internal/batch). With a tracer the pool and each job carry spans.
func runPool[J, T any](tr *tracer, jobs []J, fn func(J, span) (T, error)) ([]T, error) {
	var pool span
	if tr != nil {
		pool = tr.start("batch.pool", 0, 0)
	}
	res, err := batch.Run(context.Background(), jobs, 2, func(_ context.Context, _ int, job J) (T, error) {
		if tr == nil {
			return fn(job, span{})
		}
		sp := tr.start("batch.job", pool.Req, pool.ID)
		defer tr.finish(sp)
		return fn(job, sp)
	})
	if tr != nil {
		tr.finish(pool)
	}
	if err != nil {
		return nil, err
	}
	out := make([]T, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}

// accuracyPct is the paper's stall accuracy summed over captures:
// 100 · (1 − Σ|detected − true| / Σ true) in stall cycles.
func accuracyPct(detected, truth []float64) float64 {
	var diff, sum float64
	for i := range truth {
		diff += math.Abs(detected[i] - truth[i])
		sum += truth[i]
	}
	return 100 * (1 - ratio(diff, sum))
}

func capsAccuracy(caps []capIn) float64 {
	det := make([]float64, len(caps))
	truth := make([]float64, len(caps))
	for i, c := range caps {
		det[i], truth[i] = c.ref.StallCycles, c.trueStall
	}
	return accuracyPct(det, truth)
}

// perturb changes one reference profile so that a correct output no longer
// matches it.
func perturb(p *emprof.Profile) {
	if len(p.Stalls) > 0 {
		p.Stalls[0].Cycles++
		return
	}
	p.Misses++
}

// simSweep is the offline simulate → capture → profile workload: the
// sweep runner over every SPEC program on two devices.
type simSweep struct {
	p    params
	jobs []emprof.SweepJob
	refs []sweepRef
	// an analyzes the traced sweeps' captures.
	an *emprof.Analyzer
	// caps keeps the traced run's captures for the layer replay; checked
	// marks the devices whose traced capture was compared with Simulate's.
	mu      sync.Mutex
	caps    []*emprof.Capture
	checked map[string]bool
}

type sweepRef struct {
	prof            *emprof.Profile
	cycles, stalled uint64
}

func newSimSweep(p params) bench { return &simSweep{p: p, checked: make(map[string]bool)} }

func (s *simSweep) setup(*tracer) error {
	devices := []string{"olimex", "samsung"}
	progs := specPrograms
	// Sweeps of about a quarter of a second give a few dozen per run.
	scale := 0.15
	if s.p.small {
		progs, scale = progs[:1], 0.1
	}
	for _, d := range devices {
		for _, prog := range progs {
			job := emprof.SweepJob{
				Device:   d,
				Workload: "spec:" + prog,
				ScaleM:   scale,
				Seed:     batch.MixSeed(s.p.seed, uint64(len(s.jobs))),
			}
			// The samsung half runs with impaired acquisition, so the sweep
			// exercises fault injection and the quality monitor too.
			if d == "samsung" {
				job.Faults = faultSpec(s.p.seed)
			}
			s.jobs = append(s.jobs, job)
		}
	}
	// References come from the public single-capture API, not the sweep.
	var err error
	if s.an, err = emprof.NewAnalyzer(emprof.DefaultConfig()); err != nil {
		return err
	}
	s.refs, err = runPool(nil, s.jobs, func(job emprof.SweepJob, _ span) (sweepRef, error) {
		c, truth, err := simulateJob(nil, span{}, job)
		if err != nil {
			return sweepRef{}, err
		}
		prof, err := s.an.Run(context.Background(), c)
		if err != nil {
			return sweepRef{}, err
		}
		return sweepRef{prof, truth.Cycles, truth.FullStallCycles}, nil
	})
	if err != nil {
		return err
	}
	// The longest jobs go first, so both workers stay busy to the end of
	// a sweep rather than one finishing a long job alone.
	order := make([]int, len(s.jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return s.refs[order[i]].cycles > s.refs[order[j]].cycles })
	jobs, refs := make([]emprof.SweepJob, len(order)), make([]sweepRef, len(order))
	for i, k := range order {
		jobs[i], refs[i] = s.jobs[k], s.refs[k]
	}
	s.jobs, s.refs = jobs, refs
	if s.p.corrupt {
		perturb(s.refs[0].prof)
	}
	return nil
}

// simulateJob simulates one sweep job and applies its faults exactly as the
// sweep runner does (fault seed remixed with the job's coordinates).
func simulateJob(tr *tracer, sp span, job emprof.SweepJob) (*emprof.Capture, *cpu.Result, error) {
	dev, err := emprof.DeviceByName(job.Device)
	if err != nil {
		return nil, nil, err
	}
	wl, err := emprof.ParseWorkload(job.Workload, job.ScaleM, job.Seed)
	if err != nil {
		return nil, nil, err
	}
	c, truth, err := simulate(tr, sp, dev, wl, job.Seed)
	if err != nil || !job.Faults.Enabled() {
		return c, truth, err
	}
	spec := job.Faults
	spec.Seed = batch.MixSeed(spec.Seed, job.Seed, batch.MixSeedString(job.Device), batch.MixSeedString(job.Workload))
	c, _, err = emprof.InjectFaults(c, spec)
	return c, truth, err
}

type jobOut struct {
	cycles  uint64
	failure string
}

// measure runs the whole job list again and again. Untraced, each sweep
// is one emprof.RunSweep call with two workers, timed and then checked job
// by job; traced, the same jobs run on a two-worker pool as the
// re-assembled simulation with spans plus the analyzer.
func (s *simSweep) measure(cal *calibrator, d time.Duration, tr *tracer) *phaseResult {
	return measureRounds(cal, d, func(until time.Time) *phaseResult {
		pr := newPhase()
		for first := true; first || time.Now().Before(until); first = false {
			if tr != nil {
				s.tracedSweep(tr, pr)
				continue
			}
			t0 := time.Now()
			res, err := emprof.RunSweep(context.Background(), s.jobs, emprof.SweepOptions{Workers: 2})
			pr.record("sweep", time.Since(t0))
			pr.ops += len(s.jobs)
			if err != nil {
				pr.fail("sweep: %v", err)
				continue
			}
			for i, r := range res {
				pr.units += float64(r.TrueCycles)
				job, ref := s.jobs[i], s.refs[i]
				switch {
				case r.Err != nil:
					pr.fail("%s %s: %v", job.Device, job.Workload, r.Err)
				case !reflect.DeepEqual(r.Profile, ref.prof) || r.TrueCycles != ref.cycles || r.TrueStallCycles != ref.stalled:
					pr.fail("%s %s: sweep result differs from the reference", job.Device, job.Workload)
				}
			}
		}
		return pr
	})
}

// tracedSweep runs every job once on a two-worker pool with spans.
func (s *simSweep) tracedSweep(tr *tracer, pr *phaseResult) {
	order := make([]int, len(s.jobs))
	for i := range order {
		order[i] = i
	}
	t0 := time.Now()
	outs, err := runPool(tr, order, func(i int, sp span) (jobOut, error) {
		return s.tracedJob(tr, sp, s.jobs[i], s.refs[i]), nil
	})
	pr.record("sweep", time.Since(t0))
	pr.ops += len(s.jobs)
	if err != nil {
		pr.fail("sweep pool: %v", err)
		return
	}
	for _, o := range outs {
		pr.units += float64(o.cycles)
		if o.failure != "" {
			pr.fail("%s", o.failure)
		}
	}
}

// tracedJob runs one job with spans: the simulation, the fault injection
// and the analysis. The first traced job of each device also runs the
// untraced emprof.Simulate and requires the captures to be bit-identical.
func (s *simSweep) tracedJob(tr *tracer, sp span, job emprof.SweepJob, ref sweepRef) jobOut {
	tr.noteWorkload(job.Workload, job.ScaleM, job.Seed)
	c, truth, err := simulateJob(tr, sp, job)
	if err != nil {
		return jobOut{failure: err.Error()}
	}
	as := tr.start("core.analyze", sp.Req, sp.ID)
	prof, err := s.an.Run(context.Background(), c)
	tr.finish(as)
	out := jobOut{cycles: truth.Cycles}
	switch {
	case err != nil:
		out.failure = err.Error()
	case !reflect.DeepEqual(prof, ref.prof):
		out.failure = fmt.Sprintf("%s %s: traced profile differs from the reference", job.Device, job.Workload)
	}
	s.mu.Lock()
	check := !s.checked[job.Device]
	s.checked[job.Device] = true
	if len(s.caps) < len(s.jobs) {
		s.caps = append(s.caps, c)
	}
	s.mu.Unlock()
	if check && out.failure == "" {
		if plain, _, err := simulateJob(nil, span{}, job); err != nil || !sameCapture(plain, c) {
			out.failure = fmt.Sprintf("%s %s: traced capture is not bit-identical to emprof.Simulate's (%v)", job.Device, job.Workload, err)
		}
	}
	return out
}

// sameCapture reports whether two captures are bit-identical.
func sameCapture(a, b *emprof.Capture) bool {
	if a.SampleRate != b.SampleRate || a.ClockHz != b.ClockHz || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i, x := range a.Samples {
		if math.Float64bits(x) != math.Float64bits(b.Samples[i]) {
			return false
		}
	}
	return true
}

func (s *simSweep) inputs() []*emprof.Capture { return s.caps }

func (s *simSweep) accuracyPct() float64 {
	det := make([]float64, len(s.refs))
	truth := make([]float64, len(s.refs))
	for i, r := range s.refs {
		det[i], truth[i] = r.prof.StallCycles, float64(r.stalled)
	}
	return accuracyPct(det, truth)
}

// ledger is per simulated cycle: instruction generation, the core, the
// receiver, and the analysis of the capture the cycles produced.
func (s *simSweep) ledger(l layerCosts) []ledgerRow {
	return []ledgerRow{
		{"workloads", l["workloads.ns_per_inst"] * l["sim.insts_per_cycle"]},
		{"cpu", l["cpu.self_ns_per_cycle"]},
		{"em.receiver", l["em.receiver_ns_per_cycle"]},
		{"core.batch", l["core.batch_ns_per_sample"] * l["sim.samples_per_cycle"]},
	}
}

func (s *simSweep) close() {}
