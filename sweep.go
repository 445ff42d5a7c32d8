package emprof

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"emprof/internal/batch"
)

// SweepJob is one cell of an experiment sweep: a device, a workload
// specification, a simulation seed, and optional acquisition settings.
// Jobs are self-contained — two sweeps over equal job lists produce
// identical results regardless of worker count or scheduling.
type SweepJob struct {
	// Device is a paper device name ("alcatel", "samsung", "olimex",
	// "sesc"; see DeviceByName).
	Device string
	// Workload uses the emsim specification syntax: "micro:TM:CM",
	// "spec:NAME", "boot", or "file:PATH.json" (see ParseWorkload).
	Workload string
	// ScaleM is the spec/boot instruction budget in millions (0 = 1).
	ScaleM float64
	// Seed drives the simulation; equal seeds give bit-identical runs.
	Seed uint64
	// BandwidthHz overrides the measurement bandwidth (0 = device
	// default), and NoiseFree disables probe noise and supply drift.
	BandwidthHz float64
	NoiseFree   bool
	// Probe displaces the processor probe from the reference placement
	// for this cell (the zero value is the reference).
	Probe ProbePosition
	// Faults, when enabled, impairs the capture before analysis. The
	// spec's Seed is remixed with the job's coordinates so every cell sees
	// distinct but reproducible fault patterns.
	Faults FaultSpec
}

// SweepGrid expands a device × workload × seed × bandwidth cross product
// into sweep jobs sharing the same scale, noise and fault settings.
type SweepGrid struct {
	Devices      []string
	Workloads    []string
	Seeds        []uint64
	BandwidthsHz []float64
	// ProbeOffsetsMM adds a probe-displacement dimension (innermost): each
	// offset places the probe that many millimetres from the reference
	// along the x axis. Empty means the reference placement only.
	ProbeOffsetsMM []float64
	ScaleM         float64
	NoiseFree      bool
	// Faults applies the same impairment template to every job (each with
	// a deterministically remixed seed); the zero value disables it.
	Faults FaultSpec
}

// Jobs expands the grid in deterministic order (devices outermost, then
// workloads, seeds, bandwidths). Empty dimensions are filled with the
// obvious defaults: all three physical devices, the paper microbenchmark,
// seed 1, and the device-default bandwidth.
func (g SweepGrid) Jobs() []SweepJob {
	bg := batch.Grid{
		Devices:      g.Devices,
		Workloads:    g.Workloads,
		Seeds:        g.Seeds,
		BandwidthsHz: g.BandwidthsHz,
	}
	if len(bg.Devices) == 0 {
		bg.Devices = []string{"alcatel", "samsung", "olimex"}
	}
	if len(bg.Workloads) == 0 {
		bg.Workloads = []string{"micro:256:8"}
	}
	if len(bg.Seeds) == 0 {
		bg.Seeds = []uint64{1}
	}
	offsets := g.ProbeOffsetsMM
	if len(offsets) == 0 {
		offsets = []float64{0}
	}
	pts := bg.Points()
	jobs := make([]SweepJob, 0, len(pts)*len(offsets))
	for _, p := range pts {
		for _, off := range offsets {
			jobs = append(jobs, SweepJob{
				Device:      p.Device,
				Workload:    p.Workload,
				ScaleM:      g.ScaleM,
				Seed:        p.Seed,
				BandwidthHz: p.BandwidthHz,
				NoiseFree:   g.NoiseFree,
				Probe:       ProbePosition{XMM: off},
				Faults:      g.Faults,
			})
		}
	}
	return jobs
}

// SweepResult is one sweep job's outcome. Err carries the job's own
// failure (bad device name, invalid workload, analysis error, or the
// cancellation error for jobs skipped after the context was cancelled);
// the remaining fields are valid only when Err is nil.
type SweepResult struct {
	// Index is the job's position in the input slice; results are always
	// returned in input order.
	Index int
	// Job echoes the executed job.
	Job SweepJob
	// Profile is the EMPROF analysis of the (possibly fault-impaired)
	// capture.
	Profile *Profile
	// TrueMisses, TrueStallCycles and TrueCycles are the simulator ground
	// truth, for accuracy accounting.
	TrueMisses      int
	TrueStallCycles uint64
	TrueCycles      uint64
	// FaultReport records what was injected (nil when the job's fault
	// spec is disabled).
	FaultReport *FaultReport
	// Err is the job's failure, nil on success.
	Err error
}

// SweepOptions tunes RunSweep.
type SweepOptions struct {
	// Workers bounds the number of jobs in flight; <= 0 uses
	// runtime.GOMAXPROCS(0). Results are identical for every setting.
	Workers int
	// Config overrides the profiler configuration (nil = DefaultConfig).
	Config *Config
}

// RunSweep executes the jobs concurrently on a bounded worker pool and
// returns their results in input order. Each job runs the full pipeline:
// simulate the workload on the device, optionally inject acquisition
// faults, and analyze the capture. Job failures are isolated — they are
// recorded per-result and never abort the sweep — and the whole sweep is
// deterministic: seeds come from the job specs, so worker count and
// completion order cannot change any result. Cancelling the context stops
// dispatching new jobs; already-running jobs finish, skipped jobs record
// ctx.Err(), and RunSweep returns it.
func RunSweep(ctx context.Context, jobs []SweepJob, opts SweepOptions) ([]SweepResult, error) {
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res, err := batch.Run(ctx, jobs, opts.Workers,
		func(ctx context.Context, i int, job SweepJob) (SweepResult, error) {
			return runSweepJob(ctx, job, cfg)
		})
	out := make([]SweepResult, len(res))
	for i, r := range res {
		out[i] = r.Value
		out[i].Index = i
		out[i].Job = jobs[i]
		if r.Err != nil {
			out[i].Err = r.Err
		}
	}
	return out, err
}

// runSweepJob executes one simulate→inject→analyze pipeline cell.
func runSweepJob(ctx context.Context, job SweepJob, cfg Config) (SweepResult, error) {
	var res SweepResult
	dev, err := DeviceByName(job.Device)
	if err != nil {
		return res, err
	}
	scale := job.ScaleM
	if scale <= 0 {
		scale = 1
	}
	wl, err := ParseWorkload(job.Workload, scale, job.Seed)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	run, err := Simulate(dev, wl, CaptureOptions{
		Seed:        job.Seed,
		BandwidthHz: job.BandwidthHz,
		NoiseFree:   job.NoiseFree,
		Probe:       job.Probe,
	})
	if err != nil {
		return res, err
	}
	capture := run.Capture
	if job.Faults.Enabled() {
		spec := job.Faults
		// Remix the fault seed with the job coordinates so every cell
		// sees distinct, reproducible, schedule-independent impairments.
		spec.Seed = batch.MixSeed(spec.Seed, job.Seed,
			batch.MixSeedString(job.Device), batch.MixSeedString(job.Workload))
		impaired, rep, err := InjectFaults(capture, spec)
		if err != nil {
			return res, err
		}
		capture = impaired
		res.FaultReport = rep
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	an, err := NewAnalyzer(cfg)
	if err != nil {
		return res, err
	}
	prof, err := an.Run(ctx, capture)
	if err != nil {
		return res, err
	}
	res.Profile = prof
	res.TrueMisses = len(run.Truth.Misses)
	res.TrueStallCycles = run.Truth.FullStallCycles
	res.TrueCycles = run.Truth.Cycles
	return res, nil
}

// ParseWorkload builds a workload from the specification syntax shared by
// the emsim command and the sweep runner:
//
//	micro:TM:CM   the Fig. 6 microbenchmark with TM misses in groups of CM
//	spec:NAME     a SPEC CPU2000 reproduction (scaleM insts in millions)
//	boot          the Fig. 13 boot sequence (scaleM, seed differentiates boots)
//	file:PATH     a JSON program description (see CustomWorkload)
func ParseWorkload(spec string, scaleM float64, seed uint64) (Workload, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "micro":
		if len(parts) != 3 {
			return nil, fmt.Errorf("micro workload needs micro:TM:CM, got %q", spec)
		}
		tm, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad TM: %w", err)
		}
		cm, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("bad CM: %w", err)
		}
		return Microbenchmark(tm, cm)
	case "spec":
		if len(parts) != 2 {
			return nil, fmt.Errorf("spec workload needs spec:NAME, got %q", spec)
		}
		return SPECWorkload(parts[1], scaleM)
	case "boot":
		return BootWorkload(scaleM, seed), nil
	case "file":
		if len(parts) != 2 {
			return nil, fmt.Errorf("file workload needs file:PATH, got %q", spec)
		}
		return LoadWorkload(parts[1])
	default:
		return nil, fmt.Errorf("unknown workload %q (micro:TM:CM, spec:NAME, boot, file:PATH)", spec)
	}
}
