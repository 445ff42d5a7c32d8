// Package emprof is an end-to-end reproduction of EMPROF (Dey, Nazari,
// Zajic, Prvulovic — "EMPROF: Memory Profiling via EM-Emanation in IoT and
// Hand-Held Devices", MICRO 2018): a memory profiler that detects
// last-level-cache-miss-induced processor stalls purely from the magnitude
// of the device's electromagnetic emanations, with zero observer effect on
// the profiled system.
//
// Because the original work requires physical probes and spectrum
// analyzers, this package pairs the profiler with a full device simulation
// stack: a cycle-level in-order superscalar core with a two-level cache
// hierarchy, MSHRs, and refresh-accurate DRAM (internal/cpu, internal/mem),
// an EM acquisition chain that synthesizes what a near-field probe would
// record (internal/em), workload generators reproducing the paper's
// microbenchmark and SPEC CPU2000 memory behaviour (internal/workloads),
// and the profiler itself (internal/core). The typical flow is:
//
//	dev := emprof.DeviceOlimex()
//	w, _ := emprof.Microbenchmark(1024, 10)
//	run, _ := emprof.Simulate(dev, w, emprof.CaptureOptions{})
//	an, _ := emprof.NewAnalyzer(emprof.DefaultConfig())
//	prof, _ := an.Run(ctx, run.Capture)
//	fmt.Println(prof.Misses, prof.StallCycles)
package emprof

import (
	"emprof/internal/core"
	"emprof/internal/device"
	"emprof/internal/em"
	"emprof/internal/faults"
	"emprof/internal/sim"
	"emprof/internal/workloads"
)

// Capture is an acquired EM-signal magnitude trace with its sample rate
// and the profiled processor's clock frequency.
type Capture = em.Capture

// ProbePosition is a probe placement relative to the best-coupling
// reference point: lateral offset in millimetres plus loop-plane
// misalignment in degrees. The zero value is the reference placement
// (bit-identical to captures that predate the spatial model); see
// CaptureOptions.Probe and em.CouplingAt for the displacement physics.
type ProbePosition = em.ProbePosition

// Config tunes the profiler; see DefaultConfig.
type Config = core.Config

// Profile is the result of analysing a capture: the detected stalls, the
// reported miss count, and stall-time accounting.
type Profile = core.Profile

// Stall is one detected LLC-miss-induced stall.
type Stall = core.Stall

// Quality aggregates the profiler's signal-health findings for a capture:
// counts of corrupt, dropped, clipped and burst samples, normalisation
// resyncs after gaps or gain steps, and dips discarded across impairments.
// Available on every Profile as Profile.Quality.
type Quality = core.Quality

// FaultSpec selects and parameterises acquisition impairments to inject
// into a capture (dropouts, ADC clipping, receiver gain steps,
// probe-coupling drift, RF bursts, NaN corruption); see InjectFaults.
type FaultSpec = faults.Spec

// FaultReport is the ground-truth record of what InjectFaults did.
type FaultReport = faults.Report

// Device is a simulated profiling target (processor + memory system + EM
// acquisition path).
type Device = device.Device

// Workload is a dynamic instruction stream to execute on a device.
type Workload = sim.Stream

// DefaultConfig returns the profiler configuration used for all the
// paper's experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// DeviceAlcatel returns the Alcatel Ideal phone model (Cortex-A7,
// 1.1 GHz, 1 MB LLC).
func DeviceAlcatel() Device { return device.Alcatel() }

// DeviceSamsung returns the Samsung Galaxy Centura model (Cortex-A5,
// 800 MHz, 256 KB LLC, hardware prefetcher).
func DeviceSamsung() Device { return device.Samsung() }

// DeviceOlimex returns the Olimex A13-OLinuXino-MICRO IoT board model
// (Cortex-A8, 1.008 GHz, 256 KB LLC).
func DeviceOlimex() Device { return device.Olimex() }

// DeviceSESC returns the paper's cycle-accurate-simulator validation
// configuration (4-wide in-order core whose noise-free power trace serves
// as the side-channel signal).
func DeviceSESC() Device { return device.SESC() }

// Devices returns the three physical targets in the paper's column order.
func Devices() []Device { return device.All() }

// DeviceByName looks a device up by its paper name ("alcatel", "samsung",
// "olimex", "sesc"; case-insensitive).
func DeviceByName(name string) (Device, error) { return device.ByName(name) }

// InjectFaults applies the acquisition impairments described by spec to a
// copy of the capture — the input is never modified — and returns the
// impaired copy together with a ground-truth report of every injected
// event. Injection is deterministic under spec.Seed. Profiling the result
// exercises the analyzers' signal-quality monitor (Profile.Quality).
func InjectFaults(c *Capture, spec FaultSpec) (*Capture, *FaultReport, error) {
	return faults.Apply(c, spec)
}

// Microbenchmark builds the paper's Fig. 6 microbenchmark engineering
// exactly tm LLC misses in groups of cm, delimited by marker loops.
func Microbenchmark(tm, cm int) (Workload, error) {
	return workloads.Microbenchmark(workloads.DefaultMicroParams(tm, cm))
}

// SPECWorkload builds the statistical reproduction of one of the ten SPEC
// CPU2000 benchmarks used in the paper (ammp, bzip2, crafty, equake, gzip,
// mcf, parser, twolf, vortex, vpr). scaleM is the dynamic instruction
// budget in millions.
func SPECWorkload(name string, scaleM float64) (Workload, error) {
	p, err := workloads.SPECProgram(name, scaleM)
	if err != nil {
		return nil, err
	}
	return p.Stream(), nil
}

// BootWorkload builds the phased boot-sequence workload of the Fig. 13
// experiment. scaleM is the instruction budget in millions; seed
// differentiates boot-to-boot variation.
func BootWorkload(scaleM float64, seed uint64) Workload {
	return workloads.BootProgram(scaleM, seed).Stream()
}

// CustomWorkload builds a workload from a JSON description (see
// internal/workloads.ProgramFromJSON for the schema), so callers can
// profile their own memory-behaviour models.
func CustomWorkload(jsonSpec []byte) (Workload, error) {
	p, err := workloads.ProgramFromJSON(jsonSpec)
	if err != nil {
		return nil, err
	}
	return p.Stream(), nil
}

// LoadWorkload reads a JSON workload description from a file.
func LoadWorkload(path string) (Workload, error) {
	p, err := workloads.LoadProgram(path)
	if err != nil {
		return nil, err
	}
	return p.Stream(), nil
}

// StreamAnalyzer is the push-based incremental profiler; see
// Analyzer.Stream.
type StreamAnalyzer = core.StreamAnalyzer

// ProfileWindow is one rolling window of a continuously-profiled
// stream: the stalls whose onset falls in the window, with the same
// aggregate counters a Profile carries, scoped to the window. Served by
// emprofd's GET /v1/sessions/{id}/profiles (see Client.Profiles).
type ProfileWindow = core.ProfileWindow

// WindowRegion is one code region's share of a window's stalls, filled
// in when the daemon runs continuous stall→code-region attribution.
type WindowRegion = core.WindowRegion

// MergeWindows reassembles a full-stream profile from a session's
// complete tumbling window sequence, bit-identical to the profile
// Finalize would have returned for the same stream. The windows must
// tile (each starts where the previous ended) and include the final
// window.
func MergeWindows(ws []ProfileWindow, sampleRate, clockHz float64) (*Profile, error) {
	return core.MergeWindows(ws, sampleRate, clockHz)
}
