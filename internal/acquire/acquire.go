// Package acquire assembles one simulated acquisition: the processor
// model, the EM receiver chain on its power stream, and the optional
// SESC-style power proxy and memory probe. emprof.Simulate is its public
// form. Hooks reach the simulator's regression-hunting knobs, which only
// the equivalence tests and the simquick check set.
package acquire

import (
	"fmt"
	"math"

	"emprof/internal/cpu"
	"emprof/internal/device"
	"emprof/internal/em"
	"emprof/internal/mem"
	"emprof/internal/mem/dram"
	"emprof/internal/power"
	"emprof/internal/sim"
)

// Options controls a simulated acquisition.
type Options struct {
	// BandwidthHz overrides the device's default measurement bandwidth
	// when non-zero (the paper sweeps 20–160 MHz in Fig. 12).
	BandwidthHz float64
	// Seed drives the run's randomness (replacement, noise). Runs with
	// equal seeds are bit-identical.
	Seed uint64
	// NoiseFree disables probe noise and supply drift, producing the
	// clean power-proxy signal of the SESC validation experiments.
	NoiseFree bool
	// PowerProxy additionally records the SESC-style power trace (one
	// averaged sample per PowerProxyCycles cycles; default 20, the
	// paper's 50 MHz at 1 GHz).
	PowerProxy       bool
	PowerProxyCycles int
	// MemoryProbe additionally synthesizes the main-memory EM signal from
	// the DRAM activity trace (the dual-probe experiment of Fig. 10).
	MemoryProbe bool
	// Probe places the processor probe relative to the best-coupling
	// reference point (see em.ProbePosition). The zero value is the
	// reference placement and leaves the capture bit-identical to a run
	// that predates the spatial model; displaced probes lose amplitude,
	// SNR and envelope bandwidth per em.CouplingAt. The memory probe (with
	// MemoryProbe) is mounted independently and always stays at its own
	// reference point.
	Probe em.ProbePosition
}

// Hooks are the simulator's test hooks. The zero value is production;
// neither field changes the returned Run.
type Hooks struct {
	// Exact forces the reference per-cycle simulation loop instead of the
	// event-driven skip-ahead path (cpu.Core.Exact): the oracle the
	// equivalence tests compare against.
	Exact bool
	// BatchCycles sets how many cycles of power the core buffers before
	// handing them to the receiver chain (cpu.Core.BatchCycles; 0 is the
	// default, 1 hands over one cycle at a time).
	BatchCycles int
}

// Run is the outcome of one simulated acquisition.
type Run struct {
	// Capture is the processor-probe signal.
	Capture *em.Capture
	// MemCapture is the memory-probe signal (with MemoryProbe).
	MemCapture *em.Capture
	// PowerTrace is the SESC-style proxy signal (with PowerProxy) and
	// PowerRate its sample rate in Hz.
	PowerTrace []float64
	PowerRate  float64
	// Truth is the simulator ground truth: cycles, misses, stalls,
	// region spans.
	Truth *cpu.Result
	// Device echoes the simulated target.
	Device device.Device
}

// Simulate executes the workload on the device and records the EM capture
// plus ground truth. For any hooks the returned Run is bit-identical to
// the one the zero Hooks give.
func Simulate(dev device.Device, w sim.Stream, opts Options, hooks Hooks) (*Run, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	// Streams are consumed as they run; rewind resettable ones so the same
	// workload value can be simulated repeatedly (e.g. with and without
	// Hooks.Exact). On a fresh stream this is a no-op.
	if rs, ok := w.(interface{ Reset() }); ok {
		rs.Reset()
	}
	rng := sim.NewRNG(opts.Seed ^ 0x9e3779b97f4a7c15)
	ms, err := mem.NewSystem(dev.Mem, rng, opts.MemoryProbe)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(dev.CPU, ms)
	if err != nil {
		return nil, err
	}
	c.BatchCycles = hooks.BatchCycles
	c.Exact = hooks.Exact

	bw := opts.BandwidthHz
	if bw == 0 {
		bw = dev.EM.DefaultBandwidthHz
	}
	rxCfg := em.ReceiverConfig{
		ClockHz:      dev.CPU.ClockHz,
		BandwidthHz:  bw,
		ProbeGain:    dev.EM.ProbeGain,
		SNRdB:        dev.EM.SNRdB,
		DriftPeriodS: dev.EM.DriftPeriodS,
		DriftDepth:   dev.EM.DriftDepth,
		Position:     opts.Probe,
		Seed:         opts.Seed,
	}
	if opts.NoiseFree {
		rxCfg.SNRdB = math.Inf(1)
		rxCfg.DriftDepth = 0
		rxCfg.ProbeGain = 1
	}
	rx, err := em.NewReceiver(rxCfg)
	if err != nil {
		return nil, err
	}
	c.AddSink(rx)

	var proxy *power.IntervalSampler
	if opts.PowerProxy {
		n := opts.PowerProxyCycles
		if n <= 0 {
			n = 20
		}
		proxy = power.NewIntervalSampler(n)
		c.AddSink(proxy)
	}

	truth, err := c.Run(w)
	if err != nil {
		return nil, err
	}
	rx.Flush()

	run := &Run{
		Capture: rx.Capture(),
		Truth:   truth,
		Device:  dev,
	}
	if proxy != nil {
		proxy.Flush()
		run.PowerTrace = proxy.Samples()
		run.PowerRate = proxy.SampleRate(dev.CPU.ClockHz)
	}
	if opts.MemoryProbe {
		memCap, err := synthesizeMemoryProbe(dev, ms, truth.Cycles, rxCfg)
		if err != nil {
			return nil, err
		}
		run.MemCapture = memCap
	}
	return run, nil
}

// synthesizeMemoryProbe builds the memory-side EM capture from the DRAM
// burst trace, using the same receiver parameters as the processor probe
// (the paper places a second probe over the SDRAM and records both
// simultaneously, Fig. 9/10).
func synthesizeMemoryProbe(dev device.Device, ms *mem.System, cycles uint64, rxCfg em.ReceiverConfig) (*em.Capture, error) {
	// Rasterise the DRAM trace at the receiver's decimation factor, which
	// em.NewReceiver derives as round(clock/bandwidth). Truncating here
	// instead (the old behaviour) made the memory probe's effective sample
	// rate disagree with the processor probe's whenever clock/bandwidth is
	// not an integer, skewing the Fig. 10 time alignment.
	d := int(math.Round(dev.CPU.ClockHz / rxCfg.BandwidthHz))
	if d < 1 {
		d = 1
	}
	series := dram.ActivitySeries(ms.DRAM().Bursts(), cycles, d)
	memCfg := rxCfg
	memCfg.Seed = rxCfg.Seed ^ 0xface
	// The memory probe couples to I/O pin toggling; model a comparable
	// but distinct gain. It is mounted on its own fixture over the SDRAM,
	// so a displaced processor probe must not displace it.
	memCfg.ProbeGain = rxCfg.ProbeGain * 0.9
	memCfg.Position = em.ProbePosition{}
	return em.SynthesizeFromSeries(series, d, memCfg)
}

// RegionWindow returns the [start, end) cycle range spanned by a workload
// region in the run's ground truth, with found=false if the region never
// executed.
func (r *Run) RegionWindow(region uint16) (start, end uint64, found bool) {
	for _, sp := range r.Truth.RegionSpans {
		if sp.Region != region {
			continue
		}
		if !found {
			start = sp.StartCycle
			found = true
		}
		end = sp.EndCycle
	}
	return start, end, found
}

// SliceCycles returns the sub-capture covering the cycle range [lo, hi):
// the sample window is widened to whole samples (floor for lo, ceiling
// for hi) so the final partial sample of a range is included rather than
// silently dropped.
func (r *Run) SliceCycles(lo, hi uint64) *em.Capture {
	cps := r.Capture.CyclesPerSample()
	if cps <= 0 {
		return r.Capture.Slice(0, 0)
	}
	return r.Capture.Slice(int(math.Floor(float64(lo)/cps)), int(math.Ceil(float64(hi)/cps)))
}

// SliceRegion returns the sub-capture covering one workload region.
func (r *Run) SliceRegion(region uint16) (*em.Capture, error) {
	lo, hi, ok := r.RegionWindow(region)
	if !ok {
		return nil, fmt.Errorf("emprof: region %d not present in run", region)
	}
	return r.SliceCycles(lo, hi), nil
}
