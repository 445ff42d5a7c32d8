// Package em synthesizes the electromagnetic side-channel signal a
// near-field probe + receiver would acquire from the simulated device, and
// models the acquisition path of the paper's setup (magnetic probe into a
// spectrum analyzer / software-defined receiver tuned to the processor
// clock frequency with a selectable measurement bandwidth).
//
// The physical signal is the processor's switching activity amplitude-
// modulated onto the clock carrier and its harmonics; the receiver
// downconverts a band of width B around the carrier and records the
// complex baseband, whose magnitude tracks switching activity. Simulating
// the GHz carrier explicitly is pointless — the receiver output depends
// only on the band-limited activity envelope — so the chain here operates
// directly at baseband:
//
//	per-cycle activity → integrate-and-dump to the receiver rate (the
//	band-limited front end) → resolution-bandwidth smoothing FIR →
//	probe gain × supply drift × (envelope + complex AWGN) → magnitude.
//
// The chain consumes the activity in blocks of cycles, as the processor
// model hands it over; the capture does not depend on the block sizes.
//
// Everything EMPROF's normalisation stage must cope with on real hardware
// is reproduced: unknown multiplicative probe coupling, slow power-supply
// drift, a noise floor, and finite bandwidth that smears short stalls.
package em

import (
	"fmt"
	"math"

	"emprof/internal/dsp"
	"emprof/internal/sim"
)

// Capture is an acquired magnitude trace plus the metadata EMPROF needs to
// convert sample indices into cycles and seconds.
type Capture struct {
	// Samples is the received signal magnitude.
	Samples []float64
	// SampleRate is the receiver output rate in Hz (≈ the measurement
	// bandwidth).
	SampleRate float64
	// ClockHz is the profiled processor's clock frequency. EMPROF
	// multiplies detected stall durations by it to report cycles, exactly
	// as in the paper's Section III-A.
	ClockHz float64
}

// Duration returns the capture length in seconds.
func (c *Capture) Duration() float64 {
	if c.SampleRate <= 0 {
		return 0
	}
	return float64(len(c.Samples)) / c.SampleRate
}

// CyclesPerSample returns the number of processor cycles each sample
// spans, or 0 for a capture with no (or nonsensical) sample-rate
// metadata — mirroring Duration, and keeping the ±Inf/NaN a bare division
// would produce out of downstream index arithmetic.
func (c *Capture) CyclesPerSample() float64 {
	if c.SampleRate <= 0 {
		return 0
	}
	return c.ClockHz / c.SampleRate
}

// Clone returns a deep copy of the capture: the returned Samples slice
// has its own backing array, so mutating either capture never affects the
// other. Fault injection (internal/faults) always operates on clones.
func (c *Capture) Clone() *Capture {
	return &Capture{
		Samples:    append([]float64(nil), c.Samples...),
		SampleRate: c.SampleRate,
		ClockHz:    c.ClockHz,
	}
}

// Slice returns a sub-capture covering sample indices [lo, hi).
//
// The returned capture ALIASES the receiver's backing array — writes to
// either capture's samples in the shared range are visible through both.
// Use Clone (or Slice(...).Clone()) when an independent copy is needed.
// Out-of-range bounds are clamped into [0, len(Samples)] — including
// lo beyond the capture end and negative hi, both of which previously
// slipped through the partial clamping and panicked.
func (c *Capture) Slice(lo, hi int) *Capture {
	n := len(c.Samples)
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi < 0 {
		hi = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return &Capture{Samples: c.Samples[lo:hi], SampleRate: c.SampleRate, ClockHz: c.ClockHz}
}

// ReceiverConfig parameterises the acquisition chain.
type ReceiverConfig struct {
	// ClockHz is the device clock (input rate of the per-cycle stream).
	ClockHz float64
	// BandwidthHz is the measurement bandwidth; the output sample rate is
	// ClockHz / round(ClockHz/BandwidthHz), i.e. as close to BandwidthHz
	// as an integer decimation allows.
	BandwidthHz float64
	// ProbeGain is the multiplicative probe-coupling factor.
	ProbeGain float64
	// SNRdB sets the complex AWGN level relative to a unit-amplitude
	// envelope. +Inf disables noise (the SESC power-proxy path).
	SNRdB float64
	// DriftPeriodS / DriftDepth model slow supply-voltage variation as a
	// sinusoidal gain term.
	DriftPeriodS float64
	DriftDepth   float64
	// Position is the probe placement relative to the best-coupling
	// reference point (see ProbePosition and CouplingAt). The zero value
	// is the reference placement and leaves the acquisition chain exactly
	// as it was before the spatial model existed — captures are
	// bit-identical. A displaced or rotated probe attenuates the signal
	// (receiver noise stays put, so SNR drops with it), smears fast
	// envelope transitions, and mixes in unrelated-source bleed-through
	// that fills stall dips.
	Position ProbePosition
	// Seed drives the noise generator.
	Seed uint64
}

// Validate checks the receiver configuration.
func (c ReceiverConfig) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("em: clock %v <= 0", c.ClockHz)
	}
	if c.BandwidthHz <= 0 || c.BandwidthHz > c.ClockHz {
		return fmt.Errorf("em: bandwidth %v out of (0, clock]", c.BandwidthHz)
	}
	if c.ProbeGain <= 0 {
		return fmt.Errorf("em: probe gain %v <= 0", c.ProbeGain)
	}
	if c.DriftDepth < 0 || c.DriftDepth >= 1 {
		return fmt.Errorf("em: drift depth %v out of [0,1)", c.DriftDepth)
	}
	if c.DriftDepth > 0 && c.DriftPeriodS <= 0 {
		return fmt.Errorf("em: drift depth set with non-positive period")
	}
	if err := c.Position.Validate(); err != nil {
		return err
	}
	return nil
}

// Receiver is a streaming acquisition chain; it implements power.Sink so
// the processor model can feed it directly, block by block, without ever
// materialising the whole per-cycle trace.
type Receiver struct {
	cfg        ReceiverConfig
	decim      int
	sampleRate float64

	// integrate-and-dump state
	acc float64
	n   int

	// RBW smoothing filter at the output rate.
	rbw *dsp.FIR

	rng      *sim.RNG
	noiseSig float64
	driftW   float64 // radians per output sample
	phase    float64

	// sp is the probe-position stage (nil at the reference placement,
	// which keeps the pre-spatial pipeline bit-identical).
	sp *spatial

	samples []float64

	// Block-path scratch, reused across PushBlock calls so steady-state
	// synthesis allocates nothing per block.
	envBuf   []float64
	noiseBuf []float64
}

// NewReceiver builds a receiver; returns an error on invalid config.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := int(math.Round(cfg.ClockHz / cfg.BandwidthHz))
	if d < 1 {
		d = 1
	}
	sampleRate := cfg.ClockHz / float64(d)
	r := &Receiver{
		cfg:        cfg,
		decim:      d,
		sampleRate: sampleRate,
		rng:        sim.NewRNG(cfg.Seed ^ 0x5ca1ab1e),
	}
	if d > 1 {
		// Short resolution-bandwidth filter: smooths dump boundaries
		// without meaningfully widening the response.
		r.rbw = dsp.LowpassFIR(0.4, 9)
	}
	if !math.IsInf(cfg.SNRdB, 1) {
		r.noiseSig = math.Pow(10, -cfg.SNRdB/20)
	}
	if cfg.DriftDepth > 0 {
		r.driftW = 2 * math.Pi / (cfg.DriftPeriodS * sampleRate)
	}
	r.sp = newSpatial(cfg.Position, sampleRate)
	return r, nil
}

// MustNewReceiver is NewReceiver but panics on configuration errors.
func MustNewReceiver(cfg ReceiverConfig) *Receiver {
	r, err := NewReceiver(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// SampleRate returns the actual output rate in Hz.
func (r *Receiver) SampleRate() float64 { return r.sampleRate }

// PushCycle pushes the power of one clock cycle as a block of one. The
// processor model only calls PushBlock; PushCycle stays for callers that
// wrap a Receiver in a sink of their own (the benchmark module's timed
// sink forwards it).
func (r *Receiver) PushCycle(p float64) { r.PushBlock([]float64{p}) }

// PushBlock implements power.Sink: it consumes a whole block of per-cycle
// power values. The integrate-and-dump window state (acc, n) carries
// across block boundaries, and every window is summed serially in cycle
// order, so the capture is bit-identical however the cycles are split
// into blocks. Complete windows inside the block are dumped together and
// go through the chain as one envelope block: one RBW FIR block kernel,
// one batched noise draw.
func (r *Receiver) PushBlock(ps []float64) {
	d := r.decim
	if r.n > 0 {
		// Close the window the previous block left open: at most d-1
		// cycles, emitted as a block of one.
		k := min(d-r.n, len(ps))
		for _, v := range ps[:k] {
			r.acc += v
		}
		r.n += k
		ps = ps[k:]
		if r.n < d {
			return
		}
		r.dump()
	}
	nw := len(ps) / d
	if nw > 0 {
		env := r.envScratch(nw)
		den := float64(d)
		// Dump eight windows at a time: each window keeps its own serial
		// accumulator (so its addition order, and its result bits, do not
		// depend on the batching), but the eight independent chains
		// interleave, hiding the FP-add latency one chain alone would
		// expose.
		w := 0
		for ; w+8 <= nw; w += 8 {
			// Reslicing each window to exactly d lets the compiler prove
			// b?[j] in bounds for j < d, keeping the inner loop check-free.
			base := ps[w*d:]
			b0 := base[:d]
			b1 := base[d:][:d]
			b2 := base[2*d:][:d]
			b3 := base[3*d:][:d]
			b4 := base[4*d:][:d]
			b5 := base[5*d:][:d]
			b6 := base[6*d:][:d]
			b7 := base[7*d:][:d]
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for j := 0; j < d; j++ {
				a0 += b0[j]
				a1 += b1[j]
				a2 += b2[j]
				a3 += b3[j]
				a4 += b4[j]
				a5 += b5[j]
				a6 += b6[j]
				a7 += b7[j]
			}
			o := env[w : w+8 : w+8]
			o[0] = a0 / den
			o[1] = a1 / den
			o[2] = a2 / den
			o[3] = a3 / den
			o[4] = a4 / den
			o[5] = a5 / den
			o[6] = a6 / den
			o[7] = a7 / den
		}
		for ; w < nw; w++ {
			acc := 0.0
			for _, v := range ps[w*d : (w+1)*d] {
				acc += v
			}
			env[w] = acc / den
		}
		r.emitBlock(env)
		ps = ps[nw*d:]
	}
	// Leftover cycles open the next partial window.
	for _, v := range ps {
		r.acc += v
		r.n++
	}
}

// Flush emits any partial final integration window.
func (r *Receiver) Flush() {
	if r.n > 0 {
		r.dump()
	}
}

// dump emits the open integration window, averaged over the cycles it
// holds, as an envelope block of one.
func (r *Receiver) dump() {
	env := r.envScratch(1)
	env[0] = r.acc / float64(r.n)
	r.acc, r.n = 0, 0
	r.emitBlock(env)
}

// envScratch returns the receiver's envelope scratch resliced to n.
func (r *Receiver) envScratch(n int) []float64 {
	if cap(r.envBuf) < n {
		r.envBuf = make([]float64, n)
	}
	return r.envBuf[:n]
}

// impair applies probe gain, supply drift and complex AWGN to one envelope
// sample; n1/n2 are the I/Q noise draws (ignored when noise is disabled).
func (r *Receiver) impair(env, n1, n2 float64) float64 {
	gain := r.cfg.ProbeGain
	if r.driftW > 0 {
		gain *= 1 + r.cfg.DriftDepth*math.Sin(r.phase)
		r.phase += r.driftW
		if r.phase > 2*math.Pi {
			r.phase -= 2 * math.Pi
		}
	}
	mag := gain * env
	if r.noiseSig > 0 {
		// Complex AWGN on the baseband: the recorded magnitude is
		// |A + n_I + j n_Q|, which yields the Rician noise floor real
		// captures show during stalls.
		// sqrt(i*i+q*q) rather than math.Hypot: the envelope samples sit
		// comfortably inside float64 range, and Hypot's overflow-proof
		// scaling costs several times the plain form on this hot path.
		i := mag + gain*r.noiseSig*n1
		q := gain * r.noiseSig * n2
		mag = math.Sqrt(i*i + q*q)
	}
	return mag
}

// emitBlock applies RBW smoothing and the acquisition impairments to a
// block of envelope samples, then records the received magnitudes: one
// RBW FIR block kernel (in place over the scratch), the position stage,
// one batched noise draw, then the per-sample impairment chain. env is
// scratch owned by the receiver and is clobbered.
func (r *Receiver) emitBlock(env []float64) {
	if r.rbw != nil {
		r.rbw.ProcessBlock(env, env)
	}
	if r.sp != nil {
		// The position stage is stateful and sequential: one sample at a
		// time, in order.
		for i, e := range env {
			env[i] = r.sp.apply(e)
		}
	}
	if r.noiseSig > 0 {
		if cap(r.noiseBuf) < 2*len(env) {
			r.noiseBuf = make([]float64, 2*len(env))
		}
		noise := r.noiseBuf[:2*len(env)]
		r.rng.NormFloat64s(noise)
		for i, e := range env {
			env[i] = r.impair(e, noise[2*i], noise[2*i+1])
		}
	} else {
		for i, e := range env {
			env[i] = r.impair(e, 0, 0)
		}
	}
	r.samples = append(r.samples, env...)
}

// Capture returns the received signal acquired so far.
func (r *Receiver) Capture() *Capture {
	return &Capture{
		Samples:    r.samples,
		SampleRate: r.sampleRate,
		ClockHz:    r.cfg.ClockHz,
	}
}

// SynthesizeFromSeries runs a pre-computed activity series (one value per
// cyclesPerValue cycles) through an identical impairment chain. It is used
// for the memory-probe signal, which is rasterised from the DRAM burst
// trace rather than streamed by the processor model. The per-cycle
// expansion is fed through PushBlock in blocks of 4,096 cycles.
func SynthesizeFromSeries(series []float64, cyclesPerValue int, cfg ReceiverConfig) (*Capture, error) {
	if cyclesPerValue <= 0 {
		return nil, fmt.Errorf("em: cyclesPerValue %d <= 0", cyclesPerValue)
	}
	r, err := NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	const blockCycles = 4096
	buf := make([]float64, 0, blockCycles)
	for _, v := range series {
		left := cyclesPerValue
		for left > 0 {
			room := cap(buf) - len(buf)
			if room == 0 {
				r.PushBlock(buf)
				buf = buf[:0]
				room = cap(buf)
			}
			take := left
			if take > room {
				take = room
			}
			for i := 0; i < take; i++ {
				buf = append(buf, v)
			}
			left -= take
		}
	}
	if len(buf) > 0 {
		r.PushBlock(buf)
	}
	r.Flush()
	return r.Capture(), nil
}
