package em

import (
	"math"

	"emprof/internal/dsp"
	"emprof/internal/sim"
)

// refReceiver is the per-cycle acquisition chain the Receiver is checked
// against. It integrates one cycle at a time and takes each output sample
// through the whole chain on its own: RBW convolution over a shifted delay
// line, the position stage, supply drift, then one NormFloat64 per I/Q
// draw. It shares no code with the Receiver beyond the configuration, the
// tap design, the coupling curve and the RNG, so a bug in the block
// kernels, the batched noise draw or the open-window hand-over between
// blocks cannot hide in both.
type refReceiver struct {
	cfg      ReceiverConfig
	decim    int
	acc      float64
	n        int
	taps     []float64
	hist     []float64 // newest envelope sample first
	rng      *sim.RNG
	noiseSig float64
	driftW   float64
	phase    float64

	displaced  bool
	coupling   Coupling
	meanAlpha  float64
	blur, mean float64
	warm       bool
	samples    []float64
}

func newRefReceiver(cfg ReceiverConfig) *refReceiver {
	d := max(int(math.Round(cfg.ClockHz/cfg.BandwidthHz)), 1)
	rate := cfg.ClockHz / float64(d)
	r := &refReceiver{cfg: cfg, decim: d, rng: sim.NewRNG(cfg.Seed ^ 0x5ca1ab1e)}
	if d > 1 {
		r.taps = dsp.LowpassFIR(0.4, 9).Taps()
		r.hist = make([]float64, len(r.taps))
	}
	if !math.IsInf(cfg.SNRdB, 1) {
		r.noiseSig = math.Pow(10, -cfg.SNRdB/20)
	}
	if cfg.DriftDepth > 0 {
		r.driftW = 2 * math.Pi / (cfg.DriftPeriodS * rate)
	}
	if !cfg.Position.IsZero() {
		r.displaced = true
		r.coupling = CouplingAt(cfg.Position)
		r.meanAlpha = 1 / max(rate*1e-3, 16)
	}
	return r
}

// PushCycle integrates one cycle and emits a sample when the window fills.
func (r *refReceiver) PushCycle(p float64) {
	r.acc += p
	r.n++
	if r.n == r.decim {
		r.emit(r.acc / float64(r.n))
		r.acc, r.n = 0, 0
	}
}

// Flush emits the open window, averaged over the cycles it holds.
func (r *refReceiver) Flush() {
	if r.n > 0 {
		r.emit(r.acc / float64(r.n))
		r.acc, r.n = 0, 0
	}
}

// Samples returns the recorded magnitudes.
func (r *refReceiver) Samples() []float64 { return r.samples }

func (r *refReceiver) emit(env float64) {
	if r.taps != nil {
		copy(r.hist[1:], r.hist)
		r.hist[0] = env
		acc := 0.0
		for k, t := range r.taps {
			acc += t * r.hist[k]
		}
		env = acc
	}
	if r.displaced {
		if !r.warm {
			r.blur, r.mean = env, env
			r.warm = true
		} else {
			r.blur += r.coupling.BlurAlpha * (env - r.blur)
			r.mean += r.meanAlpha * (env - r.mean)
		}
		leak := r.coupling.Leak
		env = r.coupling.Gain * ((1-leak)*r.blur + leak*r.mean)
	}
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
		i := mag + gain*r.noiseSig*r.rng.NormFloat64()
		q := gain * r.noiseSig * r.rng.NormFloat64()
		mag = math.Sqrt(i*i + q*q)
	}
	r.samples = append(r.samples, mag)
}
