// Package power converts per-cycle pipeline activity into the power-proxy
// signal the paper uses for validation: "we collect the average power
// consumption for each 20-cycle interval, which corresponds to a 50 MHz
// sampling rate for a 1 GHz processor" (Section III-B). The unit-level
// weights follow the same intuition as SESC's accounting: switching
// activity in fetch, issue and the functional units dominates dynamic
// power, so a fully-stalled core draws only its baseline.
package power

// Weights are the per-unit dynamic power contributions, in arbitrary
// consistent units (the EM chain normalises levels away; only the contrast
// between busy and stalled matters to EMPROF, exactly as in the paper).
type Weights struct {
	// Base is static + clock-tree power, drawn every cycle even when
	// fully stalled.
	Base float64
	// Fetch is added on cycles when the front-end fetches instructions.
	Fetch float64
	// PerIssue is added per instruction issued in a cycle.
	PerIssue float64
	// IntALU, IntMulDiv, FPALU, FPMulDiv are added per instruction of the
	// corresponding class issued.
	IntALU    float64
	IntMulDiv float64
	FPALU     float64
	FPMulDiv  float64
	// MemAccess is added per data-cache access issued.
	MemAccess float64
	// MissWait is added per cycle while LLC misses are outstanding but the
	// core is still doing useful work (bus/MSHR activity).
	MissWait float64
}

// DefaultWeights is a reasonable unit-level model for an in-order
// superscalar embedded core. Busy cycles land around 1.0–2.5; a full stall
// draws Base = 0.25, giving the strong magnitude contrast shown in the
// paper's Figs. 1–4.
func DefaultWeights() Weights {
	return Weights{
		Base:      0.25,
		Fetch:     0.18,
		PerIssue:  0.22,
		IntALU:    0.08,
		IntMulDiv: 0.25,
		FPALU:     0.20,
		FPMulDiv:  0.35,
		MemAccess: 0.15,
		MissWait:  0.03,
	}
}

// Activity is the pipeline activity of one cycle. The counters are
// float64 rather than int because the simulator rebuilds an Activity
// every busy cycle and feeds it straight into CycleRef's weighted sum:
// float counters make the increments (exact: +1.0 on small counts) and
// the products conversion-free on the hottest path in the tree.
type Activity struct {
	FetchActive bool
	Issued      float64
	IntALU      float64
	IntMulDiv   float64
	FPALU       float64
	FPMulDiv    float64
	MemAccesses float64
	MissesOut   float64
}

// CycleRef returns the instantaneous power for one cycle of activity. It
// takes both operands by reference because the simulator's per-cycle loop
// calls it (Weights is 9 float64s and Activity 8 fields; copying both per
// simulated cycle was measurable).
func (w *Weights) CycleRef(a *Activity) float64 {
	p := w.Base
	if a.FetchActive {
		p += w.Fetch
	}
	p += w.PerIssue * a.Issued
	p += w.IntALU * a.IntALU
	p += w.IntMulDiv * a.IntMulDiv
	p += w.FPALU * a.FPALU
	p += w.FPMulDiv * a.FPMulDiv
	p += w.MemAccess * a.MemAccesses
	if a.MissesOut > 0 {
		p += w.MissWait
	}
	return p
}

// Sink consumes the power stream produced by the processor model, one
// block of consecutive cycles at a time. Implementations include the
// SESC-style interval sampler below and the EM receiver chain in
// internal/em; neither output depends on how the stream is cut into
// blocks.
type Sink interface {
	// PushBlock receives the power drawn in len(ps) consecutive cycles.
	PushBlock(ps []float64)
}

// IntervalSampler averages power over fixed windows of CyclesPerSample
// cycles, reproducing the simulator-side signal of the paper (one sample
// per 20 cycles in the SESC experiments).
type IntervalSampler struct {
	cyclesPerSample int
	acc             float64
	n               int
	samples         []float64
}

// NewIntervalSampler returns a sampler averaging each window of
// cyclesPerSample cycles into one output sample.
func NewIntervalSampler(cyclesPerSample int) *IntervalSampler {
	if cyclesPerSample <= 0 {
		panic("power: cyclesPerSample must be positive")
	}
	return &IntervalSampler{cyclesPerSample: cyclesPerSample}
}

// PushBlock implements Sink. Each window's average is the serial sum of
// its cycles in order, whatever the block boundaries; only the per-cycle
// call overhead is amortised.
func (s *IntervalSampler) PushBlock(ps []float64) {
	d := s.cyclesPerSample
	if s.n > 0 {
		// Finish the window the previous block left open.
		k := min(d-s.n, len(ps))
		for _, v := range ps[:k] {
			s.acc += v
		}
		s.n += k
		ps = ps[k:]
		if s.n < d {
			return
		}
		s.samples = append(s.samples, s.acc/float64(d))
		s.acc, s.n = 0, 0
	}
	nw := len(ps) / d
	if nw > 0 {
		if free := cap(s.samples) - len(s.samples); free < nw {
			grown := make([]float64, len(s.samples), 2*cap(s.samples)+nw)
			copy(grown, s.samples)
			s.samples = grown
		}
		den := float64(d)
		for w := 0; w < nw; w++ {
			win := ps[w*d:][:d]
			acc := 0.0
			for _, v := range win {
				acc += v
			}
			s.samples = append(s.samples, acc/den)
		}
		ps = ps[nw*d:]
	}
	for _, v := range ps {
		s.acc += v
		s.n++
	}
}

// Flush emits any partial final window.
func (s *IntervalSampler) Flush() {
	if s.n > 0 {
		s.samples = append(s.samples, s.acc/float64(s.n))
		s.acc, s.n = 0, 0
	}
}

// Samples returns the accumulated power trace.
func (s *IntervalSampler) Samples() []float64 { return s.samples }

// CyclesPerSample returns the averaging window length.
func (s *IntervalSampler) CyclesPerSample() int { return s.cyclesPerSample }

// SampleRate returns the sample rate in Hz for a core clocked at clockHz.
func (s *IntervalSampler) SampleRate(clockHz float64) float64 {
	return clockHz / float64(s.cyclesPerSample)
}
