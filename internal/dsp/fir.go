package dsp

import (
	"fmt"
	"math"
	"sync"
)

// FIR is a finite-impulse-response filter with streaming state, used by the
// EM receiver model to band-limit the synthesized emanation signal to the
// configured measurement bandwidth before decimation.
type FIR struct {
	taps []float64
	// hist is the delay line: the last len(taps)-1 inputs, oldest first.
	hist []float64
}

// Taps returns a copy of the filter coefficients.
func (f *FIR) Taps() []float64 {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return t
}

// ProcessBlock filters the block in, writing outputs to out (allocated if
// nil or too small) and returning it. out may alias in (in-place filtering
// of the same slice is supported); partially-overlapping slices are not.
//
// The block kernel convolves against a flat [history | block] scratch
// buffer, so no index ever wraps. Every output sums its products in tap
// order (taps[0] times the newest input first), one serial chain per
// output, and the delay line carries across calls: the outputs are the
// same bits however a stream is split into blocks.
func (f *FIR) ProcessBlock(in, out []float64) []float64 {
	n := len(in)
	if out == nil || cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	if n == 0 {
		return out
	}
	t := f.taps
	nt := len(t)
	if nt == 1 {
		c := t[0]
		for i, x := range in {
			out[i] = c * x
		}
		return out
	}
	h := nt - 1
	sp := getScratch(h + n)
	ext := *sp
	// Lay the last h inputs down (oldest first), then the block, so x[i-k]
	// is ext[h+i-k].
	copy(ext, f.hist)
	copy(ext[h:], in)
	// Four outputs per iteration, one accumulator each. Every output keeps
	// its own serial addition chain in tap order, but the four independent
	// chains overlap in the FP pipeline instead of serialising on a single
	// accumulator's latency.
	i := 0
	h4 := h + 4
	for ; i+4 <= n; i += 4 {
		// win holds the h+4 samples feeding outputs i..i+3; the fixed-length
		// reslices let the compiler drop every inner-loop bounds check.
		win := ext[i:][:h4]
		var a0, a1, a2, a3 float64
		// m runs h..0 so tap index h-m runs 0..h: tap order, with loop
		// bounds the compiler can prove for win[m..m+3].
		for m := h; m >= 0; m-- {
			tk := t[h-m]
			a0 += tk * win[m]
			a1 += tk * win[m+1]
			a2 += tk * win[m+2]
			a3 += tk * win[m+3]
		}
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
	for ; i < n; i++ {
		e := h + i
		acc := 0.0
		for k := 0; k < nt; k++ {
			acc += t[k] * ext[e-k]
		}
		out[i] = acc
	}
	copy(f.hist, ext[n:])
	putScratch(sp)
	return out
}

// lowpassKey identifies one windowed-sinc design in the tap cache.
type lowpassKey struct {
	cutoff float64
	taps   int
}

// lowpassCache memoises LowpassFIR tap vectors. Sweeps (bandwidth grids,
// per-job receivers) build the identical filter thousands of times; the
// design loop with its sin/normalise passes is pure, so the computed taps
// are shared read-only across all FIR instances with that design.
var lowpassCache sync.Map // lowpassKey -> []float64

// LowpassFIR designs a windowed-sinc lowpass filter with the given
// normalized cutoff (cutoff = fc / fs, in (0, 0.5)) and tap count. Odd tap
// counts give a type-I linear-phase filter. The Hamming window keeps
// stopband ripple below ~-53 dB, ample for the receiver model. Tap vectors
// are cached per (cutoff, taps) key, so repeated identical designs cost one
// map lookup; each returned filter still owns independent streaming state.
func LowpassFIR(cutoff float64, taps int) *FIR {
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("dsp: lowpass cutoff %v out of (0, 0.5)", cutoff))
	}
	if taps < 3 {
		panic("dsp: lowpass needs at least 3 taps")
	}
	key := lowpassKey{cutoff: cutoff, taps: taps}
	if v, ok := lowpassCache.Load(key); ok {
		return newFIRShared(v.([]float64))
	}
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	sum := 0.0
	for i := range h {
		t := float64(i) - mid
		var v float64
		if t == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*t) / (math.Pi * t)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1)) // Hamming
		h[i] = v * w
		sum += h[i]
	}
	// Normalise to unity DC gain so the filter preserves signal level.
	for i := range h {
		h[i] /= sum
	}
	lowpassCache.Store(key, h)
	return newFIRShared(h)
}

// newFIRShared wraps taps the caller guarantees are never mutated (FIR
// itself only reads them; Taps() hands out copies).
func newFIRShared(taps []float64) *FIR {
	return &FIR{taps: taps, hist: make([]float64, len(taps)-1)}
}

// MovingAverage is an O(1)-per-sample boxcar filter. The paper's Fig. 1
// overlays exactly this on the raw magnitude to make the stall dip visible.
type MovingAverage struct {
	buf  []float64
	pos  int
	n    int
	sum  float64
	full bool
}

// NewMovingAverage returns a moving average over a window of n samples.
func NewMovingAverage(n int) *MovingAverage {
	if n <= 0 {
		panic("dsp: moving average window must be positive")
	}
	return &MovingAverage{buf: make([]float64, n), n: n}
}

// Process pushes x and returns the average of the last min(count, n)
// samples.
func (m *MovingAverage) Process(x float64) float64 {
	old := m.buf[m.pos]
	m.buf[m.pos] = x
	m.pos++
	if m.pos == m.n {
		m.pos = 0
		m.full = true
	}
	if m.full {
		m.sum += x - old
		return m.sum / float64(m.n)
	}
	m.sum += x
	return m.sum / float64(m.pos)
}

// Reset clears the window.
func (m *MovingAverage) Reset() {
	for i := range m.buf {
		m.buf[i] = 0
	}
	m.pos, m.sum, m.full = 0, 0, false
}

// MovingAverageState is a serializable snapshot of a MovingAverage's
// ring and running sum, for streaming hand-off (core.StreamAnalyzer
// state export). The window width is re-derived by the restoring side;
// Restore rejects a state of a different width.
type MovingAverageState struct {
	Buf  []float64 `json:"buf"`
	Pos  int       `json:"pos"`
	Sum  float64   `json:"sum"`
	Full bool      `json:"full"`
}

// State returns a deep copy of the filter state.
func (m *MovingAverage) State() MovingAverageState {
	return MovingAverageState{
		Buf:  append([]float64(nil), m.buf...),
		Pos:  m.pos,
		Sum:  m.sum,
		Full: m.full,
	}
}

// Restore overwrites the filter with a state captured by State on an
// average of the same window width; processing continues bit-identically
// to the exporting instance.
func (m *MovingAverage) Restore(st MovingAverageState) error {
	if len(st.Buf) != m.n {
		return fmt.Errorf("dsp: moving-average state for window %d, have %d", len(st.Buf), m.n)
	}
	if st.Pos < 0 || st.Pos >= m.n {
		return fmt.Errorf("dsp: moving-average state position %d out of range", st.Pos)
	}
	copy(m.buf, st.Buf)
	m.pos, m.sum, m.full = st.Pos, st.Sum, st.Full
	return nil
}

// ProcessBlock applies the moving average to a block, writing into out
// (allocated if nil or too small). out may alias in; partially-overlapping
// slices are not supported. Output is bit-identical to calling Process per
// sample: the prefix (warm-up, or lookback still inside the ring buffer)
// runs the scalar step, then the steady state reads the outgoing sample
// straight from the input block with no ring indexing, performing the same
// sum update in the same order.
func (m *MovingAverage) ProcessBlock(in, out []float64) []float64 {
	n := len(in)
	if out == nil || cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	if n == 0 {
		return out
	}
	src := in
	if &in[0] == &out[0] {
		// In-place call: the steady-state loop reads in[i-window] after
		// out[i-window] was written, so keep a pristine copy of the input.
		sp := getScratch(n)
		copy(*sp, in)
		src = *sp
		defer putScratch(sp)
	}
	w := m.n
	i := 0
	for ; i < n && (!m.full || i < w); i++ {
		out[i] = m.Process(src[i])
	}
	if i < n {
		// Steady state: the sample leaving the window is src[i-w].
		sum := m.sum
		den := float64(w)
		for ; i < n; i++ {
			x := src[i]
			sum += x - src[i-w]
			out[i] = sum / den
		}
		m.sum = sum
		// Rebuild the ring with the last w inputs, oldest at pos 0.
		copy(m.buf, src[n-w:])
		m.pos = 0
	}
	return out
}
