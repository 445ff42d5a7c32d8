// Package dsp is the signal-processing substrate for the EMPROF
// reproduction. The paper's receiver chain and profiler need a
// band-limiting FIR filter, sliding-window averages and extrema, summary
// statistics, and short-time spectra; Go's standard library provides none
// of these, so they are implemented here from scratch on top of the math
// packages only.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wStep := complex(math.Cos(step), math.Sin(step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// PowerSpectrum returns |X[k]|^2 / N for the first N/2+1 bins of the FFT of
// the windowed real signal x zero-padded to a power of two. It is the
// workhorse behind the spectrogram used for code attribution. Hot loops
// that compute many spectra should use PowerSpectrumInto with reused
// scratch instead.
func PowerSpectrum(x []float64, window []float64) []float64 {
	out, _ := PowerSpectrumInto(x, window, nil, nil)
	return out
}

// PowerSpectrumInto is PowerSpectrum with caller-provided scratch: cbuf is
// the complex FFT workspace and out the result buffer, both grown only when
// too small. It returns the spectrum and the (possibly re-allocated) cbuf
// so the caller can thread both through a loop — the STFT hot path computes
// one spectrum per hop and would otherwise allocate an FFT buffer per
// frame. Passing nil for either buffer allocates it.
func PowerSpectrumInto(x, window []float64, cbuf []complex128, out []float64) ([]float64, []complex128) {
	n := len(x)
	if window != nil && len(window) != n {
		panic("dsp: window length mismatch")
	}
	m := NextPow2(n)
	if cap(cbuf) < m {
		cbuf = make([]complex128, m)
	}
	cbuf = cbuf[:m]
	for i := 0; i < n; i++ {
		v := x[i]
		if window != nil {
			v *= window[i]
		}
		cbuf[i] = complex(v, 0)
	}
	// Zero the padding explicitly: the workspace is reused across calls.
	for i := n; i < m; i++ {
		cbuf[i] = 0
	}
	FFT(cbuf)
	half := m/2 + 1
	if cap(out) < half {
		out = make([]float64, half)
	}
	out = out[:half]
	inv := 1 / float64(m)
	for k := 0; k < half; k++ {
		re, im := real(cbuf[k]), imag(cbuf[k])
		out[k] = (re*re + im*im) * inv
	}
	return out, cbuf
}
