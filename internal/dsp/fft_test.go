package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestFFTImpulse(t *testing.T) {
	// The FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if !almostEqual(real(v), 1, 1e-12) || !almostEqual(imag(v), 0, 1e-12) {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	// A pure sinusoid at bin k concentrates its energy at bins k and N-k.
	const n = 256
	const k = 19
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	FFT(x)
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if !almostEqual(mag, n/2, 1e-6) {
				t.Errorf("bin %d magnitude = %v, want %v", i, mag, n/2)
			}
		} else if mag > 1e-6 {
			t.Errorf("bin %d magnitude = %v, want ~0", i, mag)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	a := []complex128{1, 2i, 3, -1}
	b := []complex128{0.5, -2, 1i, 4}
	sum := make([]complex128, 4)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	FFT(fa)
	FFT(fb)
	FFT(sum)
	for i := range sum {
		if cmplx.Abs(sum[i]-(fa[i]+fb[i])) > 1e-12 {
			t.Fatalf("bin %d: FFT(a+b)=%v != FFT(a)+FFT(b)=%v", i, sum[i], fa[i]+fb[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Sum |x|^2 == (1/N) Sum |X|^2.
	x := []complex128{1, 2, 3, 4, 5, 6, 7, 8}
	timeEnergy := 0.0
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	FFT(x)
	freqEnergy := 0.0
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(len(x))
	if !almostEqual(timeEnergy, freqEnergy, 1e-9) {
		t.Fatalf("Parseval violated: time=%v freq=%v", timeEnergy, freqEnergy)
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 12")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerSpectrumDCAndTone(t *testing.T) {
	const n = 128
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 + math.Sin(2*math.Pi*8*float64(i)/n)
	}
	spec := PowerSpectrum(x, nil)
	if len(spec) != n/2+1 {
		t.Fatalf("spectrum length %d, want %d", len(spec), n/2+1)
	}
	// DC bin should dominate, bin 8 should be the largest non-DC bin.
	best := 1
	for k := 2; k < len(spec); k++ {
		if spec[k] > spec[best] {
			best = k
		}
	}
	if best != 8 {
		t.Fatalf("dominant non-DC bin %d, want 8", best)
	}
	if spec[0] < spec[8] {
		t.Fatalf("DC power %v below tone power %v", spec[0], spec[8])
	}
}
