package dsp

import (
	"math"
	"sync"
)

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// hannCache memoises Hann windows by length for callers that rebuild the
// identical window per call (the experiments' figure spectra).
var hannCache sync.Map // int -> []float64

// HannCached returns an n-point Hann window shared across callers. The
// returned slice is cached and MUST NOT be mutated; use Hann for a private
// copy.
func HannCached(n int) []float64 {
	if v, ok := hannCache.Load(n); ok {
		return v.([]float64)
	}
	w := Hann(n)
	hannCache.Store(n, w)
	return w
}
