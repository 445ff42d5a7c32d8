package dsp

import "math"

// SpectralDistance returns the Hellinger distance between two equal-length
// non-negative spectra: the Euclidean distance between their element-wise
// square roots. On frame-normalised spectra it is bounded, insensitive to
// the near-empty bins that dominate log-spectral measures, and driven by
// where the energy actually sits — which is what distinguishes two loops'
// signatures.
func SpectralDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := math.Sqrt(math.Abs(a[i])) - math.Sqrt(math.Abs(b[i]))
		sum += d * d
	}
	return math.Sqrt(sum)
}
