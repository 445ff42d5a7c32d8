package dsp

import (
	"math"
	"testing"
)

func TestWindowShapes(t *testing.T) {
	hamming := make([]float64, 33)
	for i := range hamming {
		hamming[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/32)
	}
	for _, c := range []struct {
		name string
		w    []float64
		ends float64
	}{
		{"hann", Hann(33), 0},
		{"hamming", hamming, 0.08},
	} {
		n := len(c.w)
		if n != 33 {
			t.Fatalf("%s length %d", c.name, n)
		}
		if math.Abs(c.w[0]-c.ends) > 1e-9 || math.Abs(c.w[n-1]-c.ends) > 1e-9 {
			t.Errorf("%s endpoints %v/%v, want %v", c.name, c.w[0], c.w[n-1], c.ends)
		}
		// Symmetric, peak at the centre.
		for i := 0; i < n/2; i++ {
			if math.Abs(c.w[i]-c.w[n-1-i]) > 1e-9 {
				t.Errorf("%s asymmetric at %d", c.name, i)
			}
		}
		if math.Abs(c.w[n/2]-1) > 1e-9 {
			t.Errorf("%s centre %v, want 1", c.name, c.w[n/2])
		}
	}
	if w := Hann(1); w[0] != 1 {
		t.Error("single-point window must be 1")
	}
}

func TestSpectralDistance(t *testing.T) {
	a := []float64{1, 2, 3}
	if d := SpectralDistance(a, a); d != 0 {
		t.Fatalf("self distance %v, want 0", d)
	}
	b := []float64{1, 2, 30}
	c := []float64{1, 2, 3000}
	if SpectralDistance(a, b) >= SpectralDistance(a, c) {
		t.Fatal("distance must grow with spectral difference")
	}
	if d1, d2 := SpectralDistance(a, b), SpectralDistance(b, a); !almostEqual(d1, d2, 1e-12) {
		t.Fatal("distance must be symmetric")
	}
}
