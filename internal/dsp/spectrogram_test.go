package dsp

import (
	"math"
	"testing"
)

func TestWindowShapes(t *testing.T) {
	for _, c := range []struct {
		name string
		w    []float64
		ends float64
	}{
		{"hann", Hann(33), 0},
		{"hamming", Hamming(33), 0.08},
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

func TestSTFTGeometry(t *testing.T) {
	x := make([]float64, 1000)
	sg := STFT(x, 1000, 128, 64)
	wantFrames := (1000-128)/64 + 1
	if sg.NumFrames() != wantFrames {
		t.Fatalf("frames %d, want %d", sg.NumFrames(), wantFrames)
	}
	if got := sg.FrameTime(0); !almostEqual(got, 64.0/1000, 1e-12) {
		t.Fatalf("frame 0 time %v", got)
	}
	if got := sg.BinFrequency(1); !almostEqual(got, 1000.0/128, 1e-12) {
		t.Fatalf("bin 1 frequency %v", got)
	}
}

func TestSTFTDetectsFrequencyChange(t *testing.T) {
	// First half: 50 Hz tone; second half: 200 Hz tone at fs = 1 kHz.
	const fs = 1000.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		f := 50.0
		if i >= n/2 {
			f = 200.0
		}
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	sg := STFT(x, fs, 256, 128)
	peak := func(frame []float64) int {
		best := 1
		for k := 2; k < len(frame); k++ {
			if frame[k] > frame[best] {
				best = k
			}
		}
		return best
	}
	early := peak(sg.Frames[0])
	late := peak(sg.Frames[sg.NumFrames()-1])
	if fe := sg.BinFrequency(early); math.Abs(fe-50) > 10 {
		t.Fatalf("early peak at %v Hz, want ~50", fe)
	}
	if fl := sg.BinFrequency(late); math.Abs(fl-200) > 10 {
		t.Fatalf("late peak at %v Hz, want ~200", fl)
	}
}

func TestNormalizeFrames(t *testing.T) {
	sg := &Spectrogram{Frames: [][]float64{{1, 3}, {0, 0}, {10, 10}}}
	sg.NormalizeFrames()
	if sum := sg.Frames[0][0] + sg.Frames[0][1]; !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("frame 0 sum %v, want 1", sum)
	}
	// All-zero frames stay zero rather than dividing by zero.
	if sg.Frames[1][0] != 0 {
		t.Fatal("zero frame modified")
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

func TestMeanSpectrum(t *testing.T) {
	m := MeanSpectrum([][]float64{{1, 2}, {3, 4}})
	if !almostEqual(m[0], 2, 1e-12) || !almostEqual(m[1], 3, 1e-12) {
		t.Fatalf("mean %v, want [2 3]", m)
	}
	if MeanSpectrum(nil) != nil {
		t.Fatal("mean of no frames must be nil")
	}
}
