package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

// refFIR is the sample-at-a-time filter FIR.ProcessBlock is checked
// against: a circular delay line convolved newest sample first, with no
// block kernel, scratch buffer or unrolling.
type refFIR struct {
	taps []float64
	hist []float64
	pos  int
}

func newRefFIR(taps []float64) *refFIR {
	return &refFIR{taps: taps, hist: make([]float64, len(taps))}
}

// Process filters one input sample and returns the output sample.
func (f *refFIR) Process(x float64) float64 {
	f.hist[f.pos] = x
	acc := 0.0
	idx := f.pos
	for _, t := range f.taps {
		acc += t * f.hist[idx]
		idx--
		if idx < 0 {
			idx = len(f.hist) - 1
		}
	}
	f.pos++
	if f.pos == len(f.hist) {
		f.pos = 0
	}
	return acc
}

func TestFIRIdentity(t *testing.T) {
	in := []float64{1, -2, 3.5, 0}
	for i, y := range NewFIR([]float64{1}).ProcessBlock(in, nil) {
		if y != in[i] {
			t.Fatalf("sample %d: got %v, want %v", i, y, in[i])
		}
	}
}

func TestFIRDelay(t *testing.T) {
	// taps [0,1] delay the input by one sample.
	f := NewFIR([]float64{0, 1})
	in := []float64{1, 2, 3, 4}
	want := []float64{0, 1, 2, 3}
	for i, y := range f.ProcessBlock(in, nil) {
		if y != want[i] {
			t.Fatalf("sample %d: got %v, want %v", i, y, want[i])
		}
	}
}

func TestFIRConvolutionMatchesReference(t *testing.T) {
	taps := []float64{0.25, 0.5, -0.125, 0.0625}
	in := []float64{1, 0, -1, 2, 3, -2, 0.5, 0}
	for i, got := range NewFIR(taps).ProcessBlock(in, nil) {
		want := 0.0
		for k, tap := range taps {
			if i-k >= 0 {
				want += tap * in[i-k]
			}
		}
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("sample %d: got %v, want %v", i, got, want)
		}
	}
}

func TestLowpassFIRDCGain(t *testing.T) {
	dc := make([]float64, 200)
	for i := range dc {
		dc[i] = 1
	}
	// Feed a long DC signal; the steady-state output must be ~1.
	out := LowpassFIR(0.1, 63).ProcessBlock(dc, nil)
	if y := out[len(out)-1]; !almostEqual(y, 1, 1e-9) {
		t.Fatalf("DC gain %v, want 1", y)
	}
}

// toneRMS filters a 1,200-sample tone of the given frequency (cycles per
// sample) and returns the output RMS past the first 200 samples.
func toneRMS(f *FIR, freq float64) float64 {
	in := make([]float64, 1200)
	for i := range in {
		in[i] = math.Sin(2 * math.Pi * freq * float64(i))
	}
	var sumSq float64
	out := f.ProcessBlock(in, nil)[200:]
	for _, y := range out {
		sumSq += y * y
	}
	return math.Sqrt(sumSq / float64(len(out)))
}

func TestLowpassFIRAttenuatesStopband(t *testing.T) {
	// A tone well into the stopband (0.25 cycles/sample).
	if rms := toneRMS(LowpassFIR(0.05, 101), 0.25); rms > 0.01 {
		t.Fatalf("stopband RMS %v, want < 0.01", rms)
	}
}

func TestLowpassFIRPassesPassband(t *testing.T) {
	rms := toneRMS(LowpassFIR(0.2, 101), 0.02)
	want := 1 / math.Sqrt2
	if math.Abs(rms-want) > 0.05 {
		t.Fatalf("passband RMS %v, want ~%v", rms, want)
	}
}

func TestLowpassFIRValidation(t *testing.T) {
	for _, c := range []struct {
		cutoff float64
		taps   int
	}{{0, 11}, {0.5, 11}, {0.6, 11}, {0.1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LowpassFIR(%v, %d) did not panic", c.cutoff, c.taps)
				}
			}()
			LowpassFIR(c.cutoff, c.taps)
		}()
	}
}

func TestMovingAverageExact(t *testing.T) {
	m := NewMovingAverage(3)
	in := []float64{3, 6, 9, 12, 0}
	want := []float64{3, 4.5, 6, 9, 7}
	for i, x := range in {
		if y := m.Process(x); !almostEqual(y, want[i], 1e-12) {
			t.Fatalf("sample %d: got %v, want %v", i, y, want[i])
		}
	}
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		w := int(wRaw%16) + 1
		m := NewMovingAverage(w)
		s := uint64(seed)
		var hist []float64
		for i := 0; i < 100; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			x := float64(int32(s>>33)) / (1 << 24)
			hist = append(hist, x)
			got := m.Process(x)
			lo := len(hist) - w
			if lo < 0 {
				lo = 0
			}
			sum := 0.0
			for _, v := range hist[lo:] {
				sum += v
			}
			want := sum / float64(len(hist)-lo)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverageReset(t *testing.T) {
	m := NewMovingAverage(4)
	m.Process(100)
	m.Process(200)
	m.Reset()
	if y := m.Process(8); !almostEqual(y, 8, 1e-12) {
		t.Fatalf("after reset got %v, want 8", y)
	}
}
