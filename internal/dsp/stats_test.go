package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Fatalf("bad summary: %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almostEqual(s.StdDev, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev %v, want %v", s.StdDev, math.Sqrt(32.0/7))
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if s := Summarize([]float64{3}); s.N != 1 || s.Mean != 3 || s.StdDev != 0 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 9.9, 10, 11, -1} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("total %d, want 7", h.Total())
	}
	// Bin 0 gets {0, 1.9, -1(clamped)}, bin 1 gets {2},
	// bin 4 gets {9.9, 10(clamped), 11(clamped)}.
	want := []int{3, 1, 0, 0, 3}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Fatalf("counts %v, want %v", h.Counts, want)
		}
	}
}

func TestHistogramFractionsAndTail(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i * 10))
	}
	if got := h.TailFraction(50); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("tail(50) = %v, want 0.5", got)
	}
	if got := h.TailFraction(-10); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("tail(-10) = %v, want 1", got)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("bin 0 centre %v, want 1", got)
	}
	if got := h.BinCenter(4); !almostEqual(got, 9, 1e-12) {
		t.Fatalf("bin 4 centre %v, want 9", got)
	}
}

func TestHistogramPropertyTotalPreserved(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 17)
		added := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			added++
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == added && h.Total() == added
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		bins   int
	}{{0, 0, 5}, {1, 0, 5}, {0, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%d) did not panic", c.lo, c.hi, c.bins)
				}
			}()
			NewHistogram(c.lo, c.hi, c.bins)
		}()
	}
}
