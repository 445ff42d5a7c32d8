package dsp

import "math"

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes descriptive statistics of xs. An empty input yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.N = len(xs)
	s.Min = xs[0]
	s.Max = xs[0]
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi); values outside
// the range are clamped into the first/last bin so no event is lost (tail
// latencies matter in the paper's Fig. 11).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram returns a histogram with bins equal-width bins over
// [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("dsp: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	b := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// TailFraction returns the fraction of observations at or above x.
func (h *Histogram) TailFraction(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	first := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if first < 0 {
		first = 0
	}
	n := 0
	for i := first; i < len(h.Counts); i++ {
		n += h.Counts[i]
	}
	return float64(n) / float64(h.total)
}
