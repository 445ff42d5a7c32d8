package power

import (
	"fmt"
	"math"
	"testing"
)

func TestCyclePowerMonotone(t *testing.T) {
	w := DefaultWeights()
	idle := w.CycleRef(&Activity{})
	if idle != w.Base {
		t.Fatalf("idle power %v, want base %v", idle, w.Base)
	}
	stalled := w.CycleRef(&Activity{MissesOut: 2})
	if stalled <= idle {
		t.Fatal("miss-wait must add a little power")
	}
	busy := w.CycleRef(&Activity{FetchActive: true, Issued: 2, IntALU: 2})
	if busy <= 2*stalled {
		t.Fatalf("busy power %v not well above stalled %v", busy, stalled)
	}
	fp := w.CycleRef(&Activity{FetchActive: true, Issued: 2, FPMulDiv: 2})
	intOnly := w.CycleRef(&Activity{FetchActive: true, Issued: 2, IntALU: 2})
	if fp <= intOnly {
		t.Fatal("FP units must draw more than integer ALUs")
	}
}

func TestCyclePowerAdditive(t *testing.T) {
	w := DefaultWeights()
	a := Activity{Issued: 1, IntALU: 1}
	b := Activity{Issued: 1, MemAccesses: 1}
	pa, pb := w.CycleRef(&a), w.CycleRef(&b)
	combined := w.CycleRef(&Activity{Issued: 2, IntALU: 1, MemAccesses: 1})
	if math.Abs((pa+pb-w.Base)-combined) > 1e-12 {
		t.Fatalf("power not additive: %v + %v vs %v", pa, pb, combined)
	}
}

func TestIntervalSampler(t *testing.T) {
	s := NewIntervalSampler(4)
	in := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.PushBlock(in[:3])
	s.PushBlock(in[3:])
	s.Flush()
	got := s.Samples()
	want := []float64{1.5, 5.5, 8.5} // (0+1+2+3)/4, (4..7)/4, (8+9)/2
	if len(got) != 3 {
		t.Fatalf("samples %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}
}

func TestIntervalSamplerRate(t *testing.T) {
	s := NewIntervalSampler(20)
	if got := s.SampleRate(1e9); got != 50e6 {
		t.Fatalf("sample rate %v, want 50 MHz", got)
	}
	if s.CyclesPerSample() != 20 {
		t.Fatal("cycles per sample wrong")
	}
}

func TestIntervalSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window must panic")
		}
	}()
	NewIntervalSampler(0)
}

func TestFlushEmptyIsNoop(t *testing.T) {
	s := NewIntervalSampler(4)
	s.Flush()
	if len(s.Samples()) != 0 {
		t.Fatal("flush of empty sampler emitted a sample")
	}
}

// refSampler is the per-cycle interval sampler IntervalSampler.PushBlock
// is checked against: one add per cycle, a sample when a window fills.
type refSampler struct {
	d       int
	acc     float64
	n       int
	samples []float64
}

func (r *refSampler) pushCycle(p float64) {
	r.acc += p
	r.n++
	if r.n == r.d {
		r.samples = append(r.samples, r.acc/float64(r.n))
		r.acc, r.n = 0, 0
	}
}

func (r *refSampler) flush() {
	if r.n > 0 {
		r.samples = append(r.samples, r.acc/float64(r.n))
		r.acc, r.n = 0, 0
	}
}

// chaotic returns n deterministic values from the logistic map (x0 = 0.3;
// 0.5 would fall onto the fixed point 0 after two steps).
func chaotic(n int) []float64 {
	in := make([]float64, n)
	x := 0.3
	for i := range in {
		x = 4 * x * (1 - x)
		in[i] = x
	}
	return in
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s sample %d: %v != %v", what, i, got[i], want[i])
		}
	}
}

// TestIntervalSamplerPushBlockBitIdentical drives the sampler through
// ragged block sizes and requires bitwise equality with the per-cycle
// oracle, including partial windows left open across calls.
func TestIntervalSamplerPushBlockBitIdentical(t *testing.T) {
	in := chaotic(10007)
	for _, cps := range []int{1, 3, 20, 64, 997} {
		ref := &refSampler{d: cps}
		for _, p := range in {
			ref.pushCycle(p)
		}
		ref.flush()
		s := NewIntervalSampler(cps)
		for pos, i := 0, 0; pos < len(in); i++ {
			n := min((i*i*31+7)%400, len(in)-pos)
			s.PushBlock(in[pos : pos+n])
			pos += n
		}
		s.Flush()
		sameBits(t, fmt.Sprintf("cps %d", cps), s.Samples(), ref.samples)
	}
}

// TestIntervalSamplerBlockEdges pushes every block size from 0 to
// 2·window+1 in turn, flushing in the middle of windows, so blocks that
// only extend an open window, blocks that close one and blocks of one are
// all compared with the per-cycle oracle bit for bit.
func TestIntervalSamplerBlockEdges(t *testing.T) {
	for _, d := range []int{1, 20} {
		in := chaotic(2 * (2*d + 2) * (2*d + 2))
		ref := &refSampler{d: d}
		s := NewIntervalSampler(d)
		pos, midFlush := 0, false
		for size := 0; size <= 2*d+1; size++ {
			blk := in[pos : pos+size]
			pos += size
			for _, p := range blk {
				ref.pushCycle(p)
			}
			s.PushBlock(blk)
			if size%3 == 2 {
				midFlush = midFlush || s.n > 0
				ref.flush()
				s.Flush()
			}
		}
		ref.flush()
		s.Flush()
		if d > 1 && !midFlush {
			t.Fatalf("window %d: no flush landed inside a window", d)
		}
		sameBits(t, fmt.Sprintf("window %d", d), s.Samples(), ref.samples)
	}
}
