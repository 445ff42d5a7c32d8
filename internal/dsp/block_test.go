package dsp

import "testing"

// blockRand is a tiny deterministic generator for test signals (kept local
// so dsp tests do not depend on internal/sim).
type blockRand uint64

func (r *blockRand) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(int32(uint64(*r)>>33)) / (1 << 24)
}

func randSignal(seed uint64, n int) []float64 {
	r := blockRand(seed)
	s := make([]float64, n)
	for i := range s {
		s[i] = r.next()
	}
	return s
}

// splitSizes turns a signal into a deterministic sequence of block lengths
// covering empty blocks, size-1 blocks, and large uneven chunks.
func splitSizes(seed uint64, total int) []int {
	r := blockRand(seed)
	var sizes []int
	left := total
	for left > 0 {
		c := int(uint64(r.next()*1e9)) % 17 // 0..16, including empty blocks
		if c > left {
			c = left
		}
		sizes = append(sizes, c)
		left -= c
	}
	return sizes
}

// TestFIRProcessBlockBitIdentical drives the same signal through a scalar
// Process loop and through ProcessBlock with many different block splits;
// every output must match bit for bit, for every tap count, including when
// Process and ProcessBlock calls interleave on one filter.
func TestFIRProcessBlockBitIdentical(t *testing.T) {
	for _, taps := range [][]float64{
		{1.5},
		{0.25, 0.5},
		{0.25, 0.5, -0.125},
		LowpassFIR(0.3, 9).Taps(),
		LowpassFIR(0.1, 31).Taps(),
		LowpassFIR(0.05, 64).Taps(),
	} {
		in := randSignal(uint64(len(taps)), 700)
		ref := NewFIR(taps)
		want := make([]float64, len(in))
		for i, x := range in {
			want[i] = ref.Process(x)
		}
		for split := uint64(1); split <= 5; split++ {
			f := NewFIR(taps)
			var got []float64
			pos := 0
			for _, sz := range splitSizes(split, len(in)) {
				blk := in[pos : pos+sz]
				if sz%2 == 1 {
					// Odd blocks go through the scalar path to prove
					// state interchanges exactly.
					for _, x := range blk {
						got = append(got, f.Process(x))
					}
				} else {
					got = append(got, f.ProcessBlock(blk, nil)...)
				}
				pos += sz
			}
			if len(got) != len(want) {
				t.Fatalf("taps=%d split=%d: %d outputs, want %d", len(taps), split, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("taps=%d split=%d sample %d: got %v, want %v (bitwise)",
						len(taps), split, i, got[i], want[i])
				}
			}
		}
	}
}

// TestProcessBlockEdgeCases is the table-driven aliasing / empty-input
// audit across every ProcessBlock implementation in the package.
func TestProcessBlockEdgeCases(t *testing.T) {
	taps := []float64{0.25, 0.5, -0.125, 0.0625, 0.5}
	in := randSignal(7, 64)

	t.Run("fir-empty", func(t *testing.T) {
		f := NewFIR(taps)
		f.Process(1)
		if out := f.ProcessBlock(nil, nil); len(out) != 0 {
			t.Fatalf("empty block produced %d outputs", len(out))
		}
		// State must be untouched by the empty call.
		g := NewFIR(taps)
		g.Process(1)
		if a, b := f.Process(2), g.Process(2); a != b {
			t.Fatalf("empty block disturbed state: %v vs %v", a, b)
		}
	})
	t.Run("fir-aliased", func(t *testing.T) {
		f, g := NewFIR(taps), NewFIR(taps)
		buf := append([]float64(nil), in...)
		want := g.ProcessBlock(in, nil)
		got := f.ProcessBlock(buf, buf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aliased output %d: got %v, want %v", i, got[i], want[i])
			}
		}
	})
	t.Run("fir-out-too-small", func(t *testing.T) {
		f, g := NewFIR(taps), NewFIR(taps)
		small := make([]float64, 3)
		got := f.ProcessBlock(in, small)
		want := g.ProcessBlock(in, nil)
		if len(got) != len(in) {
			t.Fatalf("grown output has %d samples, want %d", len(got), len(in))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("grown output %d: got %v, want %v", i, got[i], want[i])
			}
		}
	})
	t.Run("movavg-empty", func(t *testing.T) {
		m := NewMovingAverage(4)
		m.Process(3)
		if out := m.ProcessBlock(nil, nil); len(out) != 0 {
			t.Fatalf("empty block produced %d outputs", len(out))
		}
		n := NewMovingAverage(4)
		n.Process(3)
		if a, b := m.Process(5), n.Process(5); a != b {
			t.Fatalf("empty block disturbed state: %v vs %v", a, b)
		}
	})
	t.Run("movavg-aliased", func(t *testing.T) {
		m, n := NewMovingAverage(5), NewMovingAverage(5)
		buf := append([]float64(nil), in...)
		want := n.ProcessBlock(in, nil)
		got := m.ProcessBlock(buf, buf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aliased output %d: got %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// TestMovingAverageBlockBitIdentical mirrors the FIR split test for the
// moving average, interleaving scalar and block calls.
func TestMovingAverageBlockBitIdentical(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 17} {
		in := randSignal(uint64(w)*31, 400)
		ref := NewMovingAverage(w)
		want := make([]float64, len(in))
		for i, x := range in {
			want[i] = ref.Process(x)
		}
		for split := uint64(1); split <= 5; split++ {
			m := NewMovingAverage(w)
			var got []float64
			pos := 0
			for _, sz := range splitSizes(split+100, len(in)) {
				blk := in[pos : pos+sz]
				if sz%3 == 1 {
					for _, x := range blk {
						got = append(got, m.Process(x))
					}
				} else {
					got = append(got, m.ProcessBlock(blk, nil)...)
				}
				pos += sz
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window=%d split=%d sample %d: got %v, want %v", w, split, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLowpassFIRCached verifies that the tap cache returns equal designs
// with fully independent streaming state, and that Taps() copies stay safe
// to mutate.
func TestLowpassFIRCached(t *testing.T) {
	a := LowpassFIR(0.11, 21)
	b := LowpassFIR(0.11, 21)
	ta, tb := a.Taps(), b.Taps()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("cached design differs at tap %d: %v vs %v", i, ta[i], tb[i])
		}
	}
	// Mutating a returned copy must not poison the cache.
	ta[0] = 1e9
	c := LowpassFIR(0.11, 21)
	if c.Taps()[0] == 1e9 {
		t.Fatal("Taps() exposed the cached tap vector")
	}
	// Independent state: feeding a leaves b at rest.
	a.Process(123)
	if y := b.Process(0); y != 0 {
		t.Fatalf("cached filters share streaming state: got %v, want 0", y)
	}
}

// TestPowerSpectrumIntoMatches confirms the scratch variant reproduces
// PowerSpectrum exactly and survives workspace reuse across sizes.
func TestPowerSpectrumIntoMatches(t *testing.T) {
	var cbuf []complex128
	var out []float64
	for _, n := range []int{16, 100, 33, 256, 7} {
		x := randSignal(uint64(n), n)
		w := Hann(n)
		want := PowerSpectrum(x, w)
		out, cbuf = PowerSpectrumInto(x, w, cbuf, out)
		if len(out) != len(want) {
			t.Fatalf("n=%d: %d bins, want %d", n, len(out), len(want))
		}
		for k := range want {
			if out[k] != want[k] {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, out[k], want[k])
			}
		}
	}
}

// TestHannCachedSharedAndEqual verifies the cached window equals a fresh
// build and is shared between calls.
func TestHannCachedSharedAndEqual(t *testing.T) {
	w1, w2 := HannCached(129), HannCached(129)
	if &w1[0] != &w2[0] {
		t.Fatal("HannCached did not share the window")
	}
	fresh := Hann(129)
	for i := range fresh {
		if w1[i] != fresh[i] {
			t.Fatalf("cached window differs at %d", i)
		}
	}
}

// BenchmarkFIRProcessBlock contrasts the scalar loop with the flat block
// kernel for the receiver-sized 9-tap RBW filter.
func BenchmarkFIRProcessBlock(b *testing.B) {
	taps := LowpassFIR(0.4, 9).Taps()
	in := randSignal(1, 4096)
	b.Run("scalar", func(b *testing.B) {
		f := NewFIR(taps)
		out := make([]float64, len(in))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, x := range in {
				out[j] = f.Process(x)
			}
		}
		b.SetBytes(int64(8 * len(in)))
	})
	b.Run("block", func(b *testing.B) {
		f := NewFIR(taps)
		out := make([]float64, len(in))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.ProcessBlock(in, out)
		}
		b.SetBytes(int64(8 * len(in)))
	})
}
