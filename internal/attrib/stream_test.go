package attrib

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"emprof/internal/core"
	"emprof/internal/dsp"
)

// streamFrames collects the raw (pre-smoothing) per-frame decisions of a
// StreamAttributor fed in the given chunk sizes.
func streamFrames(t *testing.T, m *Model, xs []float64, chunks []int) []int16 {
	t.Helper()
	a, err := NewStreamAttributor(m)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; off < len(xs); i++ {
		n := chunks[i%len(chunks)]
		if off+n > len(xs) {
			n = len(xs) - off
		}
		a.Push(xs[off : off+n])
		off += n
	}
	return append([]int16(nil), a.decisions...)
}

// batchFrames is the whole-capture oracle of the frame decisions
// (Attribute before smoothing): a short-time Fourier transform of xs,
// each frame's Hann-windowed power spectrum scaled to unit total power,
// matched to the nearest signature.
func batchFrames(m *Model, xs []float64) []int16 {
	w := dsp.Hann(m.FrameLen)
	var out []int16
	for start := 0; start+m.FrameLen <= len(xs); start += m.Hop {
		f := dsp.PowerSpectrum(xs[start:start+m.FrameLen], w)
		sum := 0.0
		for _, v := range f {
			sum += v
		}
		if sum > 0 {
			inv := 1 / sum
			for i := range f {
				f[i] *= inv
			}
		}
		best, bestD := 0, 1e308
		for i := range m.Signatures {
			if d := dsp.SpectralDistance(f, m.Signatures[i].Spectrum); d < bestD {
				best, bestD = i, d
			}
		}
		out = append(out, int16(best))
	}
	return out
}

func TestStreamDecisionsMatchBatch(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(trainCap, trainSpans, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	testCap, _ := synthRegions(3000, testFreqs, []uint16{3, 1, 2, 1})
	want := batchFrames(m, testCap.Samples)
	if len(want) == 0 {
		t.Fatal("no batch frames")
	}
	rng := rand.New(rand.NewSource(11))
	for trial, chunks := range [][]int{
		{len(testCap.Samples)},
		{1000},
		{7, 513, 2048, 64},
		{1 + rng.Intn(3000), 1 + rng.Intn(3000), 1 + rng.Intn(3000)},
	} {
		got := streamFrames(t, m, testCap.Samples, chunks)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d stream frames, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: frame %d decided %d, batch decided %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestStreamSummarize(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(trainCap, trainSpans, TrainConfig{Names: map[uint16]string{1: "fa", 2: "fb", 3: "fc"}})
	if err != nil {
		t.Fatal(err)
	}
	// Regions 2,3 back to back, 6000 samples each.
	testCap, _ := synthRegions(6000, testFreqs, []uint16{2, 3})
	a, err := NewStreamAttributor(m)
	if err != nil {
		t.Fatal(err)
	}
	a.Push(testCap.Samples)
	// Stalls well inside each region (away from the boundary at 6000).
	stalls := []core.Stall{
		{StartSample: 2000, Cycles: 100},
		{StartSample: 3000, Cycles: 150},
		{StartSample: 9000, Cycles: 400},
	}
	regs := a.Summarize(stalls)
	if len(regs) != 2 {
		t.Fatalf("regions %d, want 2: %+v", len(regs), regs)
	}
	if regs[0].Region != 2 || regs[0].Misses != 2 || regs[0].StallCycles != 250 || regs[0].Name != "fb" {
		t.Fatalf("region 2 summary wrong: %+v", regs[0])
	}
	if regs[1].Region != 3 || regs[1].Misses != 1 || regs[1].StallCycles != 400 {
		t.Fatalf("region 3 summary wrong: %+v", regs[1])
	}
	if got := a.Summarize(nil); got != nil {
		t.Fatalf("empty stall list summarised to %+v", got)
	}
}

func TestStreamDrop(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(trainCap, trainSpans, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	testCap, _ := synthRegions(6000, testFreqs, []uint16{2, 3})

	full, _ := NewStreamAttributor(m)
	full.Push(testCap.Samples)
	wantLate := full.Summarize([]core.Stall{{StartSample: 9000, Cycles: 400}})

	a, _ := NewStreamAttributor(m)
	a.Push(testCap.Samples[:8000])
	a.Drop(7000)
	a.Push(testCap.Samples[8000:])
	if int(a.decBase) == 0 {
		t.Fatal("Drop retained everything")
	}
	if got := a.Summarize([]core.Stall{{StartSample: 9000, Cycles: 400}}); len(got) != 1 ||
		got[0].Region != wantLate[0].Region || got[0].StallCycles != wantLate[0].StallCycles {
		t.Fatalf("post-Drop summary %+v, want %+v", got, wantLate)
	}
	// Frames before the cut clamp to the retained edge rather than crash.
	if got := a.Summarize([]core.Stall{{StartSample: 10, Cycles: 1}}); len(got) != 1 {
		t.Fatalf("pre-cut stall not clamped: %+v", got)
	}
}

// TestStreamFrameGeometries checks the stream's frame decisions against
// the oracle under random push splits, for hops shorter than, equal to
// and longer than the frame — the last leaves gaps between frames, so a
// push can end before the next frame starts.
func TestStreamFrameGeometries(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	testCap, testSpans := synthRegions(3000, testFreqs, []uint16{3, 1, 2, 1})
	rng := rand.New(rand.NewSource(5))
	for _, g := range []struct{ frameLen, hop int }{{256, 96}, {256, 256}, {256, 700}, {4, 8}} {
		m, err := Train(trainCap, trainSpans, TrainConfig{FrameLen: g.frameLen, Hop: g.hop})
		if err != nil {
			t.Fatal(err)
		}
		want := batchFrames(m, testCap.Samples)
		if len(want) == 0 {
			t.Fatalf("%d/%d: no oracle frames", g.frameLen, g.hop)
		}
		for trial := 0; trial < 8; trial++ {
			chunks := make([]int, 1+rng.Intn(5))
			for i := range chunks {
				chunks[i] = 1 + rng.Intn(2*g.hop+g.frameLen)
			}
			got := streamFrames(t, m, testCap.Samples, chunks)
			if !slices.Equal(got, want) {
				t.Fatalf("%d/%d, pushes of %v: stream decided %d frames, oracle %d, or a frame differs",
					g.frameLen, g.hop, chunks, len(got), len(want))
			}
		}
		if _, err := m.Attribute(testCap, testSpans); err != nil {
			t.Fatalf("%d/%d: Attribute: %v", g.frameLen, g.hop, err)
		}
	}
}

func TestStreamAttributorValidation(t *testing.T) {
	if _, err := NewStreamAttributor(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewStreamAttributor(&Model{Signatures: []Signature{{Region: 1}}}); err == nil {
		t.Fatal("zero frame geometry accepted")
	}
	sig := func(spec ...float64) []Signature {
		s := make([]float64, 3) // NextPow2(4)/2+1 bins
		copy(s, spec)
		return []Signature{{Region: 1, Spectrum: s}}
	}
	if _, err := NewStreamAttributor(&Model{Signatures: sig(0.5, 0.5), FrameLen: 4, Hop: 2}); err != nil {
		t.Fatalf("valid model refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"frame too long", &Model{Signatures: sig(), FrameLen: maxFrameLen + 1, Hop: 1}},
		{"hop too long", &Model{Signatures: sig(), FrameLen: 4, Hop: maxFrameLen + 1}},
		{"short spectrum", &Model{Signatures: []Signature{{Region: 1, Spectrum: []float64{1, 0}}}, FrameLen: 4, Hop: 2}},
		{"long spectrum", &Model{Signatures: []Signature{{Region: 1, Spectrum: []float64{1, 0, 0, 0}}}, FrameLen: 4, Hop: 2}},
		{"negative power", &Model{Signatures: sig(1, -0.1), FrameLen: 4, Hop: 2}},
		{"NaN power", &Model{Signatures: sig(math.NaN()), FrameLen: 4, Hop: 2}},
		{"infinite power", &Model{Signatures: sig(math.Inf(1)), FrameLen: 4, Hop: 2}},
	} {
		if _, err := NewStreamAttributor(tc.m); err == nil {
			t.Errorf("%s: model accepted", tc.name)
		}
	}
}
