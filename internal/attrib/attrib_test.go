package attrib

import (
	"math"
	"testing"

	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/sim"
)

// synthRegions builds a capture whose signal alternates between regions
// with distinct modulation frequencies, plus the matching ground-truth
// spans. Each region lasts regLen samples.
func synthRegions(regLen int, freqs map[uint16]float64, order []uint16) (*em.Capture, []sim.RegionSpan) {
	const fs = 40e6
	const clock = 1e9
	cps := clock / fs
	var samples []float64
	var spans []sim.RegionSpan
	pos := 0
	for _, r := range order {
		f := freqs[r]
		for i := 0; i < regLen; i++ {
			tm := float64(pos+i) / fs
			samples = append(samples, 1.0+0.4*math.Sin(2*math.Pi*f*tm))
		}
		spans = append(spans, sim.RegionSpan{
			Region:     r,
			StartCycle: uint64(float64(pos) * cps),
			EndCycle:   uint64(float64(pos+regLen) * cps),
		})
		pos += regLen
	}
	return &em.Capture{Samples: samples, SampleRate: fs, ClockHz: clock}, spans
}

var testFreqs = map[uint16]float64{
	1: 1.2e6,
	2: 4.0e6,
	3: 9.5e6,
}

func TestTrainBuildsSignatures(t *testing.T) {
	cap, spans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(cap, spans, TrainConfig{Names: map[uint16]string{1: "a", 2: "b", 3: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Signatures) != 3 {
		t.Fatalf("signatures %d, want 3", len(m.Signatures))
	}
	for _, s := range m.Signatures {
		if s.Frames == 0 || len(s.Spectrum) == 0 {
			t.Fatalf("empty signature %+v", s.Region)
		}
	}
	if m.Signatures[0].Name != "a" {
		t.Fatal("signature names lost")
	}
}

func TestTrainErrors(t *testing.T) {
	cap, _ := synthRegions(1000, testFreqs, []uint16{1})
	if _, err := Train(cap, nil, TrainConfig{}); err == nil {
		t.Fatal("training without spans accepted")
	}
}

func TestAttributeRecoversRegions(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(trainCap, trainSpans, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A different execution order with different lengths.
	testCap, testSpans := synthRegions(3000, testFreqs, []uint16{3, 1, 2, 1})
	seg, err := m.Attribute(testCap, testSpans)
	if err != nil {
		t.Fatal(err)
	}
	if seg.FrameAccuracy < 0.85 {
		t.Fatalf("frame accuracy %v, want >= 0.85", seg.FrameAccuracy)
	}
	if len(seg.Segments) < 4 {
		t.Fatalf("segments %d, want >= 4", len(seg.Segments))
	}
	// Segments must tile the capture contiguously.
	for i := 1; i < len(seg.Segments); i++ {
		if seg.Segments[i].StartSample != seg.Segments[i-1].EndSample {
			t.Fatal("segments not contiguous")
		}
	}
}

func TestAttributeGainInvariance(t *testing.T) {
	trainCap, trainSpans := synthRegions(4000, testFreqs, []uint16{1, 2, 3})
	m, err := Train(trainCap, trainSpans, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	testCap, testSpans := synthRegions(3000, testFreqs, []uint16{2, 3, 1})
	// Scale the test capture: frame normalisation must absorb it.
	for i := range testCap.Samples {
		testCap.Samples[i] *= 4.2
	}
	seg, err := m.Attribute(testCap, testSpans)
	if err != nil {
		t.Fatal(err)
	}
	if seg.FrameAccuracy < 0.85 {
		t.Fatalf("frame accuracy %v under gain change", seg.FrameAccuracy)
	}
}

func TestAttributeErrors(t *testing.T) {
	m := &Model{}
	if _, err := m.Attribute(&em.Capture{}, nil); err == nil {
		t.Fatal("empty model accepted")
	}
	m2 := &Model{Signatures: []Signature{{Region: 1, Spectrum: make([]float64, 129)}}, FrameLen: 256, Hop: 128}
	short := &em.Capture{Samples: make([]float64, 10), SampleRate: 40e6, ClockHz: 1e9}
	if _, err := m2.Attribute(short, nil); err == nil {
		t.Fatal("too-short capture accepted")
	}
}

func TestJoinProfile(t *testing.T) {
	seg := &Segmentation{Segments: []Segment{
		{Region: 1, Name: "f1", StartSample: 0, EndSample: 100, StartCycle: 0, EndCycle: 2500},
		{Region: 2, Name: "f2", StartSample: 100, EndSample: 200, StartCycle: 2500, EndCycle: 5000},
	}}
	prof := &core.Profile{
		SampleRate: 40e6, ClockHz: 1e9,
		Stalls: []core.Stall{
			{StartSample: 10, Cycles: 300},
			{StartSample: 20, Cycles: 200},
			{StartSample: 150, Cycles: 400},
		},
	}
	reports := seg.JoinProfile(prof)
	if len(reports) != 2 {
		t.Fatalf("reports %d, want 2", len(reports))
	}
	r1, r2 := reports[0], reports[1]
	if r1.Misses != 2 || r2.Misses != 1 {
		t.Fatalf("misses %d/%d, want 2/1", r1.Misses, r2.Misses)
	}
	if r1.StallCycles != 500 || r2.StallCycles != 400 {
		t.Fatalf("stall cycles %v/%v", r1.StallCycles, r2.StallCycles)
	}
	if r1.AvgMissLatency != 250 {
		t.Fatalf("avg latency %v, want 250", r1.AvgMissLatency)
	}
	if r1.MissRatePerMcycle == 0 || r1.StallPct == 0 {
		t.Fatal("rates not computed")
	}
}

// TestSpectrumNormalizes checks the frame spectrum training and matching
// share: a frame with power is scaled to unit total power, whatever its
// level, and a frame without power stays all zero rather than dividing
// by zero.
func TestSpectrumNormalizes(t *testing.T) {
	sp := newSpectrum(64)
	x := make([]float64, 64)
	for i := range x {
		x[i] = 3 + math.Sin(float64(i))
	}
	f := append([]float64(nil), sp.of(x)...)
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frame power sums to %v, want 1", sum)
	}
	for i := range x {
		x[i] *= 7
	}
	for i, v := range sp.of(x) {
		if math.Abs(v-f[i]) > 1e-12 {
			t.Fatalf("bin %d reads %v at 7× the level, %v at 1×", i, v, f[i])
		}
	}
	for i, v := range sp.of(make([]float64, 64)) {
		if v != 0 {
			t.Fatalf("silent frame's bin %d reads %v", i, v)
		}
	}
}

func TestSmoothDecisions(t *testing.T) {
	a := &StreamAttributor{decisions: []int16{0, 0, 1, 0, 0, 2, 2, 2, 0, 2, 2}}
	d := make([]int16, len(a.decisions))
	for i := range d {
		d[i] = a.vote(int64(i))
	}
	// Isolated outliers must be voted away.
	if d[2] != 0 {
		t.Fatalf("outlier survived: %v", d)
	}
	if d[6] != 2 {
		t.Fatalf("majority run flipped: %v", d)
	}
	// Ties go to the value that reaches the count first, and the vote
	// clamps at both ends.
	if got := majority([]int16{3, 1, 1, 3}); got != 1 {
		t.Fatalf("tie vote %d, want 1", got)
	}
	if d[0] != 0 || d[len(d)-1] != 2 {
		t.Fatalf("edge votes %d, %d, want 0, 2", d[0], d[len(d)-1])
	}
}
