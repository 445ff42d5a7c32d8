// Package attrib implements Spectral Profiling-style code attribution
// (paper Section VI-D): short-term spectra of the EM signal are compared
// against per-region signatures learned from a training run, segmenting
// the signal timeline into code regions; EMPROF's detected stalls are then
// joined with the segmentation to produce per-function miss statistics
// like the paper's Table V.
//
// Different loops modulate the processor's activity with different
// periods, so their short-term spectra differ; signatures are frame-
// normalised so matching compares spectral *shape*, which survives probe
// gain and supply drift.
package attrib

import (
	"fmt"
	"sort"

	"emprof/internal/core"
	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/sim"
)

// Signature is one region's trained spectral fingerprint.
type Signature struct {
	Region uint16
	Name   string
	// Spectrum is the mean normalised frame spectrum of the region.
	Spectrum []float64
	// Frames is how many training frames contributed.
	Frames int
}

// Model is a trained set of region signatures plus the frame geometry
// they were trained with.
type Model struct {
	Signatures []Signature
	FrameLen   int
	Hop        int
}

// TrainConfig controls signature training.
type TrainConfig struct {
	// FrameLen and Hop are the frame geometry in samples; defaults
	// 1024/512.
	FrameLen, Hop int
	// Names optionally maps region IDs to human-readable names.
	Names map[uint16]string
}

func (c *TrainConfig) setDefaults() {
	if c.FrameLen <= 0 {
		c.FrameLen = 1024
	}
	if c.Hop <= 0 {
		c.Hop = c.FrameLen / 2
	}
}

// spectrum computes frame spectra: the Hann-windowed power spectrum of
// one frame, scaled to unit total power so that matching compares shape
// rather than level (level varies with probe gain and supply voltage,
// which is exactly what must be factored out). Training and matching
// both compute their frames through it.
type spectrum struct {
	win   []float64
	cbuf  []complex128
	frame []float64
}

func newSpectrum(frameLen int) spectrum { return spectrum{win: dsp.Hann(frameLen)} }

// of returns the normalised spectrum of the frame x. The result aliases
// the spectrum's buffer until the next call. A frame without power stays
// all zero.
func (s *spectrum) of(x []float64) []float64 {
	s.frame, s.cbuf = dsp.PowerSpectrumInto(x, s.win, s.cbuf, s.frame[:0])
	sum := 0.0
	for _, v := range s.frame {
		sum += v
	}
	if sum <= 0 {
		return s.frame
	}
	inv := 1 / sum
	for i := range s.frame {
		s.frame[i] *= inv
	}
	return s.frame
}

// Train learns per-region signatures from a capture with ground-truth
// region spans (a labelled training run, the analogue of Spectral
// Profiling's training phase). A region's signature is the mean of the
// normalised spectra of the frames whose centre falls in its spans.
func Train(c *em.Capture, spans []sim.RegionSpan, cfg TrainConfig) (*Model, error) {
	cfg.setDefaults()
	if len(spans) == 0 {
		return nil, fmt.Errorf("attrib: no region spans to train on")
	}
	if err := checkGeometry(cfg.FrameLen, cfg.Hop); err != nil {
		return nil, err
	}
	sp := newSpectrum(cfg.FrameLen)
	cps := c.CyclesPerSample()
	byRegion := make(map[uint16]*Signature)
	for start := 0; start+cfg.FrameLen <= len(c.Samples); start += cfg.Hop {
		centreCycle := uint64((float64(start) + float64(cfg.FrameLen)/2) * cps)
		r, ok := regionAt(spans, centreCycle)
		if !ok {
			continue
		}
		f := sp.of(c.Samples[start : start+cfg.FrameLen])
		sig := byRegion[r]
		if sig == nil {
			sig = &Signature{Region: r, Name: cfg.Names[r], Spectrum: make([]float64, len(f))}
			byRegion[r] = sig
		}
		for i, v := range f {
			sig.Spectrum[i] += v
		}
		sig.Frames++
	}
	if len(byRegion) == 0 {
		return nil, fmt.Errorf("attrib: no frames fell inside labelled spans")
	}
	m := &Model{FrameLen: cfg.FrameLen, Hop: cfg.Hop}
	for _, sig := range byRegion {
		inv := 1 / float64(sig.Frames)
		for i := range sig.Spectrum {
			sig.Spectrum[i] *= inv
		}
		m.Signatures = append(m.Signatures, *sig)
	}
	sort.Slice(m.Signatures, func(i, j int) bool { return m.Signatures[i].Region < m.Signatures[j].Region })
	return m, nil
}

// regionAt returns the region executing at the given cycle.
func regionAt(spans []sim.RegionSpan, cycle uint64) (uint16, bool) {
	for _, sp := range spans {
		if cycle >= sp.StartCycle && cycle < sp.EndCycle {
			return sp.Region, true
		}
	}
	return 0, false
}

// Segment is one attributed span of the signal timeline.
type Segment struct {
	Region uint16
	Name   string
	// StartSample/EndSample delimit the span in the capture (half-open).
	StartSample, EndSample int
	// StartCycle/EndCycle are the same span in cycles.
	StartCycle, EndCycle uint64
}

// Cycles returns the segment's length in cycles.
func (s Segment) Cycles() uint64 { return s.EndCycle - s.StartCycle }

// Segmentation is a full attribution of a capture.
type Segmentation struct {
	Segments []Segment
	// FrameAccuracy is the fraction of frames whose nearest signature
	// matches ground truth, when Attribute was given truth spans.
	FrameAccuracy float64
}

// Attribute segments a capture by nearest-signature matching: it pushes
// the capture through a StreamAttributor and takes each frame's
// majority-smoothed decision, which suppresses isolated mismatches.
// truthSpans may be nil; when provided it is used only to score
// FrameAccuracy, never to decide.
func (m *Model) Attribute(c *em.Capture, truthSpans []sim.RegionSpan) (*Segmentation, error) {
	a, err := NewStreamAttributor(m)
	if err != nil {
		return nil, err
	}
	for xs := c.Samples; len(xs) > 0; {
		k := min(len(xs), attributeBlock)
		a.Push(xs[:k])
		xs = xs[k:]
	}
	n := len(a.decisions)
	if n == 0 {
		return nil, fmt.Errorf("attrib: capture too short for frame length %d", m.FrameLen)
	}
	decisions := make([]int16, n)
	for t := range decisions {
		decisions[t] = a.vote(int64(t))
	}

	cps := c.CyclesPerSample()
	var seg Segmentation
	// Score against truth if provided.
	if truthSpans != nil {
		correct, scored := 0, 0
		for t := 0; t < n; t++ {
			centreCycle := uint64((float64(t*m.Hop) + float64(m.FrameLen)/2) * cps)
			r, ok := regionAt(truthSpans, centreCycle)
			if !ok {
				continue
			}
			scored++
			if m.Signatures[decisions[t]].Region == r {
				correct++
			}
		}
		if scored > 0 {
			seg.FrameAccuracy = float64(correct) / float64(scored)
		}
	}

	// Collapse consecutive identical decisions into segments.
	frameStartSample := func(t int) int { return t * m.Hop }
	start := 0
	for t := 1; t <= n; t++ {
		if t < n && decisions[t] == decisions[start] {
			continue
		}
		sigIdx := decisions[start]
		lo := frameStartSample(start)
		hi := frameStartSample(t-1) + m.FrameLen
		if t == n && hi < len(c.Samples) {
			hi = len(c.Samples)
		}
		if hi > len(c.Samples) {
			hi = len(c.Samples)
		}
		seg.Segments = append(seg.Segments, Segment{
			Region:      m.Signatures[sigIdx].Region,
			Name:        m.Signatures[sigIdx].Name,
			StartSample: lo,
			EndSample:   hi,
			StartCycle:  uint64(float64(lo) * cps),
			EndCycle:    uint64(float64(hi) * cps),
		})
		start = t
	}
	// Make segments contiguous (each starts where the previous ended).
	for i := 1; i < len(seg.Segments); i++ {
		seg.Segments[i].StartSample = seg.Segments[i-1].EndSample
		seg.Segments[i].StartCycle = seg.Segments[i-1].EndCycle
	}
	return &seg, nil
}

// attributeBlock is the push size Attribute feeds its StreamAttributor,
// bounding the sample buffer it holds.
const attributeBlock = 1 << 16

// ManualSegmentation builds a segmentation directly from ground-truth
// region spans — the paper's Table V procedure: "we (manually) mark the
// transitions between these functions in the signal ... and attribute
// misses in each part of the signal to the corresponding function."
func ManualSegmentation(c *em.Capture, spans []sim.RegionSpan, names map[uint16]string) *Segmentation {
	cps := c.CyclesPerSample()
	seg := &Segmentation{FrameAccuracy: 1}
	for _, sp := range spans {
		if _, known := names[sp.Region]; !known {
			// Unlabelled startup/glue spans are not part of the report.
			continue
		}
		lo := int(float64(sp.StartCycle) / cps)
		hi := int(float64(sp.EndCycle) / cps)
		if hi > len(c.Samples) {
			hi = len(c.Samples)
		}
		if lo >= hi {
			continue
		}
		seg.Segments = append(seg.Segments, Segment{
			Region:      sp.Region,
			Name:        names[sp.Region],
			StartSample: lo,
			EndSample:   hi,
			StartCycle:  sp.StartCycle,
			EndCycle:    sp.EndCycle,
		})
	}
	return seg
}

// RegionReport is one row of the Table V-style attribution report.
type RegionReport struct {
	Region uint16
	Name   string
	// Cycles is the total attributed execution time.
	Cycles uint64
	// Misses is the number of EMPROF stalls attributed to the region.
	Misses int
	// MissRatePerMcycle is misses per million cycles.
	MissRatePerMcycle float64
	// StallCycles and StallPct account the attributed stall time.
	StallCycles float64
	StallPct    float64
	// AvgMissLatency is the mean attributed stall duration in cycles.
	AvgMissLatency float64
}

// JoinProfile attributes each EMPROF-detected stall to the segment
// containing its onset and aggregates per-region statistics (Table V).
func (s *Segmentation) JoinProfile(p *core.Profile) []RegionReport {
	type agg struct {
		cycles  uint64
		misses  int
		stallCy float64
		name    string
	}
	byRegion := make(map[uint16]*agg)
	order := []uint16{}
	for _, seg := range s.Segments {
		a := byRegion[seg.Region]
		if a == nil {
			a = &agg{name: seg.Name}
			byRegion[seg.Region] = a
			order = append(order, seg.Region)
		}
		a.cycles += seg.Cycles()
	}
	cps := p.ClockHz / p.SampleRate
	for _, st := range p.Stalls {
		onset := uint64(float64(st.StartSample) * cps)
		for _, seg := range s.Segments {
			if onset >= seg.StartCycle && onset < seg.EndCycle {
				a := byRegion[seg.Region]
				a.misses++
				a.stallCy += st.Cycles
				break
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]RegionReport, 0, len(order))
	for _, r := range order {
		a := byRegion[r]
		rep := RegionReport{
			Region:      r,
			Name:        a.name,
			Cycles:      a.cycles,
			Misses:      a.misses,
			StallCycles: a.stallCy,
		}
		if a.cycles > 0 {
			rep.MissRatePerMcycle = float64(a.misses) / (float64(a.cycles) / 1e6)
			rep.StallPct = 100 * a.stallCy / float64(a.cycles)
		}
		if a.misses > 0 {
			rep.AvgMissLatency = a.stallCy / float64(a.misses)
		}
		out = append(out, rep)
	}
	return out
}
