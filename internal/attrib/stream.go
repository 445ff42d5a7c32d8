package attrib

import (
	"fmt"
	"math"
	"sort"

	"emprof/internal/core"
	"emprof/internal/dsp"
)

// StreamAttributor runs a trained attribution model continuously against
// a sample stream — the online face of Model.Attribute. Each completed
// STFT frame is matched to its nearest region signature as soon as its
// last sample arrives; the profiling service asks it to summarise the
// attributed regions of every rolling window it seals, so a live
// session's windows carry stall→code-region attribution without ever
// rerunning the batch segmentation.
//
// Frame spectra are computed with the same windowed-FFT primitive the
// batch path uses, so a frame decided online matches its batch decision
// exactly; only the majority-vote smoothing differs at the stream's
// moving edge, where future frames are not yet available (it catches up
// as they arrive — windows seal well behind the frame frontier, so
// sealed-window summaries see settled decisions in practice).
type StreamAttributor struct {
	m   *Model
	win []float64

	// Sliding raw-sample buffer: buf[0] is absolute sample index base.
	buf  []float64
	base int64
	n    int64 // absolute samples pushed

	// decisions[t-decBase] is the nearest-signature index of frame t
	// (frame t covers samples [t*hop, t*hop+frameLen)).
	decisions []int16
	decBase   int64
	nextFrame int64

	cbuf  []complex128
	frame []float64
}

// NewStreamAttributor wraps a trained model for continuous matching.
func NewStreamAttributor(m *Model) (*StreamAttributor, error) {
	if m == nil || len(m.Signatures) == 0 {
		return nil, fmt.Errorf("attrib: empty model")
	}
	if m.FrameLen <= 0 || m.Hop <= 0 {
		return nil, fmt.Errorf("attrib: model frame geometry %d/%d invalid", m.FrameLen, m.Hop)
	}
	if len(m.Signatures) > math.MaxInt16 {
		return nil, fmt.Errorf("attrib: %d signatures exceed the stream matcher's bound", len(m.Signatures))
	}
	return &StreamAttributor{m: m, win: dsp.HannCached(m.FrameLen)}, nil
}

// Push feeds raw magnitude samples, deciding every frame they complete.
func (a *StreamAttributor) Push(xs []float64) {
	a.buf = append(a.buf, xs...)
	a.n += int64(len(xs))
	hop, frameLen := int64(a.m.Hop), int64(a.m.FrameLen)
	for a.nextFrame*hop+frameLen <= a.n {
		start := a.nextFrame*hop - a.base
		a.decide(a.buf[start : start+frameLen])
		a.nextFrame++
	}
	// Keep only the samples the next (incomplete) frame needs.
	if keepFrom := a.nextFrame*hop - a.base; keepFrom > 0 {
		a.buf = append(a.buf[:0], a.buf[keepFrom:]...)
		a.base += keepFrom
	}
}

// decide matches one complete frame against the signatures.
func (a *StreamAttributor) decide(frame []float64) {
	a.frame, a.cbuf = dsp.PowerSpectrumInto(frame, a.win, a.cbuf, a.frame[:0])
	// Frame-normalise, as Spectrogram.NormalizeFrames does.
	sum := 0.0
	for _, v := range a.frame {
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range a.frame {
			a.frame[i] *= inv
		}
	}
	best, bestD := 0, math.Inf(1)
	for i := range a.m.Signatures {
		d := dsp.SpectralDistance(a.frame, a.m.Signatures[i].Spectrum)
		if d < bestD {
			best, bestD = i, d
		}
	}
	a.decisions = append(a.decisions, int16(best))
}

// regionAt returns the signature of the frame whose centre is nearest
// the given absolute sample, majority-smoothed over radius 2 as the
// batch path does (clamped at the retained/decided edges).
func (a *StreamAttributor) regionAt(sample int64) (Signature, bool) {
	if len(a.decisions) == 0 {
		return Signature{}, false
	}
	hop, frameLen := int64(a.m.Hop), int64(a.m.FrameLen)
	t := (sample - frameLen/2 + hop/2) / hop
	if t < a.decBase {
		t = a.decBase
	}
	if max := a.decBase + int64(len(a.decisions)) - 1; t > max {
		t = max
	}
	// Majority vote over frames t-2..t+2, as smoothDecisions(d, 2).
	counts := [5]struct {
		sig int16
		n   int
	}{}
	nc := 0
	lo, hi := t-2, t+2
	if lo < a.decBase {
		lo = a.decBase
	}
	if max := a.decBase + int64(len(a.decisions)) - 1; hi > max {
		hi = max
	}
	best, bestN := a.decisions[t-a.decBase], 0
	for j := lo; j <= hi; j++ {
		sig := a.decisions[j-a.decBase]
		found := false
		for i := 0; i < nc; i++ {
			if counts[i].sig == sig {
				counts[i].n++
				if counts[i].n > bestN {
					best, bestN = sig, counts[i].n
				}
				found = true
				break
			}
		}
		if !found && nc < len(counts) {
			counts[nc].sig = sig
			counts[nc].n = 1
			if 1 > bestN {
				best, bestN = sig, 1
			}
			nc++
		}
	}
	return a.m.Signatures[best], true
}

// Summarize attributes a sealed window's stalls to regions: each stall
// onset is matched to its nearest decided frame and the per-region
// miss/stall-cycle totals are returned, ordered by region ID. The
// service calls it under the same lock that serialises Push.
func (a *StreamAttributor) Summarize(stalls []core.Stall) []core.WindowRegion {
	if len(stalls) == 0 || len(a.decisions) == 0 {
		return nil
	}
	type agg struct {
		name    string
		misses  int
		stallCy float64
	}
	byRegion := make(map[uint16]*agg)
	for _, st := range stalls {
		sig, ok := a.regionAt(int64(st.StartSample))
		if !ok {
			continue
		}
		g := byRegion[sig.Region]
		if g == nil {
			g = &agg{name: sig.Name}
			byRegion[sig.Region] = g
		}
		g.misses++
		g.stallCy += st.Cycles
	}
	regions := make([]uint16, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	out := make([]core.WindowRegion, 0, len(regions))
	for _, r := range regions {
		g := byRegion[r]
		out = append(out, core.WindowRegion{
			Region: r, Name: g.name, Misses: g.misses, StallCycles: g.stallCy,
		})
	}
	return out
}

// Drop releases frame decisions no longer reachable by future windows:
// those whose smoothing neighbourhood lies entirely before the given
// absolute sample position. Sealed windows only ever look backwards, so
// the service calls it with the next unsealed window's start.
func (a *StreamAttributor) Drop(before int64) {
	hop, frameLen := int64(a.m.Hop), int64(a.m.FrameLen)
	// Frame t is needed while its centre can be nearest to a sample >=
	// before, or while it can vote in such a frame's neighbourhood.
	cut := (before-frameLen/2)/hop - 3
	if cut <= a.decBase {
		return
	}
	if max := a.decBase + int64(len(a.decisions)); cut > max {
		cut = max
	}
	n := cut - a.decBase
	a.decisions = append(a.decisions[:0], a.decisions[n:]...)
	a.decBase = cut
}
