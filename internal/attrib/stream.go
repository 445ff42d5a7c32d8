package attrib

import (
	"fmt"
	"math"
	"sort"

	"emprof/internal/core"
	"emprof/internal/dsp"
)

// StreamAttributor runs a trained attribution model against a sample
// stream; it is the one frame matcher, which Model.Attribute drives over
// a whole capture. Each completed frame is matched to its nearest region
// signature as soon as its last sample arrives; the profiling service
// asks it to summarise the attributed regions of every rolling window it
// seals, so a live session's windows carry stall→code-region attribution.
//
// Decisions are majority-smoothed over the voteRadius frames on each
// side, clamped to the frames held; at the stream's moving edge the
// future frames are not yet available, so the vote there catches up as
// they arrive (windows seal well behind the frame frontier, so sealed-
// window summaries see settled decisions in practice).
type StreamAttributor struct {
	m  *Model
	sp spectrum

	// Sliding raw-sample buffer: buf[0] is absolute sample index base.
	buf  []float64
	base int64
	n    int64 // absolute samples pushed

	// decisions[t-decBase] is the nearest-signature index of frame t
	// (frame t covers samples [t*hop, t*hop+frameLen)).
	decisions []int16
	decBase   int64
	nextFrame int64
}

// maxFrameLen bounds a model's frame length and hop, in samples. Models
// arrive from the network with a session's create body, and the frame
// length sizes the window and FFT workspace each session allocates; 64Ki
// samples is 64× the default frame.
const maxFrameLen = 1 << 16

// voteRadius is the majority vote's half-width, in frames.
const voteRadius = 2

// checkGeometry bounds a frame length and hop.
func checkGeometry(frameLen, hop int) error {
	if frameLen <= 0 || hop <= 0 || frameLen > maxFrameLen || hop > maxFrameLen {
		return fmt.Errorf("attrib: frame geometry %d/%d outside (0, %d]", frameLen, hop, maxFrameLen)
	}
	return nil
}

// NewStreamAttributor wraps a trained model for continuous matching,
// refusing one CheckStreamModel refuses.
func NewStreamAttributor(m *Model) (*StreamAttributor, error) {
	if err := CheckStreamModel(m); err != nil {
		return nil, err
	}
	return &StreamAttributor{m: m, sp: newSpectrum(m.FrameLen)}, nil
}

// CheckStreamModel checks a model as it would arrive from an untrusted
// peer, without allocating a matcher: bounded frame geometry, and every
// signature a spectrum of the frame's bin count holding finite,
// non-negative powers.
func CheckStreamModel(m *Model) error {
	if m == nil || len(m.Signatures) == 0 {
		return fmt.Errorf("attrib: empty model")
	}
	if err := checkGeometry(m.FrameLen, m.Hop); err != nil {
		return err
	}
	if len(m.Signatures) > math.MaxInt16 {
		return fmt.Errorf("attrib: %d signatures exceed the stream matcher's bound", len(m.Signatures))
	}
	bins := dsp.NextPow2(m.FrameLen)/2 + 1
	for _, sig := range m.Signatures {
		if len(sig.Spectrum) != bins {
			return fmt.Errorf("attrib: region %d signature has %d bins, want %d", sig.Region, len(sig.Spectrum), bins)
		}
		for _, v := range sig.Spectrum {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("attrib: region %d signature holds power %v", sig.Region, v)
			}
		}
	}
	return nil
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
	// Keep only the samples the next (incomplete) frame needs. With a hop
	// longer than the frame, that frame may start past everything pushed.
	if keepFrom := min(a.nextFrame*hop-a.base, int64(len(a.buf))); keepFrom > 0 {
		a.buf = append(a.buf[:0], a.buf[keepFrom:]...)
		a.base += keepFrom
	}
}

// decide matches one complete frame against the signatures.
func (a *StreamAttributor) decide(frame []float64) {
	f := a.sp.of(frame)
	best, bestD := 0, math.Inf(1)
	for i := range a.m.Signatures {
		d := dsp.SpectralDistance(f, a.m.Signatures[i].Spectrum)
		if d < bestD {
			best, bestD = i, d
		}
	}
	a.decisions = append(a.decisions, int16(best))
}

// vote returns the majority-smoothed decision of frame t: the majority
// over frames t-voteRadius..t+voteRadius, clamped to the frames held. t
// must be a frame held.
func (a *StreamAttributor) vote(t int64) int16 {
	lo := max(t-voteRadius, a.decBase) - a.decBase
	hi := min(t+voteRadius-a.decBase, int64(len(a.decisions))-1)
	return majority(a.decisions[lo : hi+1])
}

// majority returns the most frequent value in the non-empty d; of values
// tied for most frequent, the one that first reaches that count scanning
// left to right.
func majority(d []int16) int16 {
	best, bestN := d[0], 0
	for i, v := range d {
		n := 0
		for _, w := range d[:i+1] {
			if w == v {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}

// regionAt returns the signature of the frame whose centre is nearest
// the given absolute sample (clamped to the frames held), after the
// majority vote.
func (a *StreamAttributor) regionAt(sample int64) (Signature, bool) {
	if len(a.decisions) == 0 {
		return Signature{}, false
	}
	hop, frameLen := int64(a.m.Hop), int64(a.m.FrameLen)
	t := (sample - frameLen/2 + hop/2) / hop
	t = min(max(t, a.decBase), a.decBase+int64(len(a.decisions))-1)
	return a.m.Signatures[a.vote(t)], true
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
