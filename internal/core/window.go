package core

import (
	"fmt"
	"sort"
)

// This file implements rolling profile windows — the continuous-profiling
// face of the streaming analyzer. A long-running session does not only
// accumulate one ever-growing profile: a Windower slices the decided
// stream into fixed-width tumbling windows and emits each one as soon as
// no future decision can add a stall to it. The windows concatenate
// exactly: MergeWindows over a session's full window sequence reproduces
// the Finalize profile of the same stream bit for bit.

// Frontier returns the stream position (in decided-sample space) below
// which the stall list is final: every stall whose onset precedes the
// frontier has already been emitted, and no stall with an earlier onset
// can ever be emitted. While a dip candidate is open the frontier holds
// at its onset — the dip may yet become a stall starting there; otherwise
// it is the decided count. Stalls are emitted in onset order, which is
// what makes the frontier a single watermark rather than a set.
func (s *StreamAnalyzer) Frontier() int64 {
	if s.det.InDip {
		return s.det.Start
	}
	return s.emitted
}

// WindowRegion is one code region's share of a window's stalls, filled
// in by the continuous attribution stage when the session carries a
// trained model (see internal/attrib).
type WindowRegion struct {
	Region uint16 `json:"region"`
	Name   string `json:"name,omitempty"`
	// Misses counts the window's stalls attributed to the region.
	Misses int `json:"misses"`
	// StallCycles is their summed cost in cycles.
	StallCycles float64 `json:"stall_cycles"`
}

// ProfileWindow is one rolling window of a continuously-profiled
// stream: the stalls whose onset falls in [StartSample, EndSample), with
// the same aggregate counters a Profile carries, scoped to the window.
type ProfileWindow struct {
	// Index numbers windows from 0; window i spans
	// [i*width, (i+1)*width) except the final partial one.
	Index       int64 `json:"index"`
	StartSample int64 `json:"start_sample"`
	EndSample   int64 `json:"end_sample"`
	// StartS and EndS are the window bounds in stream seconds.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Final marks the trailing (possibly partial, possibly empty) window
	// emitted at Finalize; its Quality is the stream's final quality.
	Final bool `json:"final,omitempty"`

	Stalls        []Stall `json:"stalls"`
	Misses        int     `json:"misses"`
	RefreshStalls int     `json:"refresh_stalls"`
	StallCycles   float64 `json:"stall_cycles"`
	// MeanConfidence averages the window's per-stall confidence (0 when
	// the window has no stalls).
	MeanConfidence float64 `json:"mean_confidence"`
	// Quality is the cumulative signal-quality record at seal time; on
	// the Final window it equals the Finalize profile's quality.
	Quality Quality `json:"quality"`
	// Regions carries the window's live stall→code-region attribution
	// when the session has a trained model; empty otherwise.
	Regions []WindowRegion `json:"regions,omitempty"`
}

// Windower slices a stream's stall sequence into rolling profile
// windows. Feed it every accepted stall via Observe (hook it into
// StreamAnalyzer.OnStall), advance it with the analyzer's Frontier after
// each push, and Flush it at finalize. It is not internally synchronised:
// serialise it with the analyzer it observes.
type Windower struct {
	width      int64
	sampleRate float64
	clockHz    float64

	next    int64 // start of the next unsealed window
	idx     int64
	pending []Stall // stalls with onset >= next, in onset order

	// OnWindow receives each sealed window. The callback owns the value;
	// the windower retains nothing of it.
	OnWindow func(*ProfileWindow)
}

// NewWindower builds a windower of tumbling windows widthS stream
// seconds wide. strideS must be 0 or widthS: windows do not overlap.
func NewWindower(widthS, strideS, sampleRate, clockHz float64) (*Windower, error) {
	if !(widthS > 0) {
		return nil, fmt.Errorf("core: window width %v s must be positive", widthS)
	}
	if strideS != 0 && strideS != widthS {
		return nil, fmt.Errorf("core: window stride %v s is not the width %v s (windows tumble)", strideS, widthS)
	}
	if !(sampleRate > 0) || !(clockHz > 0) {
		return nil, fmt.Errorf("core: windower needs acquisition metadata (rate=%v clock=%v)", sampleRate, clockHz)
	}
	width := max(int64(widthS*sampleRate), 1)
	return &Windower{width: width, sampleRate: sampleRate, clockHz: clockHz}, nil
}

// WidthSamples returns the window width in samples.
func (w *Windower) WidthSamples() int64 { return w.width }

// NextStart returns the stream position where the next unsealed window
// begins — nothing below it can appear in a future window, which is what
// lets downstream stages (the streaming attributor) release state.
func (w *Windower) NextStart() int64 { return w.next }

// Observe records one accepted stall. Stalls arrive in onset order (the
// detector emits them that way); one with an onset before the sealing
// watermark would belong to an already-sealed window and is dropped —
// it cannot happen when Advance is driven by the analyzer's Frontier.
func (w *Windower) Observe(st Stall) {
	if int64(st.StartSample) < w.next {
		return
	}
	w.pending = append(w.pending, st)
}

// Advance seals every window that the frontier proves complete: window
// [next, next+width) is final once no stall with onset < next+width can
// still be emitted.
func (w *Windower) Advance(frontier int64) {
	for frontier >= w.next+w.width {
		w.seal(w.next, w.next+w.width, false)
	}
}

// Flush seals everything up to end-of-stream at position total: the
// remaining complete windows, then one trailing Final window covering
// [next, total). The trailing window may be partial or even empty (the
// stream ended exactly on a boundary) — it is always emitted, because it
// carries the stream's final cumulative quality, which is what lets
// MergeWindows reproduce Finalize exactly.
func (w *Windower) Flush(total int64) {
	w.Advance(total)
	end := total
	if end < w.next {
		end = w.next
	}
	w.seal(w.next, end, true)
}

func (w *Windower) seal(lo, hi int64, final bool) {
	pw := &ProfileWindow{
		Index:       w.idx,
		StartSample: lo,
		EndSample:   hi,
		StartS:      float64(lo) / w.sampleRate,
		EndS:        float64(hi) / w.sampleRate,
		Final:       final,
	}
	var confSum float64
	for _, st := range w.pending {
		if int64(st.StartSample) < lo || int64(st.StartSample) >= hi {
			continue
		}
		pw.Stalls = append(pw.Stalls, st)
		if st.Refresh {
			pw.RefreshStalls++
		} else {
			pw.Misses++
		}
		pw.StallCycles += st.Cycles
		confSum += st.Confidence
	}
	if pw.Stalls == nil {
		pw.Stalls = []Stall{}
	}
	if n := len(pw.Stalls); n > 0 {
		pw.MeanConfidence = confSum / float64(n)
	}
	w.idx++
	w.next = hi
	// Keep only the stalls a future window can contain (onset at or
	// above the new watermark).
	keep := w.pending[:0]
	for _, st := range w.pending {
		if int64(st.StartSample) >= w.next {
			keep = append(keep, st)
		}
	}
	w.pending = keep
	if w.OnWindow != nil {
		w.OnWindow(pw)
	}
}

// WindowerState is the hand-off form of a windower: enough to resume
// window emission seamlessly on another shard.
type WindowerState struct {
	WidthSamples int64   `json:"width_samples"`
	Next         int64   `json:"next"`
	Index        int64   `json:"index"`
	Pending      []Stall `json:"pending,omitempty"`
}

// ExportState snapshots the windower for hand-off.
func (w *Windower) ExportState() *WindowerState {
	return &WindowerState{
		WidthSamples: w.width,
		Next:         w.next,
		Index:        w.idx,
		Pending:      append([]Stall(nil), w.pending...),
	}
}

// ResumeWindower reconstructs a windower from an exported state.
func ResumeWindower(st *WindowerState, sampleRate, clockHz float64) (*Windower, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil windower state")
	}
	if st.WidthSamples < 1 {
		return nil, fmt.Errorf("core: windower state width %d invalid", st.WidthSamples)
	}
	if !(sampleRate > 0) || !(clockHz > 0) {
		return nil, fmt.Errorf("core: windower needs acquisition metadata (rate=%v clock=%v)", sampleRate, clockHz)
	}
	if st.Next < 0 || st.Index < 0 {
		return nil, fmt.Errorf("core: windower state position %d/%d invalid", st.Next, st.Index)
	}
	return &Windower{
		width:      st.WidthSamples,
		sampleRate: sampleRate,
		clockHz:    clockHz,
		next:       st.Next,
		idx:        st.Index,
		pending:    append([]Stall(nil), st.Pending...),
	}, nil
}

// MergeWindows reassembles a full-stream profile from a session's
// complete window sequence — the query-side inverse of the
// windower. The windows must tile the stream (each starts where the
// previous ended); the result is bit-identical to Finalize on the same
// stream: stalls concatenate in onset order, the counters sum, and
// ExecCycles/Quality come from the Final window's end position and
// cumulative quality record.
func MergeWindows(ws []ProfileWindow, sampleRate, clockHz float64) (*Profile, error) {
	if !(sampleRate > 0) || !(clockHz > 0) {
		return nil, fmt.Errorf("core: merge needs acquisition metadata (rate=%v clock=%v)", sampleRate, clockHz)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: no windows to merge")
	}
	sorted := append([]ProfileWindow(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	p := &Profile{SampleRate: sampleRate, ClockHz: clockHz, Stalls: []Stall{}}
	for i, win := range sorted {
		if i > 0 {
			prev := sorted[i-1]
			if win.Index == prev.Index {
				return nil, fmt.Errorf("core: duplicate window index %d", win.Index)
			}
			if win.Index != prev.Index+1 {
				return nil, fmt.Errorf("core: window sequence gap between index %d and %d", prev.Index, win.Index)
			}
			if win.StartSample != prev.EndSample {
				return nil, fmt.Errorf("core: windows %d and %d do not tile", prev.Index, win.Index)
			}
		}
		p.Stalls = append(p.Stalls, win.Stalls...)
		p.Misses += win.Misses
		p.RefreshStalls += win.RefreshStalls
	}
	// Accumulate StallCycles per stall in emit order — not by summing the
	// per-window subtotals — to reproduce the analyzer's own running sum
	// bit for bit (float addition is not associative; grouping the terms
	// by window can differ in the last ulp when cycles-per-sample is not
	// an integer).
	for _, st := range p.Stalls {
		p.StallCycles += st.Cycles
	}
	last := sorted[len(sorted)-1]
	if !last.Final {
		return nil, fmt.Errorf("core: window sequence is incomplete (no final window)")
	}
	p.ExecCycles = float64(last.EndSample) * (clockHz / sampleRate)
	p.Quality = last.Quality
	return p, nil
}
