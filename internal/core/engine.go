package core

import (
	"time"

	"emprof/internal/dsp"
)

// This file is the analysis engine: the paper's Section IV pipeline as
// four stage kernels over spans of samples.
//
//	monitor  monitor.processBlock            raw → sanitised samples, flags, resyncs
//	smooth   dsp.MovingAverage.ProcessBlock  read lead samples ahead (centred)
//	min/max  minMaxSpan                      trailing moving min/max, reset at resyncs
//	decide   detector.run                    normalise against (lo, hi), detect dips
//
// The monitor kernel alternates a settled fast run with a general step.
// The fast run takes each sample while the monitor is settled (no step
// resync pending, a live positive busy reference, no open dropout run, a
// previous sample) and the sample is uneventful (positive, under the
// burst and step thresholds, no clip, busy max inside the step and shift
// bands); it stops one sample short of the busy tracker's block end. The
// first sample it declines goes to the general step, which handles every
// flag, resync and observer event. On the golden captures the fast run
// takes 98–99 % of the samples.
//
// The decide kernel alternates a fast run with the general step the same
// way. Outside a dip the fast run takes each unflagged position with
// !(v < EnterThreshold); inside one, each unflagged position with
// !(v > ExitThreshold), lowering depth in a register. The negated
// comparisons keep a NaN v in the loop, since it neither enters nor
// leaves a dip. The position it declines, and the flagged run after it,
// go to step, the only code that enters, aborts or flushes a dip or
// emits an event. On the golden captures the fast run takes 75–96 % of
// the positions; the rest are mostly flagged.
//
// The pipeline has no feedback between its stages, so each kernel runs
// over a whole span before the next starts. They are composed three ways:
//
//   - Streaming: StreamAnalyzer.pushChunk runs all four over bounded
//     chunks. PushBlock splits its input into chunks. The due positions are decided in place, straight
//     out of the fronts of the pending value and flag rings and then the
//     chunk's own values; only the last half window's values are queued.
//   - Batch: Analyzer.Profile is the streaming composition over a whole
//     capture, so its scratch memory is bounded by the chunk size.
//   - Parallel: ProfileParallel is the streaming composition cut at
//     feedBlock: a producer goroutine runs scan (monitor and smooth) and
//     hands each chunk's values, settled flags and resyncs to the caller,
//     which runs feedBlock and drain on a second engine (parallel.go).
//
// Position i is decided against the stats after position i+half was folded
// in, or against the final stats when the capture ends first. The
// whole-array form of the same pipeline is the test oracle
// (oracle_test.go) that every composition is checked against.

// pushBlockN bounds how many samples one staged pass processes; blocks
// larger than this are split. 4096 samples keeps the four scratch lanes
// (sanitised, smoothed, min, max) around 128 KiB — resident in L2 —
// while still amortising the per-stage state hoisting over thousands of
// samples.
const pushBlockN = 4096

// blockScratch backs the staged processing. It belongs to one
// StreamAnalyzer and is reused across chunks, so the steady-state path
// performs no allocations at all.
type blockScratch struct {
	san []float64 // monitor-sanitised samples
	sm  []float64 // smoother outputs
	lo  []float64 // per-position moving minimum
	hi  []float64 // per-position moving maximum
	fl  []qflag   // per-sample impairment flags
}

// lanes returns the scratch lanes, allocating them on first use (the
// float lanes and the smoother tail share one allocation) together with
// queue capacity for a full pipeline plus one chunk, so nothing grows
// afterwards.
func (s *StreamAnalyzer) lanes() *blockScratch {
	sc := &s.scratch
	if sc.fl == nil {
		const n = pushBlockN
		f := make([]float64, 4*n+s.lead+1)
		sc.san = f[:n:n]
		sc.sm = f[n : 2*n : 2*n]
		sc.lo = f[2*n : 3*n : 3*n]
		sc.hi = f[3*n : 4*n : 4*n]
		s.smTail = append(f[4*n:4*n], s.smTail...)
		sc.fl = make([]qflag, pushBlockN)
		s.flagBuf.reserve(s.half + s.lead + pushBlockN)
		s.pending.reserve(s.half + 1)
	}
	return sc
}

// PushBlock feeds a batch of magnitude samples. Any split of a stream
// into blocks produces the same profile. The block is processed in
// bounded chunks; xs is not retained.
func (s *StreamAnalyzer) PushBlock(xs []float64) {
	for len(xs) > 0 {
		n := min(len(xs), pushBlockN)
		s.pushChunk(xs[:n])
		xs = xs[n:]
	}
}

// pushChunk runs all four stages over one chunk.
func (s *StreamAnalyzer) pushChunk(chunk []float64) { s.feedBlock(s.scan(chunk)) }

// scan runs the monitor and smoother kernels over one chunk. It queues
// the chunk's flags and resync positions and returns the values of the
// positions the chunk completed, which alias the scratch lanes until the
// next scan.
func (s *StreamAnalyzer) scan(chunk []float64) []float64 {
	sc := s.lanes()
	s.clock.start()

	// Monitor. Retroactive flag patches reach at most half-1 positions
	// back, which is always shallower than the oldest undecided position
	// — so patching through the flag queue applies every patch. Patches
	// inside the chunk land on the scratch lane, which then enters the
	// queue in one bulk move; qLen is the queue length at chunk start,
	// i.e. the index one past the newest pre-chunk position.
	n0 := s.n
	san := sc.san[:len(chunk)]
	flags := sc.fl[:len(chunk)]
	qLen := s.flagBuf.len()
	s.mon.processBlock(chunk, san, flags,
		func(back int, f qflag) bool {
			idx := qLen - back
			if idx < 0 {
				return false
			}
			*s.flagBuf.ptr(idx) |= f
			return true
		},
		func(i int) {
			s.resyncAt = append(s.resyncAt, n0+int64(i))
		})
	s.flagBuf.pushSlice(flags)
	s.n = n0 + int64(len(chunk))
	s.clock.lap(stageMonitor)

	// Smoothing with centre compensation. Without a smoother every
	// sanitised sample is a position; with one, the smoother output for
	// input j describes position j-lead, so the first lead outputs of the
	// stream are discarded and the last lead+1 outputs are kept as the
	// uncompensated tail finish replays.
	vals := san
	if s.smoother != nil {
		sm := s.smoother.ProcessBlock(san, sc.sm[:len(chunk)])
		k := s.lead + 1
		if len(sm) >= k {
			s.smTail = append(s.smTail[:0], sm[len(sm)-k:]...)
		} else {
			if drop := len(s.smTail) + len(sm) - k; drop > 0 {
				copy(s.smTail, s.smTail[drop:])
				s.smTail = s.smTail[:len(s.smTail)-drop]
			}
			s.smTail = append(s.smTail, sm...)
		}
		skip := min(max(s.lead-int(n0), 0), len(sm))
		vals = sm[skip:]
	}
	s.clock.lap(stageSmooth)
	return vals
}

// feedBlock runs the min/max kernel over the next run of positions, then
// decides every position whose half-window delay has elapsed. los/his[k]
// are the stats after folding in position fed0+k, which is exactly what
// the position half a window before it is decided against.
func (s *StreamAnalyzer) feedBlock(vals []float64) {
	if len(vals) == 0 {
		return
	}
	sc := s.lanes()
	los := sc.lo[:len(vals)]
	his := sc.hi[:len(vals)]
	// Keep the unconsumed resyncs at the front of their backing array,
	// so the monitor's appends reuse it instead of reallocating once the
	// consumed prefix has eaten its capacity.
	rest := minMaxSpan(s.mmin, s.mmax, vals, los, his, s.fed, s.resyncAt)
	s.resyncAt = s.resyncAt[:copy(s.resyncAt, rest)]
	s.fed += int64(len(vals))
	s.lastMin = los[len(vals)-1]
	s.lastMax = his[len(vals)-1]
	s.haveStats = true
	s.clock.lap(stageNormalize)

	// Position fed0+k−half is due once position fed0+k is folded in. The
	// pending queue holds the fed0 − emitted ≤ half positions before vals,
	// so m positions are due, and the last of them takes the last stats.
	m := s.pending.len() + len(vals) - s.half
	if m > 0 {
		vals = vals[s.decideFront(m, vals, los[len(los)-m:], his[len(his)-m:]):]
	}
	s.pending.pushSlice(vals)
	s.clock.lap(stageDetect)
}

// decideFront decides the next m positions in place: their values are the
// pending queue's front followed by the front of vals, and position
// emitted+j is decided against los[j] and his[j]. It drops the decided
// values from the queue and returns how many it took from vals.
func (s *StreamAnalyzer) decideFront(m int, vals, los, his []float64) int {
	p := min(m, s.pending.len())
	v0, v1 := s.pending.front(p)
	s.decideSpan(v0, los, his)
	s.decideSpan(v1, los[len(v0):], his[len(v0):])
	s.decideSpan(vals[:m-p], los[p:], his[p:])
	s.pending.discard(p)
	return m - p
}

// decideSpan decides the next len(xs) positions, whose values are xs,
// against los and his, with their flags straight off the flag queue's
// front (two spans where the ring wraps), and drops those flags.
func (s *StreamAnalyzer) decideSpan(xs, los, his []float64) {
	if len(xs) == 0 {
		return
	}
	f0, f1 := s.flagBuf.front(len(xs))
	k := len(f0)
	s.det.run(s.emitted, xs[:k], f0, los, his)
	if k < len(xs) {
		s.det.run(s.emitted+int64(k), xs[k:], f1, los[k:], his[k:])
	}
	s.flagBuf.discard(len(xs))
	s.emitted += int64(len(xs))
}

// finish drains the pipeline once the stream has ended.
func (s *StreamAnalyzer) finish() *Profile {
	s.clock.start()
	s.feedBlock(s.tail())
	return s.drain()
}

// tail returns the values of the final lead positions, which take their
// own trailing smoother outputs, once the stream has ended.
func (s *StreamAnalyzer) tail() []float64 {
	if s.smoother == nil {
		return nil
	}
	k := min(s.lead, int(s.n))
	return s.smTail[max(len(s.smTail)-k, 0):]
}

// drain decides the positions still inside the last half-window against
// the final stats, broadcast into the scratch stat lanes one chunk at a
// time, closes any open dip and completes the profile.
func (s *StreamAnalyzer) drain() *Profile {
	if s.haveStats && s.pending.len() > 0 {
		sc := s.lanes()
		lo := sc.lo[:min(s.pending.len(), pushBlockN)]
		hi := sc.hi[:len(lo)]
		for j := range lo {
			lo[j], hi[j] = s.lastMin, s.lastMax
		}
		for s.pending.len() > 0 {
			m := min(s.pending.len(), len(lo))
			s.decideFront(m, nil, lo[:m], hi[:m])
		}
	}
	s.det.finish(s.emitted)
	s.clock.lap(stageDetect)
	if s.sampleRate > 0 {
		s.prof.ExecCycles = float64(s.n) * (s.clockHz / s.sampleRate)
	}
	s.prof.Quality = s.mon.q
	return s.prof
}

// minMaxSpan is the min/max stage kernel: it advances the moving minimum
// and maximum over vals, the smoothed values of positions base,
// base+1, …, writing each position's trailing stats to los and his. Both
// windows are reset before folding in each position listed in resyncs
// (ascending); the entries consumed are dropped from the returned slice.
func minMaxSpan(mmin, mmax *dsp.MovingExtremum, vals, los, his []float64, base int64, resyncs []int64) []int64 {
	for i := 0; i < len(vals); {
		if len(resyncs) > 0 && resyncs[0] == base+int64(i) {
			mmin.Reset()
			mmax.Reset()
			resyncs = resyncs[1:]
		}
		end := len(vals)
		if len(resyncs) > 0 {
			if e := int(resyncs[0] - base); e < end {
				end = e
			}
		}
		if end <= i {
			// Defensive: resync entries are strictly ascending and not
			// behind base, so this cannot fire; keep the loop finite
			// regardless.
			end = i + 1
		}
		dsp.ProcessBlockMinMax(mmin, mmax, vals[i:end], los[i:end], his[i:end])
		i = end
	}
	return resyncs
}

// Stage indexes of a stageClock. A traced run reports monitor and smooth
// together as its scan stage.
const (
	stageMonitor = iota
	stageSmooth
	stageNormalize
	stageDetect
	numStages
)

// stageClock accumulates wall time per stage across chunks, for the
// stage timings a traced batch run reports. A nil clock is never read, so
// untraced runs pay one branch per lap.
type stageClock struct {
	ns [numStages]int64
	t  time.Time
}

func (c *stageClock) start() {
	if c != nil {
		c.t = time.Now()
	}
}

func (c *stageClock) lap(stage int) {
	if c != nil {
		now := time.Now()
		c.ns[stage] += now.Sub(c.t).Nanoseconds()
		c.t = now
	}
}
