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
//	decide   detector.step                   normalise against (lo, hi), detect dips
//
// The pipeline has no feedback between its stages, so each kernel runs
// over a whole span before the next starts. They are composed three ways:
//
//   - Streaming: StreamAnalyzer.pushChunk runs all four over bounded
//     chunks. PushBlock splits its input into chunks and Push is a
//     one-sample chunk.
//   - Batch: Analyzer.Profile is the streaming composition over a whole
//     capture, so its scratch memory is bounded by the chunk size.
//   - Parallel: ProfileParallel runs monitor and smooth sequentially over
//     the capture, min/max on a worker pool (its windows are finite, so a
//     shard only needs one window of history), and decide in order.
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

// pushChunk runs the monitor and smoother kernels over one chunk, then
// feeds the positions it completed to the min/max and decide stages.
func (s *StreamAnalyzer) pushChunk(chunk []float64) {
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
	s.clock.lap(stageScan)
	s.feedBlock(vals)
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

	det := s.det
	emitted := s.emitted
	for k, x := range vals {
		s.pending.push(x)
		if s.pending.len() > s.half {
			det.step(emitted, s.pending.pop(), s.flagBuf.popOrZero(), los[k], his[k])
			emitted++
		}
	}
	s.emitted = emitted
	s.clock.lap(stageDetect)
}

// finish drains the pipeline: the final lead positions take their own
// trailing smoother outputs, and the positions still inside the last
// half-window are decided against the final stats.
func (s *StreamAnalyzer) finish() *Profile {
	s.clock.start()
	if s.smoother != nil {
		k := min(s.lead, int(s.n))
		s.feedBlock(s.smTail[max(len(s.smTail)-k, 0):])
	}
	for s.haveStats && s.pending.len() > 0 {
		s.det.step(s.emitted, s.pending.pop(), s.flagBuf.popOrZero(), s.lastMin, s.lastMax)
		s.emitted++
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

// Stage indexes of a stageClock.
const (
	stageScan = iota
	stageNormalize
	stageDetect
)

// stageClock accumulates wall time per stage across chunks, for the
// stage timings a traced batch run reports. A nil clock is never read, so
// untraced runs pay one branch per lap.
type stageClock struct {
	ns [3]int64
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
