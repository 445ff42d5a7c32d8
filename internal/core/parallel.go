package core

// This file implements the parallel composition of the analysis engine
// (engine.go): ProfileParallel shards a long capture across a bounded
// worker pool and produces a Profile that is bit-identical to
// Analyzer.Profile on the same capture — stalls, confidences, quality
// counters and all. A single sequential pass caps profiling throughput
// far below what multi-core hardware allows, while long boot traces,
// multi-minute SPEC captures and sweep grids analyse hundreds of millions
// of samples.
//
// Exact equivalence dictates which stages can fan out:
//
//   - The monitor holds infinite-memory state (busy-level and
//     distinctness EMAs, last-good sample), and the smoother's running sum
//     rounds differently depending on the whole prefix. Both run
//     sequentially, in one producer pass over the capture.
//   - The moving min/max windows are finite (NormWindowS): the stats at
//     position j depend only on the last window of smoothed values and the
//     resync points inside it. A worker that starts its windows one full
//     window before the first stat it reads reproduces them exactly. This
//     is the expensive stage, and it fans out.
//   - The decide kernel is a cheap state machine; replaying it over the
//     shards in order reproduces hysteresis, aborts and confidences
//     exactly.
//
// The stages run as a pipeline rather than behind barriers: the producer
// dispatches each shard as soon as its pass covers the shard's read
// horizon, workers run the min/max kernel concurrently, and the caller
// decides the shards in order, freeing each as it is consumed. Wall time
// approaches max(scan, min/max ÷ workers) instead of their sum.

import (
	"runtime"
	"time"

	"emprof/internal/dsp"
	"emprof/internal/em"
	"emprof/internal/trace"
)

// ParallelOptions tunes ProfileParallel. The zero value auto-sizes
// everything; no setting changes the analysis result, only its speed and
// memory footprint.
type ParallelOptions struct {
	// Workers bounds the min/max worker pool; <= 0 uses
	// runtime.GOMAXPROCS(0). Workers == 1 runs the plain sequential
	// analyzer.
	Workers int
	// ChunkSamples is the shard length in samples; <= 0 picks a default
	// large enough that the one-window warm-up each worker redoes stays a
	// small fraction of its shard. Any positive value is valid and
	// produces the same profile.
	ChunkSamples int
}

// shardJob is one shard handed to a min/max worker. All indices are
// absolute capture positions.
type shardJob struct {
	idx    int
	lo, hi int // owned positions [lo, hi)
	// feed and last bound the positions the worker folds in: last is the
	// newest stat any owned position is decided against, feed is one
	// full window before the oldest.
	feed, last int
	// resyncs are the re-seed positions in [feed, last].
	resyncs []int64
}

// shardResult carries a shard's stats to the in-order decide stage.
type shardResult struct {
	shardJob
	// los/his[k] are the trailing stats after folding in position feed+k.
	los, his []float64
}

// ProfileParallel runs the full EMPROF pipeline over the capture using a
// bounded worker pool. The returned profile is deterministic and
// bit-identical to Profile(c) for every option setting: worker count and
// chunk size only affect speed. Captures too short to shard (or
// Workers == 1) fall through to the sequential path.
func (a *Analyzer) ProfileParallel(c *em.Capture, opts ParallelOptions) *Profile {
	n := len(c.Samples)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := normWindow(a.cfg, c.SampleRate)
	half := w / 2
	lead := 0
	if a.cfg.SmoothSamples > 1 {
		lead = (a.cfg.SmoothSamples - 1) / 2
	}
	chunk := opts.ChunkSamples
	if chunk <= 0 {
		chunk = max(1<<16, 2*w)
	}
	numChunks := (n + chunk - 1) / chunk
	if workers < 2 || numChunks < 2 {
		return a.Profile(c)
	}

	p := &Profile{
		ExecCycles: float64(n) * c.CyclesPerSample(),
		SampleRate: c.SampleRate,
		ClockHz:    c.ClockHz,
	}

	// Tracing: the producer emits the monitor's resync/flag events and
	// the scan timing, workers emit per-shard normalize timings, and the
	// decide loop emits detection events and ChunkMerged — concurrently,
	// which is why Analyzer.Observer must be goroutine-safe here.
	obs := a.Observer
	mon := newMonitor(a.cfg, c.SampleRate)
	mon.obs = obs
	san := make([]float64, n)
	flags := make([]qflag, n)
	// x holds the positions' values: the centred smoother output, or the
	// sanitised samples themselves when smoothing is off.
	x := san
	var ma *dsp.MovingAverage
	if a.cfg.SmoothSamples > 1 {
		ma = dsp.NewMovingAverage(a.cfg.SmoothSamples)
		x = make([]float64, n)
	}

	sem := make(chan struct{}, workers+2)
	jobs := make(chan shardJob, numChunks)
	results := make([]chan shardResult, numChunks)
	for i := range results {
		results[i] = make(chan shardResult, 1)
	}

	// Producer: the monitor and smoother kernels over the whole capture,
	// one engine chunk at a time. Shard c is dispatched once the pass
	// covers its read horizon: its last stat position plus the smoother's
	// lead (which also covers every retroactive flag patch, those being
	// shallower than half a window).
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		defer close(jobs)
		var t0 time.Time
		if obs != nil {
			t0 = time.Now()
			defer func() {
				obs.StageTiming(trace.StageTiming{Stage: trace.StageScan, DurationNs: time.Since(t0).Nanoseconds(), Samples: int64(n)})
			}()
		}
		var resyncs []int64
		next := 0
		dispatch := func() {
			lo := next * chunk
			hi := min(lo+chunk, n)
			job := shardJob{idx: next, lo: lo, hi: hi, last: min(hi-1+half, n-1)}
			job.feed = max(min(lo+half, n-1)-w+1, 0)
			for _, r := range resyncs {
				if r > int64(job.last) {
					break
				}
				if r >= int64(job.feed) {
					job.resyncs = append(job.resyncs, r)
				}
			}
			sem <- struct{}{}
			jobs <- job
			next++
		}
		for b0 := 0; b0 < n; b0 += pushBlockN {
			b1 := min(b0+pushBlockN, n)
			mon.processBlock(c.Samples[b0:b1], san[b0:b1], flags[b0:b1],
				func(back int, f qflag) bool {
					if b0-back < 0 {
						return false
					}
					flags[b0-back] |= f
					return true
				},
				func(i int) { resyncs = append(resyncs, int64(b0+i)) })
			if ma != nil {
				// Position p takes the trailing average ending at p+lead;
				// the final lead positions keep their own, which the
				// shift never overwrites.
				ma.ProcessBlock(san[b0:b1], x[b0:b1])
				if from := max(b0, lead); from < b1 {
					copy(x[from-lead:], x[from:b1])
				}
			}
			for next < numChunks && b1 >= min((next+1)*chunk+half+lead, n) {
				dispatch()
			}
		}
		for next < numChunks {
			dispatch()
		}
	}()

	// Workers: the min/max kernel over each shard, warmed up from one
	// full window before its first stat, which is exactly the history
	// the finite windows remember.
	for wk := 0; wk < workers; wk++ {
		go func() {
			mmin, mmax := dsp.NewMovingMin(w), dsp.NewMovingMax(w)
			for job := range jobs {
				var t0 time.Time
				if obs != nil {
					t0 = time.Now()
				}
				mmin.Reset()
				mmax.Reset()
				res := shardResult{
					shardJob: job,
					los:      make([]float64, job.last-job.feed+1),
					his:      make([]float64, job.last-job.feed+1),
				}
				minMaxSpan(mmin, mmax, x[job.feed:job.last+1], res.los, res.his, int64(job.feed), job.resyncs)
				if obs != nil {
					obs.StageTiming(trace.StageTiming{Stage: trace.StageNormalize, DurationNs: time.Since(t0).Nanoseconds(), Samples: int64(job.hi - job.lo)})
				}
				results[job.idx] <- res
			}
		}()
	}

	// Decide the shards in capture order. The detector's cross-shard
	// state (open dips, hysteresis, last impairment distance) carries over
	// because the replay is one sequential pass over bit-identical inputs.
	var detQ Quality
	d := newDetector(a.cfg, c.SampleRate, c.ClockHz, half, p, &detQ, nil)
	d.obs = obs
	if a.KeepNormalized {
		d.keep = true
		p.Normalized = make([]float64, 0, n)
	}
	var mergeT0 time.Time
	if obs != nil {
		mergeT0 = time.Now()
	}
	// Positions from n−half on are decided against the final stats, the
	// last in their shard's stats; the replay broadcasts them into lo/hi.
	clamp := max(n-half, 0)
	var lo, hi []float64
	for ci := 0; ci < numChunks; ci++ {
		res := <-results[ci]
		stallsBefore := len(p.Stalls)
		if e := min(res.hi, clamp); res.lo < e {
			k := res.lo + half - res.feed
			d.run(int64(res.lo), x[res.lo:e], flags[res.lo:e], res.los[k:], res.his[k:])
		}
		if b := max(res.lo, clamp); b < res.hi {
			if lo == nil {
				lo, hi = make([]float64, n-clamp), make([]float64, n-clamp)
			}
			lo, hi = lo[:res.hi-b], hi[:res.hi-b]
			for j := range lo {
				lo[j], hi[j] = res.los[len(res.los)-1], res.his[len(res.his)-1]
			}
			d.run(int64(b), x[b:res.hi], flags[b:res.hi], lo, hi)
		}
		if obs != nil {
			obs.ChunkMerged(trace.ChunkMerged{
				Chunk: res.idx, Lo: int64(res.lo), Hi: int64(res.hi),
				Stalls: len(p.Stalls) - stallsBefore,
			})
		}
		<-sem
	}
	d.finish(int64(n))
	if obs != nil {
		obs.StageTiming(trace.StageTiming{Stage: trace.StageMerge, DurationNs: time.Since(mergeT0).Nanoseconds(), Samples: int64(n)})
	}
	<-scanDone
	p.Quality = mon.q
	p.Quality.AbortedDips += detQ.AbortedDips
	return p
}
