package main

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"emprof"
	"emprof/internal/batch"
)

// analyzeBatch is the offline profile step alone: the same set of
// simulated captures analyzed over and over by the default batch analyzer
// on two workers, as a sweep pool runs it. The simulator runs only at
// set-up.
type analyzeBatch struct {
	p    params
	caps []capIn
	// ans holds each worker's analyzer.
	ans [2]*emprof.Analyzer
	// next counts the operations started; the next one analyzes capture
	// next mod len(caps).
	next atomic.Int64
}

func newAnalyzeBatch(p params) bench { return &analyzeBatch{p: p} }

// analyzeJobs is one boot capture plus four SPEC programs, alternating
// devices; the samsung SPEC captures are impaired. Every capture is cut
// to two of the parallel analyzer's 65,536-sample shards, so every
// operation does the same amount of work, and the layer replay's
// WithWorkers(2) run has a whole shard for each worker. How fast a capture
// analyzes still depends on what it holds; with an odd number of captures
// the median operation falls inside the middle capture's timings rather
// than between two captures'. These programs yield 30–36k olimex or
// 62–66k samsung samples per million instructions, and a boot about 50k
// olimex samples, so the scales leave a margin of at least a seventh.
func analyzeJobs(p params) []captureJob {
	progs, n, olimex, samsung := []string{"gzip", "crafty", "mcf", "parser"}, 2*parallelChunk, 5.0, 2.5
	if p.small {
		progs, n, olimex, samsung = progs[:1], parallelChunk/2, 1.25, 0.625
	}
	jobs := []captureJob{{device: "olimex", workload: "boot", scaleM: 0.7 * olimex, seed: p.seed, samples: n}}
	for i, prog := range progs {
		job := captureJob{
			device:   "samsung",
			workload: "spec:" + prog,
			scaleM:   samsung,
			seed:     batch.MixSeed(p.seed, uint64(i)),
			faults:   i%2 == 0,
			samples:  n,
		}
		if i%2 == 1 {
			job.device, job.scaleM = "olimex", olimex
		}
		jobs = append(jobs, job)
	}
	return jobs
}

func (a *analyzeBatch) setup(tr *tracer) error {
	var err error
	if a.caps, err = simulateCaptures(tr, analyzeJobs(a.p)); err != nil {
		return err
	}
	if a.p.corrupt {
		perturb(a.caps[0].ref)
	}
	for i := range a.ans {
		if a.ans[i], err = emprof.NewAnalyzer(emprof.DefaultConfig()); err != nil {
			return err
		}
	}
	return nil
}

// measure runs both workers in rounds, each taking the next capture in
// turn until the round's time is up. Only the Run call is timed; its
// result is checked between calls.
func (a *analyzeBatch) measure(cal *calibrator, d time.Duration, tr *tracer) *phaseResult {
	return measureRounds(cal, d, func(until time.Time) *phaseResult {
		pr := newPhase()
		var workers [2]*phaseResult
		var wg sync.WaitGroup
		for w, an := range a.ans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				workers[w] = a.work(an, tr, until)
			}()
		}
		wg.Wait()
		for _, w := range workers {
			pr.merge(w)
		}
		return pr
	})
}

// work is one worker's share of a round.
func (a *analyzeBatch) work(an *emprof.Analyzer, tr *tracer, until time.Time) *phaseResult {
	ctx := context.Background()
	pr := newPhase()
	for first := true; first || time.Now().Before(until); first = false {
		i := int((a.next.Add(1) - 1) % int64(len(a.caps)))
		in := a.caps[i]
		var s span
		if tr != nil {
			s = tr.start("core.analyze", 0, 0)
		}
		t0 := time.Now()
		prof, err := an.Run(ctx, in.c)
		lat := time.Since(t0)
		if tr != nil {
			tr.finish(s)
		}
		pr.ops++
		pr.units += float64(len(in.c.Samples))
		pr.record("analyze", lat)
		if err != nil {
			pr.fail("capture %d: %v", i, err)
		} else if !reflect.DeepEqual(prof, in.ref) {
			pr.fail("capture %d: profile differs from the batch reference", i)
		}
	}
	return pr
}

func (a *analyzeBatch) inputs() []*emprof.Capture { return capsOf(a.caps) }

func (a *analyzeBatch) accuracyPct() float64 { return capsAccuracy(a.caps) }

// ledger is per sample: the batch analyzer.
func (a *analyzeBatch) ledger(l layerCosts) []ledgerRow {
	return []ledgerRow{{"core.batch", l["core.batch_ns_per_sample"]}}
}

func (a *analyzeBatch) close() {}
