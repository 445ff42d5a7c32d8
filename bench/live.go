package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"emprof"
	"emprof/internal/batch"
)

// serviceJobs are the captures the service workloads stream: two SPEC
// programs on one device (a session has one sample rate), the second
// impaired, each cut to ten 24,000-sample pushes. Both run at 62–65k
// samsung samples per million instructions, so ScaleM 4.6 leaves a margin
// of a sixth over 240,000. Samsung samples cost the simulator about half
// what olimex samples do, which keeps set-up short.
func serviceJobs(p params, salt uint64) []captureJob {
	progs, n, scale := []string{"gzip", "vortex"}, 10*pushSamples, 4.6
	if p.small {
		n, scale = 2*pushSamples, 0.95
	}
	var jobs []captureJob
	for i, prog := range progs {
		jobs = append(jobs, captureJob{
			device:   "samsung",
			workload: "spec:" + prog,
			scaleM:   scale,
			seed:     batch.MixSeed(p.seed, salt, uint64(i)),
			faults:   i%2 == 1,
			samples:  n,
		})
	}
	return jobs
}

// warmup is how long a service workload runs before it is measured.
func warmup(p params) time.Duration {
	if p.small {
		return 100 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// warm turns a failed warm-up into a set-up error, so no failure goes
// uncounted.
func warm(pr *phaseResult) error {
	if pr.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed: %v", pr.failed, pr.ops, pr.failures)
	}
	return nil
}

// liveIngest is the live path at capacity: two closed-loop streams, each
// uploading whole sessions through the router and waiting for every reply,
// as a probe host running StreamCapture does.
type liveIngest struct {
	p    params
	caps []capIn
	// f runs production defaults; ft, booted only for traced runs, carries
	// the span wrappers.
	f, ft *localFleet
	// next counts each stream's sessions, so that successive rounds carry
	// on through the captures.
	next [2]int
}

func newLiveIngest(p params) bench { return &liveIngest{p: p} }

func (l *liveIngest) setup(tr *tracer) error {
	var err error
	if l.caps, err = simulateCaptures(tr, serviceJobs(l.p, 1)); err != nil {
		return err
	}
	if l.f, err = startFleet(nil, 0, "", l.p.seed); err != nil {
		return err
	}
	if err := warm(l.round(l.f, nil, time.Now().Add(warmup(l.p)))); err != nil {
		return err
	}
	if tr != nil {
		if l.ft, err = startFleet(tr, 0, "", l.p.seed); err != nil {
			return err
		}
		if err := warm(l.round(l.ft, nil, time.Now().Add(warmup(l.p)))); err != nil {
			return err
		}
	}
	if l.p.corrupt {
		perturb(l.caps[0].ref)
	}
	return nil
}

func (l *liveIngest) measure(cal *calibrator, d time.Duration, tr *tracer) *phaseResult {
	f := l.f
	if tr != nil {
		f = l.ft
	}
	return measureRounds(cal, d, func(until time.Time) *phaseResult { return l.round(f, tr, until) })
}

// round drives both streams until the deadline; a session in flight at
// the deadline completes. Each stream cycles through the captures from
// its own starting point, so both carry the same mix.
func (l *liveIngest) round(f *localFleet, tr *tracer, deadline time.Time) *phaseResult {
	pr := newPhase()
	workers := make([]*phaseResult, 2)
	var wg sync.WaitGroup
	for s := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := newPhase()
			cl := newCaller(f, tr)
			defer cl.close()
			for ; res.ops == 0 || time.Now().Before(deadline); l.next[s]++ {
				l.session(cl, l.caps[(s+l.next[s])%len(l.caps)], res)
			}
			workers[s] = res
		}()
	}
	wg.Wait()
	for _, w := range workers {
		pr.merge(w)
	}
	return pr
}

// session uploads one capture: create, pushes with a snapshot after every
// fourth, finalize, and a check against the capture's batch profile. The
// session is timed from create to the finalized profile.
func (l *liveIngest) session(cl *caller, in capIn, res *phaseResult) {
	t0 := time.Now()
	id, d, err := cl.create(in.c)
	res.ops++
	res.record("create", d)
	if err != nil {
		res.fail("create: %s", errString(err))
		return
	}
	n := len(in.c.Samples)
	for off, pushes := 0, 1; off < n; off, pushes = off+pushSamples, pushes+1 {
		end := min(off+pushSamples, n)
		d, err := cl.push(id, int64(off), in.c.Samples[off:end])
		res.ops++
		res.record("push", d)
		if err != nil {
			res.fail("push: %s", errString(err))
			break
		}
		res.units += float64(end - off)
		if pushes%4 == 0 && end < n {
			d, err := cl.snapshot(id, int64(end))
			res.ops++
			res.record("snapshot", d)
			if err != nil {
				res.fail("snapshot: %s", errString(err))
			}
		}
	}
	// Finalize starts at the last push's acknowledgement, so its latency
	// is the last-sample-to-profile time.
	prof, d, err := cl.finalize(id)
	res.ops++
	res.record("finalize", d)
	res.record("session", time.Since(t0))
	switch {
	case err != nil:
		res.fail("finalize: %s", errString(err))
	case !reflect.DeepEqual(prof, in.ref):
		res.fail("finalized profile differs from the batch reference")
	}
}

func (l *liveIngest) inputs() []*emprof.Capture { return capsOf(l.caps) }

func (l *liveIngest) accuracyPct() float64 { return capsAccuracy(l.caps) }

// ledger is per sample: decoding the wire bytes and the block analyzer.
// The residual is the client, HTTP, the router, copies and the GC.
func (l *liveIngest) ledger(lc layerCosts) []ledgerRow {
	return []ledgerRow{
		{"em.decode", lc["em.decode_ns_per_sample"]},
		{"core.push_block", lc["core.push_block_ns_per_sample"]},
	}
}

func (l *liveIngest) close() {
	for _, f := range []*localFleet{l.f, l.ft} {
		if f != nil {
			f.close()
		}
	}
}

func capsOf(caps []capIn) []*emprof.Capture {
	out := make([]*emprof.Capture, len(caps))
	for i, c := range caps {
		out[i] = c.c
	}
	return out
}
