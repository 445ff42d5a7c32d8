package core

// This file is the pipelined composition of the analysis engine
// (engine.go): ProfileParallel is the streaming engine cut in two at
// feedBlock, one half per goroutine.
//
//   - The producer runs scan (monitor and smoother) over the capture in
//     pushBlockN chunks. Both stages carry state over the whole prefix:
//     the monitor's EMAs and last good sample, the smoother's running sum.
//   - The caller runs feedBlock (min/max and decide) on a second engine,
//     then drain. Its stages are exactly the streaming engine's, so the
//     profile is bit-identical to Profile by construction.
//
// The producer hands each chunk over through a small fixed pool of
// reused buffers: the values of the positions the chunk completed, the
// flags that have settled and the new resync positions. A flag settles
// once no later sample can patch it. The monitor patches at most half−1
// positions back (stepRetro and the clip retro in qualityblock.go are
// both clamped to half−1), so the producer holds back the newest half
// flags in its own ring and hands over the rest; no patch can reach a
// flag the caller already holds. The caller needs the flags of positions
// before fed−half = n−lead−half, which the hold-back always covers.
//
// This replaced a sharded composition that ran min/max on a worker pool,
// each shard warmed up from one window before its first stat, over
// whole-capture arrays. Once the min/max and decide kernels got fast it
// no longer paid. In BenchmarkAnalyzeParallel (12 Mi samples, 2-vCPU
// Xeon, go1.24.0, workers-2) the shards took 176–215 ms at 455 MB/op,
// this pipeline 144–173 ms at 8.9 MB/op; at -cpu 1 the shards took up
// to 1.5× the sequential time, the pipeline about the same time. It
// allocates no capture-length arrays beyond KeepNormalized's series.

import "emprof/internal/em"

// handoff is one pool buffer: a chunk's positions' values, the flags
// that settled with it and the resyncs its scan found.
type handoff struct {
	vals    []float64
	flags   []qflag
	resyncs []int64
}

// handoffBufs is the size of the buffer pool: how many chunks the
// producer may run ahead of the caller. With one or two, each goroutine
// keeps waiting for the other to be woken: on two cores a 12 Mi-sample
// capture took 270–309 ms with one and 199–253 ms with two, against
// 156–160 ms with four.
const handoffBufs = 4

// ProfileParallel runs the full EMPROF pipeline over the capture on two
// goroutines: scan on one, min/max and decide on the caller's. The
// returned profile is bit-identical to Profile(c). An attached Observer
// receives monitor events from the producer concurrently with detector
// events from the caller, so it must be safe for concurrent use.
func (a *Analyzer) ProfileParallel(c *em.Capture) *Profile {
	prod := a.engine(c, false)
	cons := a.engine(c, a.KeepNormalized)
	obs := a.Observer
	prod.SetObserver(obs)
	cons.SetObserver(obs)
	cons.lanes() // size the caller's flag ring before the first hand-off

	free := make(chan *handoff, handoffBufs)
	full := make(chan *handoff, handoffBufs)
	for range handoffBufs {
		free <- &handoff{}
	}
	go func() {
		// send hands over the values and the oldest settled flags, and
		// every resync found so far.
		send := func(vals []float64, settled int) {
			h := <-free
			h.vals = append(h.vals[:0], vals...)
			f0, f1 := prod.flagBuf.front(settled)
			h.flags = append(append(h.flags[:0], f0...), f1...)
			prod.flagBuf.discard(settled)
			h.resyncs = append(h.resyncs[:0], prod.resyncAt...)
			prod.resyncAt = prod.resyncAt[:0]
			full <- h
		}
		xs := c.Samples
		for b0 := 0; b0 < len(xs); b0 += pushBlockN {
			vals := prod.scan(xs[b0:min(b0+pushBlockN, len(xs))])
			send(vals, max(prod.flagBuf.len()-prod.half, 0))
		}
		send(prod.tail(), prod.flagBuf.len())
		close(full)
	}()

	for h := range full {
		cons.clock.start()
		cons.flagBuf.pushSlice(h.flags)
		cons.resyncAt = append(cons.resyncAt, h.resyncs...)
		cons.feedBlock(h.vals)
		free <- h
	}
	cons.n = prod.n
	p := cons.drain()
	// The caller's detector counted its aborted dips on the caller's
	// (otherwise idle) monitor record.
	q := prod.mon.q
	q.AbortedDips = p.Quality.AbortedDips
	p.Quality = q
	if obs != nil {
		reportStages(obs, prod.n, prod.clock, cons.clock)
	}
	return p
}
