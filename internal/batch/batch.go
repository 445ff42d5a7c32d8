// Package batch is the sweep runner behind emprof.RunSweep: it executes
// independent simulate→inject→analyze jobs (the cells of an
// emprof.SweepGrid) on a bounded worker pool. The concurrency machinery
// lives here, decoupled from what a job actually does, so commands and
// tests can drive arbitrary pipelines through it.
//
// Guarantees:
//
//   - Ordered collection: results[i] always corresponds to jobs[i], no
//     matter which worker ran it or when it finished.
//   - Error isolation: one job failing (or panicking) never takes down the
//     sweep; the failure is recorded in that job's Result and every other
//     job still runs.
//   - Cancellation: when the context is cancelled, jobs that have not
//     started are marked with the context error instead of running, and
//     Run returns that error alongside the partial results.
//   - Deterministic seeding: MixSeed derives per-job seeds from stable
//     coordinates (never from shared RNG state or completion order), so a
//     sweep's outputs are independent of scheduling.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Result couples one job's outcome with its position in the input order.
type Result[T any] struct {
	// Index is the job's position in the slice passed to Run.
	Index int
	// Value is the job's result; meaningful only when Err is nil.
	Value T
	// Err is the job's failure: the error fn returned, a recovered panic,
	// or the context error for jobs skipped after cancellation.
	Err error
}

// Run executes fn over every job on a pool of at most workers goroutines
// (<= 0 uses runtime.GOMAXPROCS(0)) and returns the results in input
// order. It blocks until every dispatched job has finished. The returned
// error is nil on a full sweep and ctx.Err() when the sweep was cut short;
// per-job failures are reported in the results, never as the run error.
func Run[J, T any](ctx context.Context, jobs []J, workers int, fn func(ctx context.Context, index int, job J) (T, error)) ([]Result[T], error) {
	if fn == nil {
		return nil, fmt.Errorf("batch: nil job function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = Result[T]{Index: i}
				// A cancelled sweep stops starting jobs but still drains
				// the queue so every slot is filled deterministically.
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				results[i].Value, results[i].Err = runOne(ctx, i, jobs[i], fn)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, ctx.Err()
}

// runOne invokes fn with panic isolation: a panicking job is converted
// into that job's error instead of crashing the sweep.
func runOne[J, T any](ctx context.Context, i int, job J, fn func(context.Context, int, J) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch: job %d panicked: %v", i, r)
		}
	}()
	return fn(ctx, i, job)
}

// MixSeed folds the parts into one well-scrambled 64-bit seed using
// splitmix64 steps. Jobs that need secondary randomness (fault injection
// on top of a simulation seed, per-cell jitter) derive it from stable
// coordinates via MixSeed so results never depend on scheduling.
func MixSeed(parts ...uint64) uint64 {
	z := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + p
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// MixSeedString folds a string coordinate (a device or workload name)
// into MixSeed input form via FNV-1a.
func MixSeedString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
