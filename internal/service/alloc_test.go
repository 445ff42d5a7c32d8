package service

import (
	"io"
	"math"
	"testing"

	"emprof/internal/core"
)

// TestIngestSteadyStateZeroAllocs pins the tentpole of the zero-copy
// ingest work: once a session is warm (analyzer windows filled, pools
// populated), pushing a 64 KiB raw body through the registry's ingest
// path — block decode into pooled scratch, PushBlock through the staged
// analyzer on the request — performs zero heap allocations, i.e. 0
// allocs/sample at steady state.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	srv := New(Config{})
	reg := srv.Registry()
	id, err := reg.CreateSession(CreateOpts{Device: "alloc-test", SampleRate: 40e6, ClockHz: 1e9, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.get(id)
	if err != nil {
		t.Fatal(err)
	}

	// A clean busy-level signal: varies (so no stuck-value heuristics can
	// engage) but never dips, flags, or resyncs — no stall appends, so
	// steady state is pure pipeline work.
	samples := make([]float64, ingestChunk/8)
	for i := range samples {
		samples[i] = 1 + 0.02*math.Sin(float64(i)*0.003)
	}
	chunk := rawBytes(samples)

	served := false
	next := func() ([]byte, error) {
		if served {
			return nil, io.EOF
		}
		served = true
		return chunk, io.EOF
	}
	run := func() {
		served = false
		if _, err := reg.ingest(sess, int64(len(chunk)), -1, next); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: fill the normalisation window, the analyzer's queues and
	// scratch, and the decode pools, so the warmup's one-time growth
	// allocations land before the measurement starts.
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Fatalf("steady-state ingest allocates: %.2f allocs per %d-sample push (want 0)",
			allocs, len(samples))
	}
}
