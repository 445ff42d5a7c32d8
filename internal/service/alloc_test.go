package service

import (
	"io"
	"math"
	"testing"

	"emprof/internal/core"
	"emprof/internal/trace"
)

// TestIngestSteadyStateZeroAllocs pins the tentpole of the zero-copy
// ingest work: once a session is warm (analyzer windows filled, pools
// populated), pushing a 64 KiB raw body through the registry's ingest
// path — block decode into pooled scratch, PushBlock through the staged
// analyzer on the request — performs zero heap allocations, i.e. 0
// allocs/sample at steady state.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	// A clean busy-level signal: varies (so no stuck-value heuristics can
	// engage) but never dips, flags, or resyncs — no stall appends, so
	// steady state is pure pipeline work.
	samples := make([]float64, ingestChunk/8)
	for i := range samples {
		samples[i] = 1 + 0.02*math.Sin(float64(i)*0.003)
	}
	if allocs, _ := steadyIngestAllocs(t, samples); allocs != 0 {
		t.Fatalf("steady-state ingest allocates: %.2f allocs per %d-sample push (want 0)",
			allocs, len(samples))
	}
}

// TestImpairedIngestSteadyStateZeroAllocs is the same check on an
// impaired signal, so every push drives the session's default trace
// sinks (ring and metrics) with every decision type: dips accepted and
// rejected, a dropout gap, a NaN, and a gain step up and back down whose
// confirming sample carries the two-class flag set burst|step.
func TestImpairedIngestSteadyStateZeroAllocs(t *testing.T) {
	samples := make([]float64, ingestChunk/8)
	half := len(samples) / 2
	for i := range samples {
		level := 1.0
		if i >= half {
			level = 3
		}
		samples[i] = level * (1 + 0.02*math.Sin(float64(i)*0.37))
		switch {
		case i < half && i%2048 >= 1000 && i%2048 < 1000+4+i/2048:
			samples[i] = 0.05
		case i >= 5000 && i < 5064:
			samples[i] = 0
		case i == 7001:
			samples[i] = math.NaN()
		}
	}
	allocs, sess := steadyIngestAllocs(t, samples)
	if allocs != 0 {
		t.Fatalf("traced impaired ingest allocates: %.2f allocs per %d-sample push (want 0)",
			allocs, len(samples))
	}
	seen := map[string]bool{}
	for _, r := range sess.ring.Records() {
		seen[r.Type] = true
		if r.Flags == trace.FlagBurst|trace.FlagStep {
			seen["burst|step"] = true
		}
	}
	for _, want := range []string{trace.TypeStallAccepted, trace.TypeStallRejected, trace.TypeResync, trace.TypeQualityFlag, "burst|step"} {
		if !seen[want] {
			t.Fatalf("no %s in the session trace; the check is vacuous", want)
		}
	}
}

// steadyIngestAllocs pushes samples as one raw body through a warm
// session of a default daemon (traced: per-session ring plus the shared
// trace metrics) and returns the allocations per push and the session.
func steadyIngestAllocs(t *testing.T, samples []float64) (float64, *session) {
	t.Helper()
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
	return testing.AllocsPerRun(50, run), sess
}
