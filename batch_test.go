package emprof_test

import (
	"testing"

	emprof "emprof"
	"emprof/internal/acquire"
)

// TestSimulateBatchCyclesInvariant is the end-to-end contract for the
// block-vectorized synthesis pipeline: the batch size at the
// simulator→receiver boundary (acquire.Hooks.BatchCycles) is a pure
// performance knob. Captures, the
// memory-probe capture and the SESC-style power trace must be bit-identical
// whether power is delivered in blocks of one cycle, in the default blocks, or
// in a deliberately odd batch size that never divides the capture evenly.
func TestSimulateBatchCyclesInvariant(t *testing.T) {
	run := func(batch int) *emprof.Run {
		// Workload streams are single-use; build a fresh (deterministic)
		// one per run.
		w, err := emprof.Microbenchmark(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		r, err := acquire.Simulate(emprof.DeviceOlimex(), w, emprof.CaptureOptions{
			Seed:        42,
			PowerProxy:  true,
			MemoryProbe: true,
		}, acquire.Hooks{BatchCycles: batch})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		return r
	}
	ref := run(1) // strictly per-cycle
	for _, batch := range []int{0, 613, 4096} {
		got := run(batch)
		compareSamples(t, batch, "capture", got.Capture.Samples, ref.Capture.Samples)
		compareSamples(t, batch, "mem capture", got.MemCapture.Samples, ref.MemCapture.Samples)
		compareSamples(t, batch, "power trace", got.PowerTrace, ref.PowerTrace)
		if got.Truth.Cycles != ref.Truth.Cycles {
			t.Errorf("batch %d: %d cycles, want %d", batch, got.Truth.Cycles, ref.Truth.Cycles)
		}
	}
}

func compareSamples(t *testing.T, batch int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch %d: %s has %d samples, want %d", batch, what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d: %s sample %d = %v, want %v (bitwise)", batch, what, i, got[i], want[i])
		}
	}
}
