package emprof_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"emprof"
	"emprof/internal/cpu"
	"emprof/internal/em"
)

// TestCustomWorkloadEndToEnd drives a JSON-defined workload through the
// whole stack: build → simulate → save capture → load capture → profile
// (batch and streaming) — the exact path an external user of the library
// plus the two CLIs exercises.
func TestCustomWorkloadEndToEnd(t *testing.T) {
	spec := []byte(`{
	  "Name": "endtoend", "Seed": 5,
	  "Phases": [{
	    "Name": "main", "Region": 1, "Insts": 300000,
	    "LoadFrac": 0.3, "StoreFrac": 0.06,
	    "LoopLen": 40, "CodeBytes": 8192,
	    "WSBytes": 8388608, "HotBytes": 24576,
	    "ColdFrac": 0.0008,
	    "DepFrac": 0.45
	  }]
	}`)
	wl, err := emprof.CustomWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), wl, emprof.CaptureOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Truth.Misses) < 20 {
		t.Fatalf("workload produced only %d misses", len(run.Truth.Misses))
	}

	path := filepath.Join(t.TempDir(), "run.cap")
	if err := em.SaveCapture(path, run.Capture); err != nil {
		t.Fatal(err)
	}
	loaded, err := em.LoadCapture(path)
	if err != nil {
		t.Fatal(err)
	}

	batch := analyze(t, loaded, emprof.DefaultConfig())
	stream := analyze(t, loaded, emprof.DefaultConfig(), emprof.WithStreaming())
	if len(batch.Stalls) == 0 {
		t.Fatal("no stalls detected end to end")
	}
	if len(batch.Stalls) != len(stream.Stalls) {
		t.Fatalf("batch %d vs stream %d stalls", len(batch.Stalls), len(stream.Stalls))
	}
	// The detector should land in the neighbourhood of the ground-truth
	// *event* count: stall intervals merged at the signal resolution and
	// long enough to be attributable (raw miss records include hidden and
	// overlapped misses a signal cannot separate — Fig. 3).
	events := 0
	for _, iv := range cpu.MergeStalls(run.Truth.Stalls, 50) {
		if iv.StalledCycles() >= 90 && 2*iv.StalledCycles() >= iv.Cycles() {
			events++
		}
	}
	if len(batch.Stalls) < events*2/3 || len(batch.Stalls) > events*3/2 {
		t.Fatalf("detected %d stalls for %d ground-truth events (%d raw misses)",
			len(batch.Stalls), events, len(run.Truth.Misses))
	}
}

// TestLoadWorkloadFile checks the file-based workload entry point used by
// `emsim -workload file:...`.
func TestLoadWorkloadFile(t *testing.T) {
	spec := `{
	  "Phases": [{
	    "Name": "x", "Region": 1, "Insts": 5000,
	    "LoadFrac": 0.2, "LoopLen": 32, "CodeBytes": 4096,
	    "WSBytes": 1048576, "HotBytes": 16384, "DepFrac": 0.3
	  }]
	}`
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	wl, err := emprof.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := emprof.Simulate(emprof.DeviceSamsung(), wl, emprof.CaptureOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := emprof.LoadWorkload(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing workload file accepted")
	}
}

// TestOoODeviceVariant checks that an OoO-windowed device runs through
// the public API and stalls less per miss than its in-order twin — the
// paper's Section II-B contrast surfaced as a library capability.
func TestOoODeviceVariant(t *testing.T) {
	mk := func(window int) (stallPerMiss float64) {
		dev := emprof.DeviceSESC()
		dev.CPU.FetchQueue = 48
		dev.CPU.OoOWindow = window
		wl, err := emprof.SPECWorkload("mcf", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		run, err := emprof.Simulate(dev, wl, emprof.CaptureOptions{Seed: 1, NoiseFree: true, BandwidthHz: 50e6})
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Truth.Misses) == 0 {
			t.Fatal("no misses")
		}
		return float64(run.Truth.FullStallCycles) / float64(len(run.Truth.Misses))
	}
	inOrder, ooo := mk(0), mk(32)
	if ooo >= inOrder {
		t.Fatalf("OoO stall/miss %.1f not below in-order %.1f", ooo, inOrder)
	}
}

// analyze profiles c with NewAnalyzer(cfg, opts...).Run, failing tb on
// error.
func analyze(tb testing.TB, c *emprof.Capture, cfg emprof.Config, opts ...emprof.Option) *emprof.Profile {
	tb.Helper()
	an, err := emprof.NewAnalyzer(cfg, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	prof, err := an.Run(context.Background(), c)
	if err != nil {
		tb.Fatal(err)
	}
	return prof
}
