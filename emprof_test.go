package emprof

import (
	"math"
	"testing"
)

func TestEndToEndMicrobenchmark(t *testing.T) {
	// The repository's headline result, end to end through the public
	// API: the Fig. 6 microbenchmark on the Olimex model, profiled from
	// the synthesized EM signal, counts its engineered misses.
	const tm = 256
	w, err := Microbenchmark(tm, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := run.SliceRegion(3) // workloads.RegionMisses
	if err != nil {
		t.Fatal(err)
	}
	prof, err := runAnalyzer(slice, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := prof.CountAccuracy(tm).Percent; acc < 97 {
		t.Fatalf("count accuracy %.2f%%, want >= 97%% (paper: >= 99%%)", acc)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	mk := func() *Run {
		w, err := SPECWorkload("mcf", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := Simulate(DeviceSamsung(), w, CaptureOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := mk(), mk()
	if a.Truth.Cycles != b.Truth.Cycles || len(a.Truth.Misses) != len(b.Truth.Misses) {
		t.Fatal("simulation not deterministic")
	}
	for i := range a.Capture.Samples {
		if a.Capture.Samples[i] != b.Capture.Samples[i] {
			t.Fatal("captures differ between identical runs")
		}
	}
}

func TestCaptureOptionBandwidth(t *testing.T) {
	w, _ := SPECWorkload("vpr", 0.05)
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 1, BandwidthHz: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(run.Capture.SampleRate-20e6) > 1e6 {
		t.Fatalf("sample rate %v, want ~20 MHz", run.Capture.SampleRate)
	}
}

func TestPowerProxyOption(t *testing.T) {
	w, _ := SPECWorkload("vpr", 0.05)
	run, err := Simulate(DeviceSESC(), w, CaptureOptions{Seed: 1, NoiseFree: true, PowerProxy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.PowerTrace) == 0 || run.PowerRate != 50e6 {
		t.Fatalf("power proxy missing: %d samples at %v Hz", len(run.PowerTrace), run.PowerRate)
	}
	// The proxy averages 20 cycles per sample at 1 GHz.
	wantLen := int(run.Truth.Cycles / 20)
	if len(run.PowerTrace) < wantLen || len(run.PowerTrace) > wantLen+1 {
		t.Fatalf("proxy length %d, want ~%d", len(run.PowerTrace), wantLen)
	}
}

func TestMemoryProbeOption(t *testing.T) {
	w, err := Microbenchmark(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 1, MemoryProbe: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.MemCapture == nil || len(run.MemCapture.Samples) == 0 {
		t.Fatal("memory-probe capture missing")
	}
}

func TestDeviceAccessors(t *testing.T) {
	if len(Devices()) != 3 {
		t.Fatal("three physical devices expected")
	}
	if _, err := DeviceByName("olimex"); err != nil {
		t.Fatal(err)
	}
	if _, err := DeviceByName("pixel"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if DeviceSESC().CPU.Width != 4 {
		t.Fatal("SESC device must be 4-wide")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if _, err := Microbenchmark(0, 1); err == nil {
		t.Error("TM=0 accepted")
	}
	if _, err := SPECWorkload("quake3", 1); err == nil {
		t.Error("unknown SPEC name accepted")
	}
	w := BootWorkload(0.05, 3)
	if w == nil {
		t.Fatal("boot workload nil")
	}
}

func TestAnalyzeValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnterThreshold = 2
	if _, err := runAnalyzer(&Capture{}, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSliceRegionErrors(t *testing.T) {
	w, _ := SPECWorkload("vpr", 0.02)
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.SliceRegion(199); err == nil {
		t.Fatal("absent region accepted")
	}
}

// TestSliceCyclesRounding pins the window arithmetic: lo floors, hi
// ceils, so a cycle range always maps to the whole samples covering it.
// The old behaviour truncated both ends, silently dropping the final
// partial sample of every range.
func TestSliceCyclesRounding(t *testing.T) {
	// 100 samples at 20 cycles/sample.
	r := &Run{Capture: &Capture{Samples: make([]float64, 100), SampleRate: 50e6, ClockHz: 1e9}}
	cases := []struct {
		lo, hi uint64
		want   int
	}{
		{0, 2000, 100}, // exact full range
		{0, 1, 1},      // sub-sample range still yields its covering sample
		{0, 1999, 100}, // partial final sample included (old code: 99)
		{10, 30, 2},    // straddles a sample boundary: both samples covered
		{20, 40, 1},    // exactly one sample
		{40, 40, 0},    // empty range
		{1990, 2000, 1},
	}
	for _, tc := range cases {
		got := r.SliceCycles(tc.lo, tc.hi)
		if len(got.Samples) != tc.want {
			t.Errorf("SliceCycles(%d, %d) = %d samples, want %d", tc.lo, tc.hi, len(got.Samples), tc.want)
		}
	}
	// No sample-rate metadata: empty slice, not a panic or Inf index.
	degenerate := &Run{Capture: &Capture{Samples: make([]float64, 10)}}
	if got := degenerate.SliceCycles(0, 100); len(got.Samples) != 0 {
		t.Fatalf("degenerate SliceCycles returned %d samples", len(got.Samples))
	}
}

// TestSliceRegionCoversGroundTruthStalls is the end-to-end regression for
// the SliceCycles fix: every ground-truth stall inside a region's cycle
// window must land within the region's sub-capture, including stalls
// touching the final, partially-covered sample.
func TestSliceRegionCoversGroundTruthStalls(t *testing.T) {
	w, err := Microbenchmark(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const region = 3 // workloads.RegionMisses
	lo, hi, ok := run.RegionWindow(region)
	if !ok {
		t.Fatal("miss region absent")
	}
	slice := run.SliceCycles(lo, hi)
	cps := run.Capture.CyclesPerSample()
	first := int(math.Floor(float64(lo) / cps))
	checked := 0
	for _, s := range run.Truth.Stalls {
		if s.Start < lo || s.End > hi {
			continue
		}
		checked++
		// The sample containing the stall's last cycle must be in range.
		last := int(float64(s.End-1) / cps)
		if last-first >= len(slice.Samples) {
			t.Fatalf("stall [%d, %d) maps to sample %d, beyond slice of %d samples (first=%d)",
				s.Start, s.End, last, len(slice.Samples), first)
		}
	}
	if checked == 0 {
		t.Fatal("no ground-truth stalls inside the miss region")
	}
}

// TestAnalyzeParallelMatchesAnalyze checks the public parallel path
// (NewAnalyzer with WithWorkers) against the batch path end to end: identical profiles on a clean simulated capture and
// on a fault-impaired one, for several worker counts.
func TestAnalyzeParallelMatchesAnalyze(t *testing.T) {
	w, err := Microbenchmark(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	impaired, _, err := InjectFaults(run.Capture, FaultSpec{
		DropoutRate: 0.001, GainStepsPerS: 100, NaNRate: 1e-4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for name, c := range map[string]*Capture{"clean": run.Capture, "faulted": impaired} {
		want, err := runAnalyzer(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			got, err := runAnalyzer(c, cfg, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got.Misses != want.Misses || got.StallCycles != want.StallCycles ||
				got.Quality != want.Quality || len(got.Stalls) != len(want.Stalls) {
				t.Fatalf("%s capture, %d workers: parallel %d misses/%v quality, sequential %d/%v",
					name, workers, got.Misses, got.Quality, want.Misses, want.Quality)
			}
			for i := range want.Stalls {
				if got.Stalls[i] != want.Stalls[i] {
					t.Fatalf("%s capture, %d workers: stall %d diverged", name, workers, i)
				}
			}
		}
	}
}

func TestAnalyzeParallelValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExitThreshold = -1
	if _, err := runAnalyzer(&Capture{}, cfg, WithWorkers(4)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
