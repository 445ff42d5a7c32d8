package emprof

import (
	"context"
	"errors"
	"testing"
)

// sweepEqual compares the observable outcome of two sweep results.
func sweepEqual(a, b SweepResult) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Profile == nil) != (b.Profile == nil) {
		return false
	}
	if a.Profile != nil {
		if a.Profile.Misses != b.Profile.Misses ||
			a.Profile.StallCycles != b.Profile.StallCycles ||
			a.Profile.Quality != b.Profile.Quality {
			return false
		}
	}
	return a.TrueMisses == b.TrueMisses && a.TrueStallCycles == b.TrueStallCycles &&
		a.TrueCycles == b.TrueCycles
}

func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	grid := SweepGrid{
		Devices:   []string{"olimex", "samsung"},
		Workloads: []string{"micro:32:8"},
		Seeds:     []uint64{1, 2},
	}
	jobs := grid.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("grid expanded to %d jobs, want 4", len(jobs))
	}
	run := func(workers int) []SweepResult {
		res, err := RunSweep(context.Background(), jobs, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range want {
			if !sweepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d job %d diverged from serial run", workers, i)
			}
		}
	}
	for i, r := range want {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Index != i || r.Job != jobs[i] {
			t.Fatalf("job %d result mis-ordered: index %d", i, r.Index)
		}
		if r.Profile == nil || r.Profile.Misses == 0 || r.TrueMisses == 0 {
			t.Fatalf("job %d produced no misses: %+v", i, r)
		}
	}
}

func TestRunSweepIsolatesJobErrors(t *testing.T) {
	jobs := []SweepJob{
		{Device: "olimex", Workload: "micro:16:8", Seed: 1},
		{Device: "pixel", Workload: "micro:16:8", Seed: 1},  // unknown device
		{Device: "olimex", Workload: "quake3", Seed: 1},     // unknown workload
		{Device: "olimex", Workload: "micro:16:8", Seed: 2}, // healthy again
	}
	res, err := RunSweep(context.Background(), jobs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatalf("per-job failures must not abort the sweep: %v", err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatalf("bad jobs did not error: %v / %v", res[1].Err, res[2].Err)
	}
	if res[1].Profile != nil || res[2].Profile != nil {
		t.Fatal("failed jobs carry profiles")
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: every job must be skipped
	grid := SweepGrid{Workloads: []string{"micro:16:8"}}
	res, err := RunSweep(ctx, grid.Jobs(), SweepOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestRunSweepFaultRemixing(t *testing.T) {
	spec := FaultSpec{DropoutRate: 0.02, BurstRate: 0.005, NaNRate: 0.001, Seed: 1}
	grid := SweepGrid{
		Devices:   []string{"olimex"},
		Workloads: []string{"micro:32:8"},
		Seeds:     []uint64{1, 2},
		Faults:    spec,
	}
	res, err := RunSweep(context.Background(), grid.Jobs(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.FaultReport == nil || len(r.FaultReport.Events) == 0 {
			t.Fatalf("job %d has no fault report", i)
		}
	}
	// Different seeds must see different impairment patterns (remixed
	// seeds), deterministically: rerunning reproduces them exactly.
	if res[0].FaultReport.Events[0] == res[1].FaultReport.Events[0] {
		t.Fatal("fault patterns identical across seeds; remixing broken")
	}
	again, err := RunSweep(context.Background(), grid.Jobs(), SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].FaultReport.String() != again[i].FaultReport.String() {
			t.Fatalf("job %d fault report not reproducible", i)
		}
	}
}

func TestRunSweepValidatesConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.EnterThreshold = 2
	_, err := RunSweep(context.Background(), SweepGrid{}.Jobs(), SweepOptions{Config: &bad})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSweepGridDefaults(t *testing.T) {
	probed := SweepGrid{
		Devices:        []string{"olimex"},
		Workloads:      []string{"micro:32:8"},
		Seeds:          []uint64{3, 4},
		ProbeOffsetsMM: []float64{0, 2, 5},
		ScaleM:         0.5,
		NoiseFree:      true,
	}
	for _, c := range []struct {
		name        string
		grid        SweepGrid
		n           int
		first, last SweepJob
	}{
		// Empty dimensions take the defaults: every physical device, the
		// paper microbenchmark, seed 1, the device bandwidth, the
		// reference probe placement.
		{"defaults", SweepGrid{}, 3,
			SweepJob{Device: "alcatel", Workload: "micro:256:8", Seed: 1},
			SweepJob{Device: "olimex", Workload: "micro:256:8", Seed: 1}},
		{"workload-only", SweepGrid{Workloads: []string{"boot"}}, 3,
			SweepJob{Device: "alcatel", Workload: "boot", Seed: 1},
			SweepJob{Device: "olimex", Workload: "boot", Seed: 1}},
		// Probe offsets are the innermost dimension; scale and noise
		// settings reach every job.
		{"probed", probed, 2 * 3,
			SweepJob{Device: "olimex", Workload: "micro:32:8", Seed: 3, ScaleM: 0.5, NoiseFree: true},
			SweepJob{Device: "olimex", Workload: "micro:32:8", Seed: 4, ScaleM: 0.5, NoiseFree: true, Probe: ProbePosition{XMM: 5}}},
	} {
		jobs := c.grid.Jobs()
		if len(jobs) != c.n {
			t.Fatalf("%s: expanded to %d jobs, want %d", c.name, len(jobs), c.n)
		}
		if jobs[0] != c.first || jobs[len(jobs)-1] != c.last {
			t.Fatalf("%s: first/last job %+v / %+v, want %+v / %+v", c.name, jobs[0], jobs[len(jobs)-1], c.first, c.last)
		}
		seen := map[SweepJob]bool{}
		for i, j := range jobs {
			if seen[j] {
				t.Fatalf("%s: job %d duplicates %+v", c.name, i, j)
			}
			seen[j] = true
		}
	}
	if jobs := probed.Jobs(); jobs[1].Probe.XMM != 2 || jobs[3].Seed != 4 || jobs[3].Probe.XMM != 0 {
		t.Fatalf("probe offsets not innermost: %+v", jobs)
	}
}

func TestSweepGridExpansion(t *testing.T) {
	grid := SweepGrid{
		Devices:      []string{"olimex", "samsung"},
		Workloads:    []string{"micro:64:8", "spec:mcf", "boot"},
		Seeds:        []uint64{1, 2},
		BandwidthsHz: []float64{0, 80e6},
	}
	jobs := grid.Jobs()
	if len(jobs) != 2*3*2*2 {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), 2*3*2*2)
	}
	seen := map[SweepJob]bool{}
	for i, j := range jobs {
		if seen[j] {
			t.Fatalf("job %d duplicates %+v", i, j)
		}
		seen[j] = true
	}
	// Device-major order: devices, workloads, seeds, bandwidths.
	first := SweepJob{Device: "olimex", Workload: "micro:64:8", Seed: 1}
	last := SweepJob{Device: "samsung", Workload: "boot", Seed: 2, BandwidthHz: 80e6}
	if jobs[0] != first || jobs[len(jobs)-1] != last {
		t.Fatalf("first/last job %+v / %+v, want %+v / %+v", jobs[0], jobs[len(jobs)-1], first, last)
	}
	if jobs[1].BandwidthHz != 80e6 || jobs[2].Seed != 2 || jobs[4].Workload != "spec:mcf" || jobs[12].Device != "samsung" {
		t.Fatalf("expansion order changed: %+v", jobs)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	for _, spec := range []string{"micro", "micro:a:b", "spec", "spec:quake3", "file", "nope"} {
		if _, err := ParseWorkload(spec, 1, 1); err == nil {
			t.Errorf("ParseWorkload(%q) accepted", spec)
		}
	}
	if _, err := ParseWorkload("micro:16:8", 1, 1); err != nil {
		t.Errorf("micro spec rejected: %v", err)
	}
	if w, err := ParseWorkload("boot", 0.05, 7); err != nil || w == nil {
		t.Errorf("boot spec rejected: %v", err)
	}
}
