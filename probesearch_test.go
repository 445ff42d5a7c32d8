package emprof

import (
	"context"
	"math"
	"sort"
	"testing"
)

// searchScoreAt evaluates the probe-search objective at one placement by
// running the same pilot pipeline the search runs.
func searchScoreAt(t *testing.T, wl string, p ProbePosition) float64 {
	t.Helper()
	dev, err := DeviceByName("olimex")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload(wl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(dev, w, CaptureOptions{Seed: 1, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := runAnalyzer(run.Capture, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return PlacementScore(run.Capture, prof)
}

// TestSearchProbePlacementRecoversTopDecile is the ISSUE acceptance
// criterion: started a few millimetres off the sweet spot, the compass
// search must land in the top confidence decile of a reference placement
// grid.
func TestSearchProbePlacementRecoversTopDecile(t *testing.T) {
	const wl = "micro:64:4"

	// Reference 5x5 grid over the placement plane.
	var scores []float64
	for _, x := range []float64{-4, -2, 0, 2, 4} {
		for _, y := range []float64{-4, -2, 0, 2, 4} {
			scores = append(scores, searchScoreAt(t, wl, ProbePosition{XMM: x, YMM: y}))
		}
	}
	sort.Float64s(scores)
	decile := scores[(len(scores)*9)/10]

	res, err := SearchProbePlacement(context.Background(), ProbeSearchOptions{
		Device:   "olimex",
		Workload: wl,
		Start:    ProbePosition{XMM: 3, YMM: -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < decile {
		t.Errorf("search score %.4f below grid top decile %.4f (best %+v)",
			res.Score, decile, res.Best)
	}
	if got := res.Best.OffsetMM(); got > 1.5 {
		t.Errorf("search settled %.2f mm from the sweet spot, want <= 1.5", got)
	}
	if len(res.Evals) == 0 || len(res.Evals) > 40 {
		t.Errorf("evals = %d, want within (0, 40]", len(res.Evals))
	}
	// The search is deterministic: the best score must match a direct
	// evaluation at the reported placement.
	if direct := searchScoreAt(t, wl, res.Best); math.Abs(direct-res.Score) > 1e-12 {
		t.Errorf("reported score %.6f != direct evaluation %.6f", res.Score, direct)
	}
}

// TestSearchProbePlacementValidation covers option errors.
func TestSearchProbePlacementValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SearchProbePlacement(ctx, ProbeSearchOptions{}); err == nil {
		t.Error("empty device: want error")
	}
	if _, err := SearchProbePlacement(ctx, ProbeSearchOptions{Device: "nope"}); err == nil {
		t.Error("unknown device: want error")
	}
	if _, err := SearchProbePlacement(ctx, ProbeSearchOptions{
		Device: "olimex", Start: ProbePosition{XMM: math.NaN()},
	}); err == nil {
		t.Error("invalid start: want error")
	}
	bad := DefaultConfig()
	bad.EnterThreshold = -1
	if _, err := SearchProbePlacement(ctx, ProbeSearchOptions{
		Device: "olimex", Config: &bad,
	}); err == nil {
		t.Error("invalid config: want error")
	}
}

// TestPlacementScoreFarOff pins the properties that make PlacementScore
// usable as a search objective: it falls with displacement, and an empty
// profile scores zero rather than inheriting MeanConfidence's vacuous 1.
func TestPlacementScoreFarOff(t *testing.T) {
	dev, err := DeviceByName("olimex")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload("micro:16:4", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(dev, w, CaptureOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 40 mm out the coupling gain is ~1e-4: the capture is essentially
	// noise and the profiler should find nothing worth scoring.
	far, err := Simulate(dev, w, CaptureOptions{Seed: 1, Probe: ProbePosition{XMM: 40}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runAnalyzer(run.Capture, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lost, err := runAnalyzer(far.Capture, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refScore := PlacementScore(run.Capture, ref)
	lostScore := PlacementScore(far.Capture, lost)
	if refScore <= 0 {
		t.Errorf("reference placement score = %g, want > 0", refScore)
	}
	if lostScore >= refScore/10 {
		t.Errorf("score at 40 mm (%g) not well below reference (%g)",
			lostScore, refScore)
	}
	if PlacementScore(far.Capture, &Profile{}) != 0 {
		t.Error("empty profile must score 0")
	}
}
