package emprof

import (
	"context"
	"fmt"
	"math"
)

// This file implements automated probe placement in the spirit of
// SCNIFFER (PAPERS.md): instead of a human sliding the probe until the
// profile looks right, a deterministic compass (pattern) search walks the
// placement plane, profiling a short pilot workload at each candidate and
// climbing toward the placement that profiles best. The objective mirrors
// SCNIFFER's: received signal strength — which falls off smoothly with
// displacement and so supplies the gradient the climb follows — scaled by
// how trustworthy the resulting profile is (mean stall confidence and
// usable-signal fraction), so a placement that is loud but profiles badly
// cannot win, and a dead placement (no stalls at all) scores zero.

// ProbeSearchOptions configures SearchProbePlacement. Device, Workload
// and Seed describe the pilot acquisition repeated at every candidate
// placement (same seed every time, so two placements differ only in
// probe position).
type ProbeSearchOptions struct {
	// Device is a paper device name (see DeviceByName).
	Device string
	// Workload uses the emsim specification syntax (see ParseWorkload);
	// empty means the paper microbenchmark "micro:128:8". Keep it short —
	// it is simulated once per candidate placement.
	Workload string
	// ScaleM is the spec/boot instruction budget in millions (0 = 1).
	ScaleM float64
	// Seed drives every pilot capture (default 1).
	Seed uint64
	// BandwidthHz overrides the device's default measurement bandwidth.
	BandwidthHz float64
	// Start is the initial placement (the search recovers from starts
	// several millimetres off the sweet spot).
	Start ProbePosition
	// StepMM is the initial compass step (default 2 mm) and MinStepMM the
	// step at which the search stops refining (default 0.25 mm).
	StepMM    float64
	MinStepMM float64
	// MaxEvals bounds the number of pilot captures (default 40).
	MaxEvals int
	// Config overrides the profiler configuration (nil = DefaultConfig).
	Config *Config
}

// ProbeSearchEval is one evaluated placement.
type ProbeSearchEval struct {
	Position ProbePosition
	Score    float64
}

// ProbeSearchResult is the outcome of a placement search.
type ProbeSearchResult struct {
	// Best is the highest-scoring placement found and Score its
	// objective value.
	Best  ProbePosition
	Score float64
	// Evals lists every evaluated placement in evaluation order (the
	// search path, for display and regression tests).
	Evals []ProbeSearchEval
}

// PlacementScore is the placement objective: the capture's mean received
// magnitude — the signal-strength term SCNIFFER climbs on, strictly
// monotone in the coupling gain — scaled by the profile's mean stall
// confidence and usable-signal fraction. Profile-only statistics cannot
// serve here: off the sweet spot the blurred envelope fragments into many
// moderate-confidence spurious dips, so summed confidence rises with
// displacement and mean confidence flattens; amplitude restores the
// gradient while the confidence and usability terms veto placements that
// are loud but profile badly. An empty profile scores zero (not
// MeanConfidence's vacuous 1), so a dead placement can never look optimal.
func PlacementScore(c *Capture, p *Profile) float64 {
	if len(c.Samples) == 0 || len(p.Stalls) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range c.Samples {
		mean += v
	}
	mean /= float64(len(c.Samples))
	return mean * p.MeanConfidence() * p.Quality.UsableFraction()
}

// SearchProbePlacement hill-climbs probe placement to maximise profile
// confidence: a compass search that tries the four axis neighbours of the
// current placement at the current step, moves to the best improvement,
// and halves the step when no neighbour improves. It is deterministic for
// fixed options. The orientation of Start is kept throughout — the search
// walks the lateral plane only.
func SearchProbePlacement(ctx context.Context, opts ProbeSearchOptions) (*ProbeSearchResult, error) {
	if opts.Device == "" {
		return nil, fmt.Errorf("emprof: probe search needs a device")
	}
	dev, err := DeviceByName(opts.Device)
	if err != nil {
		return nil, err
	}
	wlSpec := opts.Workload
	if wlSpec == "" {
		wlSpec = "micro:128:8"
	}
	scale := opts.ScaleM
	if scale <= 0 {
		scale = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	step := opts.StepMM
	if step <= 0 {
		step = 2
	}
	minStep := opts.MinStepMM
	if minStep <= 0 {
		minStep = 0.25
	}
	maxEvals := opts.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 40
	}
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	an, err := NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	if err := opts.Start.Validate(); err != nil {
		return nil, err
	}

	res := &ProbeSearchResult{}
	// cache keyed on the (finite-precision) lateral coordinates so the
	// compass never pays for revisiting a placement.
	cache := map[[2]int64]float64{}
	evaluate := func(p ProbePosition) (float64, error) {
		key := [2]int64{int64(math.Round(p.XMM * 1e6)), int64(math.Round(p.YMM * 1e6))}
		if s, ok := cache[key]; ok {
			return s, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		wl, err := ParseWorkload(wlSpec, scale, seed)
		if err != nil {
			return 0, err
		}
		run, err := Simulate(dev, wl, CaptureOptions{
			Seed:        seed,
			BandwidthHz: opts.BandwidthHz,
			Probe:       p,
		})
		if err != nil {
			return 0, err
		}
		prof, err := an.Run(ctx, run.Capture)
		if err != nil {
			return 0, err
		}
		s := PlacementScore(run.Capture, prof)
		cache[key] = s
		res.Evals = append(res.Evals, ProbeSearchEval{Position: p, Score: s})
		return s, nil
	}

	cur := opts.Start
	best, err := evaluate(cur)
	if err != nil {
		return nil, err
	}
	for step >= minStep && len(res.Evals) < maxEvals {
		improved := false
		bestN, bestNScore := cur, best
		for _, d := range [][2]float64{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
			if len(res.Evals) >= maxEvals {
				break
			}
			cand := cur
			cand.XMM += d[0]
			cand.YMM += d[1]
			if cand.Validate() != nil {
				continue
			}
			s, err := evaluate(cand)
			if err != nil {
				return nil, err
			}
			if s > bestNScore {
				bestN, bestNScore = cand, s
				improved = true
			}
		}
		if improved {
			cur, best = bestN, bestNScore
		} else {
			step /= 2
		}
	}
	res.Best, res.Score = cur, best
	return res, nil
}
