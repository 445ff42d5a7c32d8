package perfsim

import (
	"testing"

	"emprof/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.OverflowPeriod = 0 },
		func(c *Config) { c.HandlerMissMean = -1 },
		func(c *Config) { c.ThrottleRate = 0 },
		func(c *Config) { c.ThrottleJitter = 1 },
		func(c *Config) { c.TimerRateHz = -1 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewSampler(DefaultConfig(), nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestPerfOvercountsWithVariance(t *testing.T) {
	s := MustNewSampler(DefaultConfig(), sim.NewRNG(1))
	// The paper's scenario: 1024 engineered misses over a few ms.
	study := s.Repeat(30, 1024, 8e-3)
	if study.Summary.Mean < 10*1024 {
		t.Fatalf("mean reported %v: perf must overcount by >10x", study.Summary.Mean)
	}
	if study.Summary.StdDev < 0.2*study.Summary.Mean {
		t.Fatalf("stddev %v vs mean %v: run-to-run variance too small",
			study.Summary.StdDev, study.Summary.Mean)
	}
	for _, r := range study.Runs {
		if r.Reported < r.TrueMisses {
			t.Fatal("reported count below true count")
		}
		if r.DurationS <= 8e-3 {
			t.Fatal("profiling must dilate execution")
		}
	}
}

func TestPerfFeedbackDominatesSmallApps(t *testing.T) {
	// Doubling the app's misses barely changes the reported count: the
	// handler feedback dominates (which is exactly why counting is so
	// unreliable at this scale).
	s := MustNewSampler(DefaultConfig(), sim.NewRNG(2))
	a := s.Repeat(30, 1024, 8e-3).Summary.Mean
	b := s.Repeat(30, 2048, 8e-3).Summary.Mean
	if b > 2.5*a {
		t.Fatalf("reported counts scale with app misses (%v -> %v): feedback model broken", a, b)
	}
}

func TestInstrumentedStreamInjectsHandlers(t *testing.T) {
	base := make([]sim.Inst, 10000)
	for i := range base {
		base[i] = sim.Inst{PC: uint64(0x1000 + i*4), Op: sim.OpIntALU, Dst: 24, Src1: sim.RegNone}
	}
	opts := DefaultInstrumentOptions()
	opts.EveryInsts = 1000
	opts.HandlerInsts = 100
	s := NewInstrumentedStream(sim.NewSliceStream(base), opts)
	var app, handler int
	var in sim.Inst
	for s.Next(&in) {
		if in.Region == RegionHandler {
			handler++
			if in.Op == sim.OpLoad || in.Op == sim.OpStore {
				if in.Addr < kernelBase {
					t.Fatalf("handler access outside kernel space: %#x", in.Addr)
				}
			}
		} else {
			app++
		}
	}
	if app != 10000 {
		t.Fatalf("app instructions %d, want 10000", app)
	}
	wantHandlers := 10 * 100
	if handler != wantHandlers {
		t.Fatalf("handler instructions %d, want %d", handler, wantHandlers)
	}
}

func TestInstrumentedStreamDefaults(t *testing.T) {
	s := NewInstrumentedStream(sim.NewSliceStream(nil), InstrumentOptions{})
	var in sim.Inst
	if s.Next(&in) {
		t.Fatal("empty inner stream must end immediately")
	}
}
