package cpu

import (
	"reflect"
	"testing"
	"testing/quick"

	"emprof/internal/mem"
	"emprof/internal/sim"
)

// collectSink records the per-cycle power stream by concatenating the
// blocks it is handed, so it observes the same series whatever block size
// the core flushes at.
type collectSink struct{ ps []float64 }

func (s *collectSink) PushBlock(ps []float64) { s.ps = append(s.ps, ps...) }

// runMode runs one random program on a fresh core and returns the result
// plus the full per-cycle power series.
func runMode(t *testing.T, seed uint64, width, window, batch int, exact bool, n int) (*Result, []float64) {
	t.Helper()
	ms, err := mem.NewSystem(testMemConfig(), sim.NewRNG(seed), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCPUConfig(width)
	cfg.FetchQueue = 32
	cfg.OoOWindow = window
	c, err := New(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	c.Exact = exact
	c.BatchCycles = batch
	sink := &collectSink{}
	c.AddSink(sink)
	res, err := c.Run(sim.NewSliceStream(randomProgram(seed, n)))
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.ps
}

func assertSameRun(t *testing.T, label string, res, ref *Result, pow, refPow []float64) {
	t.Helper()
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("%s: Result diverged from per-cycle reference:\n got %+v\nwant %+v", label, res, ref)
	}
	if len(pow) != len(refPow) {
		t.Fatalf("%s: power series length %d, reference %d", label, len(pow), len(refPow))
	}
	for i := range refPow {
		if pow[i] != refPow[i] {
			t.Fatalf("%s: power[%d] = %v, reference %v", label, i, pow[i], refPow[i])
		}
	}
	if uint64(len(pow)) != res.Cycles {
		t.Fatalf("%s: %d power values for %d cycles", label, len(pow), res.Cycles)
	}
}

// TestSkipAheadMatchesExact pins the tentpole invariant on a fixed grid:
// the event-driven skip-ahead path must be bit-identical to the per-cycle
// reference — same Result (stalls, misses, spans, counters) and the same
// per-cycle power series — for in-order and out-of-order cores and for
// every batch size.
func TestSkipAheadMatchesExact(t *testing.T) {
	for _, width := range []int{1, 2} {
		for _, window := range []int{0, 8} {
			for _, seed := range []uint64{1, 42, 1 << 40} {
				refRes, refPow := runMode(t, seed, width, window, 1, true, 3000)
				for _, batch := range []int{0, 1, 7, 4096} {
					res, pow := runMode(t, seed, width, window, batch, false, 3000)
					assertSameRun(t, "skip-ahead", res, refRes, pow, refPow)
				}
			}
		}
	}
}

// TestSkipAheadMatchesExactProperty widens the grid with randomized core
// shapes and batch sizes (testing/quick picks them), mirroring
// TestRunInvariants' generator so miss-heavy and branch-heavy programs
// both appear.
func TestSkipAheadMatchesExactProperty(t *testing.T) {
	f := func(seed uint64, widthRaw, windowRaw uint8, batchRaw uint16) bool {
		width := int(widthRaw%4) + 1
		window := int(windowRaw % 24)
		batch := int(batchRaw % 600)
		refRes, refPow := runMode(t, seed, width, window, 1, true, 2000)
		res, pow := runMode(t, seed, width, window, batch, false, 2000)
		if !reflect.DeepEqual(res, refRes) || len(pow) != len(refPow) {
			t.Logf("seed=%d width=%d window=%d batch=%d diverged", seed, width, window, batch)
			return false
		}
		for i := range refPow {
			if pow[i] != refPow[i] {
				t.Logf("seed=%d width=%d window=%d batch=%d power[%d] %v != %v",
					seed, width, window, batch, i, pow[i], refPow[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSteadyStateAllocs pins the satellite fix for the per-stall
// allocations: a run over a miss-heavy program (hundreds of stalls,
// thousands of batch flushes) must allocate a small constant amount —
// the run state, the result slices and the stream — never per stall or
// per flush. The pre-fix loop allocated a map per stall and a fresh batch
// per flush, putting this in the tens of thousands.
func TestRunSteadyStateAllocs(t *testing.T) {
	ms, err := mem.NewSystem(testMemConfig(), sim.NewRNG(9), false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(testCPUConfig(2), ms)
	if err != nil {
		t.Fatal(err)
	}
	c.BatchCycles = 64
	prog := randomProgram(9, 20000)
	// Warm-up run so result-slice growth reaches steady state capacity
	// inside Core's reusable scratch.
	if _, err := c.Run(sim.NewSliceStream(prog)); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := c.Run(sim.NewSliceStream(prog)); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: run state + stream + result slices (misses/stalls/spans
	// regrow per run) with generous slack; a per-stall or per-flush
	// allocation would add hundreds.
	if avg > 60 {
		t.Fatalf("steady-state Run allocates %.0f times, want <= 60", avg)
	}
}

// TestFlushNonDivisibleCycleCount pins the satellite flush fix: when the
// run length is not a multiple of BatchCycles, the tail batch must still
// reach the sinks — every simulated cycle produces exactly one power
// value.
func TestFlushNonDivisibleCycleCount(t *testing.T) {
	for _, batch := range []int{64, 1000, 1 << 20} {
		ms, err := mem.NewSystem(testMemConfig(), sim.NewRNG(3), false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(testCPUConfig(1), ms)
		if err != nil {
			t.Fatal(err)
		}
		c.BatchCycles = batch
		sink := &collectSink{}
		c.AddSink(sink)
		res, err := c.Run(sim.NewSliceStream(randomProgram(3, 777)))
		if err != nil {
			t.Fatal(err)
		}
		if batch <= int(res.Cycles) && res.Cycles%uint64(batch) == 0 {
			t.Fatalf("batch %d: run length %d accidentally divisible; pick another program", batch, res.Cycles)
		}
		if uint64(len(sink.ps)) != res.Cycles {
			t.Fatalf("batch %d: sink saw %d cycles, run had %d (tail batch dropped?)",
				batch, len(sink.ps), res.Cycles)
		}
	}
}

// TestFlushOnMaxCyclesAbort pins the flush-on-every-exit-path fix for the
// error return: a MaxCycles abort must still deliver the partial batch,
// so the sink sees exactly MaxCycles values.
func TestFlushOnMaxCyclesAbort(t *testing.T) {
	for _, exact := range []bool{false, true} {
		ms, err := mem.NewSystem(testMemConfig(), sim.NewRNG(5), false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(testCPUConfig(1), ms)
		if err != nil {
			t.Fatal(err)
		}
		c.Exact = exact
		c.BatchCycles = 4096
		c.MaxCycles = 1001 // deliberately not a batch multiple
		sink := &collectSink{}
		c.AddSink(sink)
		if _, err := c.Run(sim.NewSliceStream(randomProgram(5, 100000))); err == nil {
			t.Fatal("MaxCycles exceeded but no error")
		}
		if uint64(len(sink.ps)) != c.MaxCycles {
			t.Fatalf("exact=%v: sink saw %d cycles before abort, want %d",
				exact, len(sink.ps), c.MaxCycles)
		}
	}
}
