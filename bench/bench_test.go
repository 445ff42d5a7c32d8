package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// smokeParams sizes a run so every workload finishes in well under a
// second: a couple of tiny captures or jobs and a short measured phase.
func smokeParams(t *testing.T) params {
	return params{seed: 1, seconds: 0.2, setups: 1, small: true, tmpRoot: t.TempDir()}
}

// TestWorkloadsSmoke runs every workload untraced and traced at smoke
// size and checks that each run prints exactly the metrics BENCHMARK.json
// declares, with their units, that no operation failed, and that no self
// time is negative.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			declared, mode := spec.EndToEnd, "untraced"
			if traced {
				declared, mode = spec.PerLayer, "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				p := smokeParams(t)
				p.traced = traced
				rep, err := runWorkload(w, p)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Ops == 0 || rep.OpsFailed != 0 {
					t.Fatalf("ops %d, failed %d: %v", rep.Ops, rep.OpsFailed, rep.Failures)
				}
				if len(rep.Metrics) != len(declared) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("%s: %v, an end-to-end metric must be positive", m.Name, got.Value)
					case traced && isSelfTime(m.Name) && got.Value < 0:
						t.Errorf("%s: negative self time %v", m.Name, got.Value)
					}
				}
				checkResultLine(t, rep)
			})
		}
	}
}

// isSelfTime reports whether a per-layer metric is a layer's own time.
// The ledger residual, the tracing overhead, the detect stage (batch minus
// normalize) and the core's own time (Core.Run's self time minus the
// instruction generation timed alone) are differences of separate
// timings that may read negative within noise, or under the race
// detector, which slows the two sides unevenly.
func isSelfTime(name string) bool {
	switch name {
	case "ledger.unattributed_ns_per_unit", "trace.overhead_pct", "core.detect_ns_per_sample", "cpu.self_ns_per_cycle":
		return false
	}
	return strings.Contains(name, "_ns") || strings.Contains(name, "_us")
}

// checkResultLine checks the last printed line has exactly the keys a
// caller parses.
func checkResultLine(t *testing.T, rep *report) {
	t.Helper()
	var buf bytes.Buffer
	if err := printReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
}

// TestChecksFire corrupts one reference per workload — a stall changed in
// a reference profile, or one window dropped before MergeWindows — and
// requires the run to count failed operations.
func TestChecksFire(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			p := smokeParams(t)
			p.corrupt = true
			rep, err := runWorkload(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OpsFailed == 0 {
				t.Fatalf("a corrupted reference went unnoticed over %d operations", rep.Ops)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "no change"},
		{"slower", steady, scale(steady, 1.2), "regression"},
		{"faster", steady, scale(steady, 0.8), "gain"},
		{"noisy", []float64{5, 15, 8, 12, 10, 20, 6, 14, 9, 11}, steady, "unresolved"},
	} {
		if got := compareMetric(tc.a, tc.b, lower).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestAbsorbRoundScales checks that a round's latencies and rate are
// brought to the reference speed while the raw figures are kept.
func TestAbsorbRoundScales(t *testing.T) {
	r := newPhase()
	r.wall, r.units = 2*time.Second, 1e6
	r.record("op", 10*time.Millisecond)
	pr := newPhase()
	pr.absorbRound(r, 0.5)
	if got := pr.lat["op"][0]; got != 5*time.Millisecond {
		t.Errorf("scaled latency %v, want 5ms", got)
	}
	if got := pr.rawLat["op"][0]; got != 10*time.Millisecond {
		t.Errorf("raw latency %v, want 10ms", got)
	}
	if pr.rates[0] != 1e6 || pr.rawRates[0] != 5e5 {
		t.Errorf("rates %v raw %v, want [1e6] and [5e5]", pr.rates, pr.rawRates)
	}
}

// TestKernelAllocatesNothing pins the calibration kernel's independence
// from the garbage collector.
func TestKernelAllocatesNothing(t *testing.T) {
	s := newCalBuf()
	if n := testing.AllocsPerRun(1, s.kernel); n != 0 {
		t.Fatalf("kernel allocates %v times per run", n)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
