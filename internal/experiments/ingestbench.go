package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"emprof"
	"emprof/internal/fleet"
	"emprof/internal/service"
)

// The fleet ingest benchmark drives concurrent capture streams through
// a router + shards fleet — the emprofd scale-out deployment — and
// records ingest/snapshot latency percentiles and per-shard throughput.
// It doubles as the hand-off correctness harness: with Rebalance set it
// forces one membership change mid-run and then requires every session
// to finalize bit-identical to the batch analysis of its capture, with
// the fleet-wide ingest counter exactly sessions × samples (no sample
// lost, none double-ingested).

// IngestBenchOptions sizes the load harness. Zero fields pick the
// defaults noted per field.
type IngestBenchOptions struct {
	// Shards is the in-process fleet size (default 2). Ignored when
	// RouterURL points at an external fleet.
	Shards int
	// Sessions is the number of concurrent capture streams (default 16).
	Sessions int
	// SamplesPerSession sizes each stream (default 240000); ignored when
	// Capture is set.
	SamplesPerSession int
	// ChunkSamples is the per-push block size (default 24000).
	ChunkSamples int
	// Rebalance forces one shard addition mid-run (in-process fleets
	// only; default off — set it explicitly).
	Rebalance bool
	// RouterURL targets an external router instead of booting an
	// in-process fleet. The registry-counter cross-check is skipped (the
	// bench cannot reach external registries); bit-identity still holds.
	RouterURL string
	// Capture, when set, is streamed by every session instead of the
	// synthetic busy/stall series (emsim -fleet streams a simulated
	// device capture).
	Capture *emprof.Capture
	// Seed varies the synthetic series (default 1).
	Seed uint64
	// WindowS, when positive, enables continuous profiling on the
	// in-process shards — rolling windows of this width in stream
	// seconds — measuring the windowing + store cost under the same
	// load, and additionally requires every session's merged window
	// sequence (fetched through the router fan-in after finalize) to be
	// bit-identical to the batch profile. Ignored with RouterURL (the
	// external fleet's windowing is its own configuration).
	WindowS float64
	// MetricsTo, when set, receives the router's aggregated fleet
	// metrics (PrintFleetMetrics) after the run, while the in-process
	// fleet is still alive.
	MetricsTo io.Writer
}

func (o IngestBenchOptions) withDefaults() IngestBenchOptions {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Sessions <= 0 {
		o.Sessions = 16
	}
	if o.SamplesPerSession <= 0 {
		o.SamplesPerSession = 240000
	}
	if o.ChunkSamples <= 0 {
		o.ChunkSamples = 24000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// LatencyStats summarizes one request population in milliseconds. A
// tail quantile is reported only when the sample count supports it —
// p99 needs at least 100 observations and p999 at least 1000; below
// that the estimator collapses onto the max and gating it just compares
// noise. Unsupported quantiles are zero (and omitted from the JSON);
// the max is always recorded explicitly instead.
type LatencyStats struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`
	MaxMs  float64 `json:"max_ms"`
}

// IngestBenchReport is the committed BENCH_ingest.json shape.
type IngestBenchReport struct {
	Note                  string  `json:"note"`
	Shards                int     `json:"shards"`
	Sessions              int     `json:"sessions"`
	SamplesPerSession     int     `json:"samples_per_session"`
	Rebalanced            bool    `json:"rebalanced"`
	WindowS               float64 `json:"window_s,omitempty"`
	SamplesPerSecPerShard float64 `json:"samples_per_sec_per_shard"`
	// SamplesPerSecPerCore normalizes total throughput by the host's
	// logical CPU count, making runs comparable across machine sizes
	// (the per-shard number rewards wide hosts).
	SamplesPerSecPerCore float64 `json:"samples_per_sec_per_core,omitempty"`
	// AllocsPerSample is the whole-harness heap-allocation count per
	// ingested sample — client, router, shards, and harness goroutines
	// all run in this process, so it bounds the full ingest spine. The
	// analyzer's steady-state 0 allocs/sample is pinned separately by
	// the service AllocsPerRun test.
	AllocsPerSample float64      `json:"allocs_per_sample,omitempty"`
	Ingest          LatencyStats `json:"ingest"`
	Snapshot        LatencyStats `json:"snapshot"`
}

// RunIngestBench executes the fleet load harness and returns the
// report. Any lost session, diverged profile, or ingest-counter
// mismatch is an error, not a statistic.
func RunIngestBench(opts IngestBenchOptions, w io.Writer) (*IngestBenchReport, error) {
	opts = opts.withDefaults()
	capture := opts.Capture
	if capture == nil {
		capture = &emprof.Capture{
			Samples:    synthSeries(opts.SamplesPerSession, opts.Seed),
			SampleRate: 40e6,
			ClockHz:    1e9,
		}
	}
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig())
	if err != nil {
		return nil, err
	}
	want, err := an.Run(context.Background(), capture)
	if err != nil {
		return nil, err
	}

	routerURL := opts.RouterURL
	var lf *fleet.LocalFleet
	if routerURL == "" {
		lf, err = fleet.StartLocal(opts.Shards,
			service.Config{MaxSessions: opts.Sessions + 16, WindowS: opts.WindowS},
			fleet.Config{Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		defer lf.Close()
		routerURL = lf.RouterURL
	}

	type timings struct {
		ingest, snapshot []time.Duration
		id               string
		err              error
	}
	ctx := context.Background()
	results := make([]timings, opts.Sessions)
	var wg sync.WaitGroup
	var rebalanceOnce sync.Once
	var rebalanceErr error
	rebalanced := false
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < opts.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm := &results[i]
			client := emprof.NewClient(routerURL)
			// Hand-off pauses are part of what the harness measures: the
			// pinned window answers 503 until the move lands, so give the
			// streams a retry budget (~5s expected) that rides it out
			// rather than aborting the run.
			client.RetryBaseDelay = 10 * time.Millisecond
			client.MaxRetries = 10
			id, err := client.CreateSession(ctx, emprof.SessionSpec{
				SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Device: "bench",
			})
			if err != nil {
				tm.err = err
				return
			}
			n := len(capture.Samples)
			for off, pushes := 0, 0; off < n; off += opts.ChunkSamples {
				end := off + opts.ChunkSamples
				if end > n {
					end = n
				}
				t0 := time.Now()
				if _, err := client.PushSamplesAt(ctx, id, int64(off), capture.Samples[off:end]); err != nil {
					tm.err = fmt.Errorf("push at %d: %w", off, err)
					return
				}
				tm.ingest = append(tm.ingest, time.Since(t0))
				pushes++
				if pushes%4 == 0 {
					t0 = time.Now()
					if _, err := client.Profile(ctx, id); err != nil {
						tm.err = fmt.Errorf("snapshot: %w", err)
						return
					}
					tm.snapshot = append(tm.snapshot, time.Since(t0))
				}
				// Halfway through the first session's stream, grow the
				// fleet by one shard: every later push rides through (or
				// around) a live hand-off.
				if opts.Rebalance && lf != nil && off >= n/2 {
					rebalanceOnce.Do(func() {
						if _, err := lf.AddShard(); err != nil {
							rebalanceErr = err
						}
						rebalanced = true
					})
				}
			}
			got, err := client.Finalize(ctx, id)
			if err != nil {
				tm.err = fmt.Errorf("finalize: %w", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				tm.err = fmt.Errorf("profile diverged from batch analysis (samples lost or double-ingested)")
				return
			}
			tm.id = id
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if rebalanceErr != nil {
		return nil, fmt.Errorf("forced rebalance: %w", rebalanceErr)
	}
	if opts.WindowS > 0 && lf != nil {
		// Continuous-profiling correctness under the same load, checked
		// after the clock stops: the windowing work itself happened during
		// the timed ingest (the shards seal and store windows inline), but
		// re-fetching every session's full window timeline through the
		// router fan-in is a test assertion, not ingest, so it must not
		// count against throughput. The fan-in reassembles whatever the
		// rebalance scattered, and the merged sequence must equal the
		// batch profile bit for bit.
		var vg sync.WaitGroup
		for i := range results {
			if results[i].err != nil || results[i].id == "" {
				continue
			}
			vg.Add(1)
			go func(i int) {
				defer vg.Done()
				tm := &results[i]
				client := emprof.NewClient(routerURL)
				resp, err := client.Profiles(ctx, tm.id, emprof.ProfilesRequest{})
				if err != nil {
					tm.err = fmt.Errorf("profiles: %w", err)
					return
				}
				merged, err := emprof.MergeWindows(resp.Windows, capture.SampleRate, capture.ClockHz)
				if err != nil {
					tm.err = fmt.Errorf("merging %d windows: %w", len(resp.Windows), err)
					return
				}
				if !reflect.DeepEqual(merged, want) {
					tm.err = fmt.Errorf("merged window sequence diverged from batch analysis")
				}
			}(i)
		}
		vg.Wait()
	}
	var ingest, snapshot []time.Duration
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("session %d: %w", i, results[i].err)
		}
		ingest = append(ingest, results[i].ingest...)
		snapshot = append(snapshot, results[i].snapshot...)
	}

	totalSamples := int64(opts.Sessions) * int64(len(capture.Samples))
	if lf != nil {
		// The decisive no-double-ingest check: hand-off must not replay a
		// single sample into any shard's counters.
		var counted int64
		for _, s := range lf.Shards() {
			counted += s.Registry().Metrics().SamplesIngested.Load()
		}
		if counted != totalSamples {
			return nil, fmt.Errorf("fleet ingested %d samples, want exactly %d (double ingest or loss)", counted, totalSamples)
		}
		for i, s := range lf.Shards() {
			if n := s.Registry().ActiveSessions(); n != 0 {
				return nil, fmt.Errorf("shard %d still holds %d sessions (lost sessions)", i, n)
			}
		}
	}

	if opts.MetricsTo != nil {
		if err := PrintFleetMetrics(routerURL, opts.MetricsTo); err != nil {
			return nil, fmt.Errorf("fetching fleet metrics: %w", err)
		}
	}

	rep := &IngestBenchReport{
		Note: "emprofd fleet ingest benchmark; latencies are per-request wall time through the router, " +
			"throughput is total samples over wall clock per starting shard",
		Shards:                opts.Shards,
		Sessions:              opts.Sessions,
		SamplesPerSession:     len(capture.Samples),
		Rebalanced:            rebalanced,
		WindowS:               opts.WindowS,
		SamplesPerSecPerShard: float64(totalSamples) / elapsed.Seconds() / float64(opts.Shards),
		SamplesPerSecPerCore:  float64(totalSamples) / elapsed.Seconds() / float64(runtime.NumCPU()),
		AllocsPerSample:       float64(m1.Mallocs-m0.Mallocs) / float64(totalSamples),
		Ingest:                summarize(ingest),
		Snapshot:              summarize(snapshot),
	}
	windowed := ""
	if opts.WindowS > 0 {
		windowed = fmt.Sprintf(", windows %gs", opts.WindowS)
	}
	fmt.Fprintf(w, "fleet ingest: %d sessions x %d samples on %d shards (rebalanced=%v%s) in %v\n",
		rep.Sessions, rep.SamplesPerSession, rep.Shards, rep.Rebalanced, windowed, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput  %.2f Msamples/s/shard  (%.2f Msamples/s/core, %.3f allocs/sample)\n",
		rep.SamplesPerSecPerShard/1e6, rep.SamplesPerSecPerCore/1e6, rep.AllocsPerSample)
	fmt.Fprintf(w, "  ingest      %s  (%d pushes)\n", rep.Ingest.line(), rep.Ingest.Count)
	fmt.Fprintf(w, "  snapshot    %s  (%d snapshots)\n", rep.Snapshot.line(), rep.Snapshot.Count)
	return rep, nil
}

// line renders the stats row, skipping quantiles the count cannot
// support.
func (s LatencyStats) line() string {
	out := fmt.Sprintf("p50 %.2fms", s.P50Ms)
	if s.P99Ms > 0 {
		out += fmt.Sprintf("  p99 %.2fms", s.P99Ms)
	}
	if s.P999Ms > 0 {
		out += fmt.Sprintf("  p999 %.2fms", s.P999Ms)
	}
	return out + fmt.Sprintf("  max %.2fms", s.MaxMs)
}

// summarize sorts one latency population and reads its percentiles.
func summarize(ds []time.Duration) LatencyStats {
	if len(ds) == 0 {
		return LatencyStats{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	pct := func(q float64) float64 {
		i := int(q * float64(len(ds)))
		if i >= len(ds) {
			i = len(ds) - 1
		}
		return ms(ds[i])
	}
	st := LatencyStats{
		Count: len(ds),
		P50Ms: pct(0.50),
		MaxMs: ms(ds[len(ds)-1]),
	}
	// A quantile needs enough observations to be distinguishable from
	// the max; below these counts it is pure tail noise and is omitted.
	if len(ds) >= 100 {
		st.P99Ms = pct(0.99)
	}
	if len(ds) >= 1000 {
		st.P999Ms = pct(0.999)
	}
	return st
}

// WriteIngestBench writes the report as committed-baseline JSON.
func WriteIngestBench(rep *IngestBenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadIngestBench reads a baseline written by WriteIngestBench.
func LoadIngestBench(path string) (*IngestBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep IngestBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("ingest baseline %s: %w", path, err)
	}
	return &rep, nil
}

// CompareIngestBench gates a run against the committed baseline using
// the same ratio discipline as the synthesis gate: a latency metric
// regresses when it exceeds baseline·MaxRatio plus the absolute
// LatencyFloorMs (sub-millisecond baselines flip large ratios from
// scheduler jitter alone), and throughput regresses when it drops below
// baseline/MaxRatio. Tail percentiles get proportionally more headroom
// (1.5× the ratio at p99, 2× at p999): with a few hundred requests per
// run those estimators carry large sampling variance, and the gate is
// here to catch order-of-magnitude regressions — retry storms, lost
// concurrency — not tail jitter.
func CompareIngestBench(cur, base *IngestBenchReport, opts GateOptions, w io.Writer) error {
	opts = opts.withDefaults()
	if cur.Sessions != base.Sessions || cur.SamplesPerSession != base.SamplesPerSession || cur.Shards != base.Shards {
		fmt.Fprintf(w, "note: run shape (%dx%d on %d shards) differs from baseline (%dx%d on %d) — comparing anyway\n",
			cur.Sessions, cur.SamplesPerSession, cur.Shards, base.Sessions, base.SamplesPerSession, base.Shards)
	}
	var regressions []string
	check := func(name string, got, want, tailFactor float64) {
		if got == 0 || want == 0 {
			// The quantile is unsupported by the sample count on one side
			// (old baselines recorded them regardless); comparing it would
			// gate on noise. The max is recorded but never gated for the
			// same reason.
			fmt.Fprintf(w, "%-16s skipped (unsupported by sample count)\n", name)
			return
		}
		ratio := opts.MaxRatio * tailFactor
		status := "ok"
		if got > want*ratio+opts.LatencyFloorMs {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %.2fms vs baseline %.2fms (> %.2fx + %.1fms)",
				name, got, want, ratio, opts.LatencyFloorMs))
		}
		fmt.Fprintf(w, "%-16s %8.2fms  baseline %8.2fms  %s\n", name, got, want, status)
	}
	check("ingest p50", cur.Ingest.P50Ms, base.Ingest.P50Ms, 1)
	check("ingest p99", cur.Ingest.P99Ms, base.Ingest.P99Ms, 1.5)
	check("ingest p999", cur.Ingest.P999Ms, base.Ingest.P999Ms, 2)
	check("snapshot p50", cur.Snapshot.P50Ms, base.Snapshot.P50Ms, 1)
	check("snapshot p99", cur.Snapshot.P99Ms, base.Snapshot.P99Ms, 1.5)
	check("snapshot p999", cur.Snapshot.P999Ms, base.Snapshot.P999Ms, 2)
	tpStatus := "ok"
	if base.SamplesPerSecPerShard > 0 && cur.SamplesPerSecPerShard < base.SamplesPerSecPerShard/opts.MaxRatio {
		tpStatus = "REGRESSION"
		regressions = append(regressions, fmt.Sprintf("throughput: %.2f Msamples/s/shard vs baseline %.2f (< 1/%.2fx)",
			cur.SamplesPerSecPerShard/1e6, base.SamplesPerSecPerShard/1e6, opts.MaxRatio))
	}
	fmt.Fprintf(w, "%-16s %7.2fMs/s  baseline %6.2fMs/s  %s\n",
		"throughput/shard", cur.SamplesPerSecPerShard/1e6, base.SamplesPerSecPerShard/1e6, tpStatus)
	if base.AllocsPerSample > 0 {
		// Allocation regressions show up long before they move wall-clock
		// throughput on a fast machine; gate them directly. The small
		// absolute floor absorbs run-to-run GC bookkeeping jitter.
		allocStatus := "ok"
		if cur.AllocsPerSample > base.AllocsPerSample*opts.MaxRatio+0.05 {
			allocStatus = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("allocs/sample: %.3f vs baseline %.3f (> %.2fx + 0.05)",
				cur.AllocsPerSample, base.AllocsPerSample, opts.MaxRatio))
		}
		fmt.Fprintf(w, "%-16s %11.3f  baseline %11.3f  %s\n",
			"allocs/sample", cur.AllocsPerSample, base.AllocsPerSample, allocStatus)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("fleet ingest benchmark regressions:\n%s", joinLines(regressions))
	}
	return nil
}

// PrintFleetMetrics fetches the router's aggregated /v1/metrics and prints
// the fleet-relevant series (sessions, samples, hand-off counters) —
// what the CI smoke job greps after a load run.
func PrintFleetMetrics(routerURL string, w io.Writer) error {
	resp, err := http.Get(routerURL + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "emprofd_sessions_") ||
			strings.HasPrefix(line, "emprofd_samples_") ||
			strings.HasPrefix(line, "emprofd_fleet_") {
			fmt.Fprintln(w, line)
		}
	}
	return nil
}
