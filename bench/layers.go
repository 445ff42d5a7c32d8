package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"emprof"
	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/profstore"
	"emprof/internal/sim"
)

// layerCosts holds the per-layer metrics of a traced run by name, plus a
// few internal ratios the ledger needs (names starting "sim.").
type layerCosts map[string]float64

// ledgerRow is one layer's cost per unit of the workload's work.
type ledgerRow struct {
	layer string
	ns    float64
}

// perLayerMetrics are the metrics a traced run prints, in BENCHMARK.json
// order. Every workload prints all of them: where a workload's own calls
// bypass a layer, the value comes from replaying the workload's inputs
// through that layer alone.
var perLayerMetrics = []struct{ name, unit string }{
	{"workloads.ns_per_inst", "ns"},
	{"cpu.self_ns_per_cycle", "ns"},
	{"em.receiver_ns_per_cycle", "ns"},
	{"batch.busy_frac", "ratio"},
	{"cpu.stall_cycle_frac", "ratio"},
	{"core.batch_ns_per_sample", "ns"},
	{"core.normalize_ns_per_sample", "ns"},
	{"core.detect_ns_per_sample", "ns"},
	{"core.stream_ns_per_sample", "ns"},
	{"core.push_block_ns_per_sample", "ns"},
	{"core.parallel_ns_per_sample", "ns"},
	{"core.parallel_speedup", "x"},
	{"core.allocs_per_msample_batch", "count"},
	{"core.allocs_per_msample_stream", "count"},
	{"core.allocs_per_msample_parallel", "count"},
	{"core.stalls_per_msample", "count"},
	{"core.resyncs_per_msample", "count"},
	{"core.windower_ns_per_window", "ns"},
	{"em.decode_ns_per_sample", "ns"},
	{"profstore.append_us_per_window", "us"},
	{"profstore.query_us_per_window", "us"},
	{"profstore.bytes_per_window", "B"},
	{"client.self_us_per_push", "us"},
	{"client.retries_per_kreq", "count"},
	{"http.client_router_us_per_push", "us"},
	{"fleet.router_self_us_per_push", "us"},
	{"http.router_shard_us_per_push", "us"},
	{"service.ingest_us_per_push", "us"},
	{"service.snapshot_us", "us"},
	{"service.finalize_us", "us"},
	{"service.profiles_us", "us"},
	{"fleet.profiles_fanin_us", "us"},
	{"service.rejects_per_kreq", "count"},
	{"service.windows_dropped", "count"},
	{"process.cpu_ns_per_unit", "ns"},
	{"runtime.allocs_per_unit", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"ledger.unattributed_ns_per_unit", "ns"},
	{"trace.overhead_pct", "%"},
}

const (
	// pushSamples is the live-ingest push size (and the replay's).
	pushSamples = 24000
	// replaySamples bounds the samples the layer replay runs over.
	replaySamples = 1_500_000
	// replayInsts bounds the instructions the generator replay drains.
	replayInsts = 20_000_000
)

// scaleTimes brings the replay's timings to the reference speed.
func (l layerCosts) scaleTimes(k float64) {
	for name, v := range l {
		if strings.Contains(name, "_ns_per_") || strings.Contains(name, "_us_per_") {
			l[name] = v * k
		}
	}
}

// timeIt runs fn reps times and returns the fastest wall time and that
// run's heap allocation count; the minimum filters out runs a collection
// or a scheduler hiccup landed in.
func timeIt(reps int, fn func()) (time.Duration, uint64) {
	best, allocs := time.Duration(math.MaxInt64), uint64(0)
	for i := 0; i < reps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if d < best {
			best, allocs = d, m1.Mallocs-m0.Mallocs
		}
	}
	return best, allocs
}

// replayLayers runs the traced run's own inputs through each layer alone,
// checking every output against the batch analyzer. The service layers
// are replayed through a traced fleet, so their spans join the tracer.
func replayLayers(caps []*emprof.Capture, tr *tracer, p params) (layerCosts, *phaseResult, error) {
	l := layerCosts{}
	pr := newPhase()
	// A capture shorter than one normalisation window is analysed with a
	// shrunken window by the batch analyzer only (it knows the length up
	// front, the streaming paths cannot), so the paths legitimately
	// disagree there; the replay leaves such captures out.
	var n int
	var in []*emprof.Capture
	for _, c := range caps {
		if n >= replaySamples {
			break
		}
		if float64(len(c.Samples)) < emprof.DefaultConfig().NormWindowS*c.SampleRate {
			continue
		}
		in = append(in, c)
		n += len(c.Samples)
	}
	caps = in
	if len(caps) == 0 {
		return nil, nil, fmt.Errorf("layer replay: the run produced no captures")
	}
	l.replayGenerator(tr)
	refs, err := l.replayCore(caps, float64(n), pr)
	if err != nil {
		return nil, nil, err
	}
	wins, err := l.replayWindower(caps, refs, pr)
	if err != nil {
		return nil, nil, err
	}
	l.replayDecode(caps, float64(n), pr)
	if err := l.replayStore(p, wins, pr); err != nil {
		return nil, nil, err
	}
	if err := replayService(p, tr, caps, refs, wins, pr); err != nil {
		return nil, nil, err
	}
	return l, pr, nil
}

// replayGenerator drains fresh copies of the instruction streams the run
// simulated, timing generation alone.
func (l layerCosts) replayGenerator(tr *tracer) {
	tr.mu.Lock()
	specs := make([]wlSpec, 0, len(tr.workloads))
	for s := range tr.workloads {
		specs = append(specs, s)
	}
	tr.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool {
		a, b := specs[i], specs[j]
		return a.spec < b.spec || (a.spec == b.spec && a.seed < b.seed)
	})
	var d time.Duration
	var insts int
	for _, s := range specs {
		if insts >= replayInsts {
			break
		}
		wl, err := emprof.ParseWorkload(s.spec, s.scaleM, s.seed)
		if err != nil {
			continue
		}
		var in sim.Inst
		t0 := time.Now()
		for wl.Next(&in) {
			insts++
		}
		d += time.Since(t0)
	}
	l["workloads.ns_per_inst"] = ratio(float64(d), float64(insts))
}

// replayCore runs every analyzer path over the captures and checks each
// against the batch result.
func (l layerCosts) replayCore(caps []*emprof.Capture, n float64, pr *phaseResult) ([]*core.Profile, error) {
	cfg := emprof.DefaultConfig()
	ca, err := core.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	stream, err := emprof.NewAnalyzer(cfg, emprof.WithStreaming())
	if err != nil {
		return nil, err
	}
	par, err := emprof.NewAnalyzer(cfg, emprof.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// Batch and normalize alternate, so the detect stage (their
	// difference) is not skewed by the machine speeding up or slowing down
	// between the two.
	refs := make([]*core.Profile, len(caps))
	dBatch, dNorm := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var aBatch uint64
	for rep := 0; rep < 5; rep++ {
		d, allocs := timeIt(1, func() {
			for i, c := range caps {
				refs[i] = ca.Profile(c)
			}
		})
		if d < dBatch {
			dBatch, aBatch = d, allocs
		}
		d, _ = timeIt(1, func() {
			for _, c := range caps {
				ca.Normalize(c)
			}
		})
		dNorm = min(dNorm, d)
	}
	check := func(path string, out []*core.Profile) {
		for i := range caps {
			pr.ops++
			if !reflect.DeepEqual(out[i], refs[i]) {
				pr.fail("replay: %s profile of capture %d differs from the batch analyzer's", path, i)
			}
		}
	}
	run := func(a *emprof.Analyzer) ([]*core.Profile, time.Duration, uint64) {
		out := make([]*core.Profile, len(caps))
		d, allocs := timeIt(3, func() {
			for i, c := range caps {
				var err error
				if out[i], err = a.Run(ctx, c); err != nil {
					pr.fail("replay: %v", err)
				}
			}
		})
		return out, d, allocs
	}
	outStream, dStream, aStream := run(stream)
	check("streaming", outStream)
	outPar, dPar, aPar := run(par)
	check("parallel", outPar)
	outBlock := make([]*core.Profile, len(caps))
	dBlock, _ := timeIt(3, func() {
		for i, c := range caps {
			s, err := core.NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
			if err != nil {
				pr.fail("replay: %v", err)
				continue
			}
			for off := 0; off < len(c.Samples); off += pushSamples {
				s.PushBlock(c.Samples[off:min(off+pushSamples, len(c.Samples))])
			}
			outBlock[i] = s.Finalize()
		}
	})
	check("block-streaming", outBlock)

	var stalls, resyncs float64
	for _, r := range refs {
		stalls += float64(len(r.Stalls))
		resyncs += float64(r.Quality.Resyncs)
	}
	l["core.batch_ns_per_sample"] = float64(dBatch) / n
	l["core.normalize_ns_per_sample"] = float64(dNorm) / n
	l["core.detect_ns_per_sample"] = float64(dBatch-dNorm) / n
	l["core.stream_ns_per_sample"] = float64(dStream) / n
	l["core.push_block_ns_per_sample"] = float64(dBlock) / n
	l["core.parallel_ns_per_sample"] = float64(dPar) / n
	l["core.parallel_speedup"] = ratio(float64(dBatch), float64(dPar))
	l["core.allocs_per_msample_batch"] = float64(aBatch) / n * 1e6
	l["core.allocs_per_msample_stream"] = float64(aStream) / n * 1e6
	l["core.allocs_per_msample_parallel"] = float64(aPar) / n * 1e6
	l["core.stalls_per_msample"] = stalls / n * 1e6
	l["core.resyncs_per_msample"] = resyncs / n * 1e6
	return refs, nil
}

// replayWindower slices each capture into rolling windows, timing only
// the windower, and checks that the windows merge back into the batch
// profile.
func (l layerCosts) replayWindower(caps []*emprof.Capture, refs []*core.Profile, pr *phaseResult) ([][]core.ProfileWindow, error) {
	wins := make([][]core.ProfileWindow, len(caps))
	var d time.Duration
	var count int
	for i, c := range caps {
		stalls, marks, final, err := streamStalls(c, pushSamples)
		if err != nil {
			return nil, err
		}
		w, err := core.NewWindower(windowS, 0, c.SampleRate, c.ClockHz)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		wins[i] = windowReplay(w, stalls, marks, final, len(c.Samples))
		d += time.Since(t0)
		count += len(wins[i])
		pr.ops++
		if merged, err := core.MergeWindows(wins[i], c.SampleRate, c.ClockHz); err != nil || !reflect.DeepEqual(merged, refs[i]) {
			pr.fail("replay: windows of capture %d do not merge into the batch profile (%v)", i, err)
		}
	}
	l["core.windower_ns_per_window"] = ratio(float64(d), float64(count))
	return wins, nil
}

// replayDecode decodes the captures from the raw wire format the client
// sends, in push-sized bodies.
func (l layerCosts) replayDecode(caps []*emprof.Capture, n float64, pr *phaseResult) {
	var d time.Duration
	for i, c := range caps {
		var bodies [][]byte
		for off := 0; off < len(c.Samples); off += pushSamples {
			xs := c.Samples[off:min(off+pushSamples, len(c.Samples))]
			b := make([]byte, 8*len(xs))
			for j, x := range xs {
				binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(x))
			}
			bodies = append(bodies, b)
		}
		dec := em.NewRawDecoder()
		var last float64
		t0 := time.Now()
		for _, b := range bodies {
			if err := dec.FeedBlock(b, func(xs []float64) { last = xs[len(xs)-1] }); err != nil {
				pr.fail("replay: decode: %v", err)
			}
		}
		d += time.Since(t0)
		pr.ops++
		if dec.Emitted() != int64(len(c.Samples)) || math.Float64bits(last) != math.Float64bits(c.Samples[len(c.Samples)-1]) {
			pr.fail("replay: decoding capture %d did not reproduce its samples", i)
		}
	}
	l["em.decode_ns_per_sample"] = float64(d) / n
}

// replayStore appends the replayed windows to an on-disk store and reads
// every session back with cursor paging.
func (l layerCosts) replayStore(p params, wins [][]core.ProfileWindow, pr *phaseResult) error {
	dir, err := os.MkdirTemp(p.tmpRoot, "replay-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := profstore.Open(profstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	var count int
	dAppend, _ := timeIt(1, func() {
		for i, ws := range wins {
			for j := range ws {
				if err := st.Append(fmt.Sprintf("replay%d", i), &ws[j]); err != nil {
					pr.fail("replay: append: %v", err)
				}
				count++
			}
		}
	})
	got := make([][]core.ProfileWindow, len(wins))
	dQuery, _ := timeIt(1, func() {
		for i := range wins {
			q := profstore.Query{Limit: 64}
			for {
				res, err := st.Query(fmt.Sprintf("replay%d", i), q)
				if err != nil {
					pr.fail("replay: query: %v", err)
					break
				}
				got[i] = append(got[i], res.Windows...)
				if !res.More {
					break
				}
				q.AfterIndex, q.HasAfter = res.NextAfter, true
			}
		}
	})
	for i := range wins {
		pr.ops++
		if !reflect.DeepEqual(got[i], wins[i]) {
			pr.fail("replay: store returned different windows for capture %d", i)
		}
	}
	l["profstore.append_us_per_window"] = ratio(float64(dAppend)/1e3, float64(count))
	l["profstore.query_us_per_window"] = ratio(float64(dQuery)/1e3, float64(count))
	l["profstore.bytes_per_window"] = ratio(float64(st.Stats().Bytes), float64(count))
	return nil
}

// replayService streams each capture through a traced fleet with windows
// on, one session at a time: pushes with snapshots, a tail query,
// finalize, a range query, and a full timeline walk.
func replayService(p params, tr *tracer, caps []*emprof.Capture, refs []*core.Profile, wins [][]core.ProfileWindow, pr *phaseResult) error {
	dir, err := os.MkdirTemp(p.tmpRoot, "replay-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := startFleet(tr, windowS, dir, p.seed)
	if err != nil {
		return err
	}
	cl := newCaller(f, tr)
	defer func() {
		cl.close()
		f.close()
	}()
	for i, c := range caps {
		id, _, err := cl.create(c)
		pr.ops++
		if err != nil {
			pr.fail("replay: create: %s", errString(err))
			continue
		}
		pushes := 0
		for off := 0; off < len(c.Samples); off += pushSamples {
			end := min(off+pushSamples, len(c.Samples))
			pr.ops++
			if _, err := cl.push(id, int64(off), c.Samples[off:end]); err != nil {
				pr.fail("replay: push: %s", errString(err))
			}
			// A snapshot after every fourth push, and at least one per session.
			if pushes++; pushes%4 == 0 || (pushes < 4 && end == len(c.Samples)) {
				pr.ops++
				if _, err := cl.snapshot(id, int64(end)); err != nil {
					pr.fail("replay: snapshot: %s", errString(err))
				}
			}
		}
		query := func(req emprof.ProfilesRequest, want int) {
			resp, _, err := cl.profiles(id, req)
			pr.ops++
			switch {
			case err != nil:
				pr.fail("replay: profiles: %s", errString(err))
			case !matchWindows(resp.Windows, wins[i]) || (want > 0 && len(resp.Windows) != want):
				pr.fail("replay: profiles %+v of capture %d differ from the reference windows", req, i)
			}
		}
		// The tail reads the live session; the range, one window from the
		// middle, reads the finished session from disk.
		query(emprof.ProfilesRequest{Last: 8}, 0)
		prof, _, err := cl.finalize(id)
		pr.ops++
		if err != nil || !reflect.DeepEqual(prof, refs[i]) {
			pr.fail("replay: finalized profile of capture %d differs from the batch analyzer's (%v)", i, err)
		}
		mid := wins[i][(len(wins[i])-1)/2]
		query(emprof.ProfilesRequest{From: mid.StartS, To: mid.EndS}, 1)
		walked, err := cl.timeline(id)
		var merged *core.Profile
		if err == nil {
			merged, err = core.MergeWindows(walked, c.SampleRate, c.ClockHz)
		}
		pr.ops++
		if err != nil || !reflect.DeepEqual(merged, refs[i]) {
			pr.fail("replay: merged timeline of capture %d differs from the batch analyzer's (%v)", i, err)
		}
	}
	dropped := f.windowsDropped()
	tr.count("service.windows_dropped", float64(dropped))
	if dropped > 0 {
		pr.fail("replay: the stores dropped %d windows", dropped)
	}
	return nil
}

// fromTracer derives the span-based metrics: the simulator split, the pool
// occupancy and the per-request service path.
func (l layerCosts) fromTracer(tr *tracer) {
	spans := tr.snapshot()
	tr.mu.Lock()
	counts := make(map[string]float64, len(tr.counts))
	for k, v := range tr.counts {
		counts[k] = v
	}
	tr.mu.Unlock()

	self := selfTimes(spans)
	var run, rx, jobs, pools float64
	for _, s := range spans {
		switch s.Name {
		case "cpu.run":
			run += float64(self[s.ID]) * s.K
		case "em.receiver":
			rx += float64(s.dur()) * s.K
		case "batch.job":
			jobs += float64(s.dur())
		case "batch.pool":
			pools += float64(s.dur())
		}
	}
	cycles := counts["sim.cycles"]
	gen := counts["sim.insts"] * l["workloads.ns_per_inst"]
	l["cpu.self_ns_per_cycle"] = ratio(run-gen, cycles)
	l["em.receiver_ns_per_cycle"] = ratio(rx, cycles)
	l["batch.busy_frac"] = ratio(jobs, 2*pools)
	l["cpu.stall_cycle_frac"] = ratio(counts["sim.stall_cycles"], cycles)
	l["sim.insts_per_cycle"] = ratio(counts["sim.insts"], cycles)
	l["sim.samples_per_cycle"] = ratio(counts["sim.samples"], cycles)

	rl := newRequestLedger(spans)
	l["client.self_us_per_push"] = rl.meanUs("client.push", "push")
	l["http.client_router_us_per_push"] = rl.meanUs("http.client", "push")
	l["fleet.router_self_us_per_push"] = rl.meanUs("fleet.router", "push")
	l["http.router_shard_us_per_push"] = rl.meanUs("http.relay", "push")
	l["service.ingest_us_per_push"] = rl.meanUs("service.handler", "push")
	l["service.snapshot_us"] = rl.meanUs("service.handler", "snapshot")
	l["service.finalize_us"] = rl.meanUs("service.handler", "finalize")
	l["service.profiles_us"] = rl.meanUs("service.handler", "profiles")
	l["fleet.profiles_fanin_us"] = rl.meanUs("fleet.router", "profiles")
	l["client.retries_per_kreq"] = rl.retriesPerKreq()
	var attempts int
	for _, n := range rl.attempts {
		attempts += n
	}
	l["service.rejects_per_kreq"] = ratio(1000*counts["http.client.rejects"], float64(attempts))
	l["service.windows_dropped"] = counts["service.windows_dropped"]
}
