package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"emprof"
)

// params configures one run of one workload.
type params struct {
	seed    uint64
	seconds float64
	traced  bool
	// setups is how many times the workload is set up; setup_s is the
	// median, and the last set-up is the one measured.
	setups int
	// small shrinks every input to smoke-test size.
	small bool
	// tmpRoot holds the on-disk window stores.
	tmpRoot string
	// corrupt perturbs one reference after set-up, so a correct run must
	// count failed operations; it proves the output checks fire.
	corrupt bool
	// spansOut, when set, receives a traced run's spans as JSON.
	spansOut string
}

// workloadDef names a workload and builds its instances.
type workloadDef struct {
	name string
	// unit is the unit of work throughput_mps and the per-unit layer
	// metrics count: a simulated cycle or a sample.
	unit string
	// op names the request kind op_p50_ms and op_p90_ms time.
	op  string
	new func(p params) bench
}

// bench is one set-up instance of a workload.
type bench interface {
	// setup generates the inputs from the seed, computes the references the
	// outputs are checked against, and boots any services. With a tracer,
	// simulations record spans.
	setup(tr *tracer) error
	// measure runs the load for d in calibrated rounds (see measureRounds).
	// A nil tracer runs the production path with no wrappers; otherwise
	// every layer call is wrapped in spans.
	measure(cal *calibrator, d time.Duration, tr *tracer) *phaseResult
	// inputs returns the captures the traced layer replay runs over.
	inputs() []*emprof.Capture
	// accuracyPct is the stall-cycle accuracy of the profiles the workload
	// produces against simulator ground truth.
	accuracyPct() float64
	// ledger lists the per-unit costs of the layers on this workload's
	// path, measured alone; the rest of its CPU time is the residual.
	ledger(l layerCosts) []ledgerRow
	close()
}

// phaseResult is what one measured phase, or one round of it, observed.
// Latencies and CPU time are at the reference speed once absorbRound has
// scaled them; the raw fields keep them as measured.
type phaseResult struct {
	wall time.Duration
	// rates and rawRates are each round's units per second of wall time,
	// at the reference speed and as measured.
	rates, rawRates []float64
	units           float64
	ops             int
	failed          int
	// failures keeps the first few check failures for the report.
	failures    []string
	lat, rawLat map[string][]time.Duration
	cpu         time.Duration
	allocs      uint64
	gcPause     time.Duration
	// rss is the process's resident set in MB after each round.
	rss   []float64
	extra map[string]metric
}

func newPhase() *phaseResult {
	return &phaseResult{
		lat:    make(map[string][]time.Duration),
		rawLat: make(map[string][]time.Duration),
		extra:  make(map[string]metric),
	}
}

// fail counts one failed operation.
func (pr *phaseResult) fail(format string, args ...any) {
	pr.failed++
	if len(pr.failures) < 5 {
		pr.failures = append(pr.failures, fmt.Sprintf(format, args...))
	}
}

func (pr *phaseResult) record(kind string, d time.Duration) {
	pr.lat[kind] = append(pr.lat[kind], d)
}

// merge folds another phase, round or worker's result into pr.
func (pr *phaseResult) merge(o *phaseResult) {
	pr.wall += o.wall
	pr.rates = append(pr.rates, o.rates...)
	pr.rawRates = append(pr.rawRates, o.rawRates...)
	pr.units += o.units
	pr.ops += o.ops
	pr.failed += o.failed
	for _, f := range o.failures {
		if len(pr.failures) < 5 {
			pr.failures = append(pr.failures, f)
		}
	}
	for k, ds := range o.lat {
		pr.lat[k] = append(pr.lat[k], ds...)
	}
	for k, ds := range o.rawLat {
		pr.rawLat[k] = append(pr.rawLat[k], ds...)
	}
	pr.cpu += o.cpu
	pr.allocs += o.allocs
	pr.gcPause += o.gcPause
	pr.rss = append(pr.rss, o.rss...)
	for k, m := range o.extra {
		pr.extra[k] = m
	}
}

// absorbRound folds a measured round into pr, bringing its rate,
// latencies and CPU time to the reference speed by the factor k while
// keeping the rate and latencies raw beside.
func (pr *phaseResult) absorbRound(r *phaseResult, k float64) {
	r.rates = []float64{r.units / (k * r.wall.Seconds())}
	r.rawRates = []float64{r.units / r.wall.Seconds()}
	for kind, ds := range r.lat {
		r.rawLat[kind] = append([]time.Duration(nil), ds...)
		for i := range ds {
			ds[i] = time.Duration(k * float64(ds[i]))
		}
	}
	r.cpu = time.Duration(k * float64(r.cpu))
	pr.merge(r)
}

// roundLen is the length of one measured round.
const roundLen = time.Second

// tracedPairs is how many untraced and traced phases a traced run
// alternates.
const tracedPairs = 5

// measureRounds runs round until d has passed, one round of about
// roundLen at a time, with a calibration sample before the first round
// and after each. A round runs its operations until the time it is given
// and returns only once they have all completed, so the kernel never
// shares the cores with the program. Each round's rate, latencies and CPU
// time are scaled by the samples on either side of it; its wall, CPU,
// allocation and GC readings cover the round alone.
func measureRounds(cal *calibrator, d time.Duration, round func(until time.Time) *phaseResult) *phaseResult {
	pr := newPhase()
	before := cal.sample()
	t0 := time.Now()
	for first := true; first || time.Since(t0) < d; first = false {
		m := startMeter()
		r := round(time.Now().Add(min(roundLen, d-time.Since(t0))))
		m.stop(r)
		after := cal.sample()
		pr.absorbRound(r, scale(before, after))
		before = after
	}
	return pr
}

// meter brackets a round with wall, CPU, allocation and GC readings, and
// reads the resident set at its end.
type meter struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(pr *phaseResult) {
	pr.wall = time.Since(m.t0)
	pr.cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pr.allocs = ms.Mallocs - m.ms.Mallocs
	pr.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
	pr.rss = append(pr.rss, residentMB())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value, where it has one.
	N int `json:"n,omitempty"`
}

// report is one run's result row.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	WorkUnit  string            `json:"work_unit"`
	Ops       int               `json:"ops"`
	OpsFailed int               `json:"ops_failed"`
	Cores     int               `json:"cores"`
	GoVersion string            `json:"go"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	ledger    []ledgerRow
}

// runWorkload sets the workload up, measures it and assembles its report.
func runWorkload(def workloadDef, p params) (*report, error) {
	if err := os.MkdirAll(p.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if p.traced {
		tr = newTracer()
		p.setups = 1 // setup_s is reported by untraced runs only
	}
	// Three timings per core keep one scheduler hiccup from moving a
	// sample; a smoke run needs only one.
	reps := 3
	if p.small {
		reps = 1
	}
	cal := newCalibrator(reps, tr)
	var b bench
	var setups, rawSetups []float64
	for i := 0; i < max(1, p.setups); i++ {
		if b != nil {
			// Each set-up starts from the same clean heap.
			b.close()
			runtime.GC()
		}
		before := cal.sample()
		t0 := time.Now()
		b = def.new(p)
		if err := b.setup(tr); err != nil {
			b.close()
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		d := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*scale(before, cal.sample()))
	}
	defer b.close()

	rep := &report{
		Workload:  def.name,
		Seed:      p.seed,
		Traced:    p.traced,
		Seconds:   p.seconds,
		WorkUnit:  def.unit,
		Cores:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Metrics:   make(map[string]metric),
		Extra:     make(map[string]metric),
	}
	d := time.Duration(p.seconds * float64(time.Second))
	if !p.traced {
		pr := b.measure(cal, d, nil)
		rep.add(pr, "")
		ops := pr.lat[def.op]
		_, setup, _ := quartiles(setups)
		_, rate, _ := quartiles(pr.rates)
		_, rawRate, _ := quartiles(pr.rawRates)
		_, rss, _ := quartiles(pr.rss)
		vals := map[string]metric{
			"setup_s":        {Value: setup, N: len(setups)},
			"rss_mb":         {Value: rss, N: len(pr.rss)},
			"throughput_mps": {Value: rate / 1e6, N: len(pr.rates)},
			"op_p50_ms":      {Value: percentileMs(ops, 0.50), N: len(ops)},
			"op_p90_ms":      {Value: percentileMs(ops, 0.90), N: len(ops)},
		}
		for _, e := range endToEndMetrics {
			m := vals[e.name]
			m.Unit = e.unit
			rep.Metrics[e.name] = m
		}
		// Accuracy is reported beside the timings but not gated: it is
		// fixed by the seed's inputs and swings with them (see README.md).
		rep.Extra["stall_accuracy_pct"] = metric{Value: b.accuracyPct(), Unit: "%"}
		rep.Extra["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
		_, rawSetup, _ := quartiles(rawSetups)
		rep.Extra["raw_setup_s"] = metric{Value: rawSetup, Unit: "s", N: len(rawSetups)}
		rep.Extra["raw_throughput_mps"] = metric{Value: rawRate / 1e6, Unit: "M/s", N: len(pr.rawRates)}
		raw := pr.rawLat[def.op]
		rep.Extra["raw_op_p50_ms"] = metric{percentileMs(raw, 0.50), "ms", len(raw)}
		rep.Extra["raw_op_p90_ms"] = metric{percentileMs(raw, 0.90), "ms", len(raw)}
		_, calMed, _ := quartiles(durationsMs(cal.samples))
		rep.Extra["calibration_ms"] = metric{calMed, "ms", len(cal.samples)}
		return rep, nil
	}

	// Traced: after a warm-up whose timings are discarded, short untraced
	// and traced phases alternate, so the tracing overhead is measured in
	// the same process, on the same inputs and at the same moments; then
	// the run's own inputs are replayed through each layer alone. Every
	// per-layer time is at the reference speed: spans carry the factor of
	// the sample before them, and the replay is scaled by the samples
	// around it.
	rep.count(b.measure(cal, d/2, nil))
	pairs := tracedPairs
	if p.small {
		pairs = 1
	}
	pu, pt := newPhase(), newPhase()
	for i := 0; i < pairs; i++ {
		pu.merge(b.measure(cal, d/time.Duration(2*pairs), nil))
		pt.merge(b.measure(cal, d/time.Duration(2*pairs), tr))
	}
	untraced := percentileMs(pu.lat[def.op], 0.5)
	traced := percentileMs(pt.lat[def.op], 0.5)
	rep.add(pu, "")
	rep.add(pt, "_traced")
	before := cal.sample()
	lc, rp, err := replayLayers(b.inputs(), tr, p)
	if err != nil {
		return nil, err
	}
	lc.scaleTimes(scale(before, cal.sample()))
	rep.add(rp, "_replay")
	lc.fromTracer(tr)
	lc["process.cpu_ns_per_unit"] = ratio(float64(pt.cpu), pt.units)
	lc["runtime.allocs_per_unit"] = ratio(float64(pt.allocs), pt.units)
	lc["runtime.gc_pause_ms_per_s"] = ratio(float64(pt.gcPause)/1e6, pt.wall.Seconds())
	rep.ledger = b.ledger(lc)
	var attributed float64
	for _, r := range rep.ledger {
		attributed += r.ns
	}
	lc["ledger.unattributed_ns_per_unit"] = lc["process.cpu_ns_per_unit"] - attributed
	rep.ledger = append(rep.ledger, ledgerRow{"unattributed", lc["ledger.unattributed_ns_per_unit"]})
	lc["trace.overhead_pct"] = 100 * (ratio(traced, untraced) - 1)
	for _, pl := range perLayerMetrics {
		rep.Metrics[pl.name] = metric{lc[pl.name], pl.unit, 0}
	}
	if p.spansOut != "" {
		if err := tr.writeFile(p.spansOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// count folds a phase's operations and failures into the report.
func (r *report) count(pr *phaseResult) {
	r.Ops += pr.ops
	r.OpsFailed += pr.failed
	for _, f := range pr.failures {
		if len(r.Failures) < 5 {
			r.Failures = append(r.Failures, f)
		}
	}
}

// add folds a phase's operations, latencies and extras into the report,
// naming its extras with suffix.
func (r *report) add(pr *phaseResult, suffix string) {
	r.count(pr)
	kinds := make([]string, 0, len(pr.lat))
	for k := range pr.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ds := pr.lat[k]
		r.Extra[k+"_p50_ms"+suffix] = metric{percentileMs(ds, 0.50), "ms", len(ds)}
		r.Extra[k+"_p90_ms"+suffix] = metric{percentileMs(ds, 0.90), "ms", len(ds)}
		r.Extra[k+"_p99_ms"+suffix] = metric{percentileMs(ds, 0.99), "ms", len(ds)}
	}
	for k, m := range pr.extra {
		r.Extra[k+suffix] = m
	}
}

// storeRoot is where runs keep on-disk window stores by default: inside
// the checkout, next to the build.
var storeRoot = filepath.Join(".bench_build", "tmp")
