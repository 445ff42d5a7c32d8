// Command bench is the repository benchmark. It drives emprof's layers
// only through their exported functions, on inputs generated from a seed,
// checks every output against a reference, and prints the metrics that
// BENCHMARK.json at the repository root declares: the end-to-end metrics
// untraced, or the per-layer ledger with --trace 1.
//
// Build and run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload live-ingest --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 2                 # every workload, one process each
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// A run prints one JSON row, a readable table, and finally one JSON line
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"text/tabwriter"
)

// workloads are the benchmark's workloads, in BENCHMARK.json order; see
// README.md for why each was chosen.
var workloads = []workloadDef{
	{name: "sim-sweep", unit: "cycle", op: "sweep", new: newSimSweep},
	{name: "analyze-batch", unit: "sample", op: "analyze", new: newAnalyzeBatch},
	{name: "live-ingest", unit: "sample", op: "session", new: newLiveIngest},
	{name: "continuous-query", unit: "sample", op: "session", new: newContinuousQuery},
}

// endToEndMetrics are the metrics an untraced run prints, in BENCHMARK.json
// order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"throughput_mps", "M/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		spans    = flag.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
		compare  = flag.Bool("compare", false, "compare two files of result rows against BENCHMARK.json's bounds: --compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two files"))
		}
		if err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *traceOn, *spans))
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	rep, err := runWorkload(def, params{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceOn == 1,
		setups:   3,
		tmpRoot:  storeRoot,
		spansOut: *spans,
	})
	if err != nil {
		fatal(err)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fatal(err)
	}
	if rep.OpsFailed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runAll runs every workload in a child process of its own, so each
// reports its own memory, and returns the exit code.
func runAll(seed uint64, seconds float64, traceOn int, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceOn)}
		if spans != "" {
			args = append(args, "--spans", strings.TrimSuffix(spans, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// printReport writes the JSON row, the table, and the result line.
func printReport(w io.Writer, rep *report) error {
	row, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(row))

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s  seed %d  %s  %gs  unit of work: %s  ops %d  failed %d  cores %d  %s\n",
		rep.Workload, rep.Seed, mode, rep.Seconds, rep.WorkUnit, rep.Ops, rep.OpsFailed, rep.Cores, rep.GoVersion)
	printMetrics(tw, rep.Metrics)
	printMetrics(tw, rep.Extra)
	if len(rep.ledger) > 0 {
		fmt.Fprintf(tw, "ledger (per unit of work)\tns\tshare\t\n")
		cpu := rep.Metrics["process.cpu_ns_per_unit"].Value
		for _, r := range rep.ledger {
			fmt.Fprintf(tw, "  %s\t%.2f\t%.1f%%\t\n", r.layer, r.ns, 100*ratio(r.ns, cpu))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "# failed:", f)
	}

	line := resultLine{
		Correct:   rep.OpsFailed == 0 && rep.Ops > 0,
		Attempted: rep.Ops,
		Failed:    rep.OpsFailed,
		Metrics:   make(map[string]valueUnit, len(rep.Metrics)),
	}
	for k, m := range rep.Metrics {
		line.Metrics[k] = valueUnit{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func printMetrics(tw io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t%s\t\n", k, m.Value, m.Unit, n)
	}
}
