package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRows collects the untraced result rows of a file, by workload, in
// file order. Any other line (tables, result lines) is skipped, so the
// concatenated output of several runs is a valid input.
func readRows(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string][]report)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Traced {
			continue
		}
		rows[r.Workload] = append(rows[r.Workload], r)
	}
	return rows, sc.Err()
}

// compareFiles compares two sets of runs (A the parent, B the change) the
// way a change claiming a gain is judged: per workload and end-to-end
// metric, each side's median and quartiles, the pairs B wins (run i of A
// against run i of B; ties count for neither), and a verdict against the
// metric's bound.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRows(pathA)
	if err != nil {
		return err
	}
	b, err := readRows(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1/median/q3\tB q1/median/q3\tchange\tB wins\tverdict\t")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			c := compareMetric(va, vb, m)
			fmt.Fprintf(tw, "%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.1f%%\t%d/%d\t%s\t\n",
				wl.Name, m.Name, c.a[0], c.a[1], c.a[2], c.b[0], c.b[1], c.b[2],
				100*c.change, c.wins, c.pairs, c.verdict)
		}
	}
	return tw.Flush()
}

func values(rows []report, name string) []float64 {
	var out []float64
	for _, r := range rows {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type comparison struct {
	a, b        [3]float64 // quartiles
	change      float64    // B's median relative to A's; positive is better
	wins, pairs int
	verdict     string
}

// compareMetric judges one metric: a regression
// is B's median worse than A's by more than the bound; when A's own spread
// (its quartile distance over its median) exceeds the bound the result is
// unresolved, unless every run of B beats every run of A; a gain needs B to
// win at least nine tenths of the pairs and the medians to differ by more
// than A's quartile distance.
func compareMetric(va, vb []float64, m specMetric) comparison {
	var c comparison
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	pairs := min(len(va), len(vb))
	for i := 0; i < pairs; i++ {
		if sign*(vb[i]-va[i]) > 0 {
			c.wins++
		}
	}
	c.pairs = pairs
	// Sorting for the quartiles must not disturb the pairing above.
	sa, sb := append([]float64(nil), va...), append([]float64(nil), vb...)
	c.a[0], c.a[1], c.a[2] = quartiles(sa)
	c.b[0], c.b[1], c.b[2] = quartiles(sb)
	c.change = sign * ratio(c.b[1]-c.a[1], c.a[1])
	spread := ratio(c.a[2]-c.a[0], c.a[1])
	allBetter := len(sa) > 0 && len(sb) > 0 &&
		((sign > 0 && sb[0] > sa[len(sa)-1]) || (sign < 0 && sb[len(sb)-1] < sa[0]))
	switch {
	case spread > m.Bound && !allBetter:
		c.verdict = "unresolved"
	case -c.change > m.Bound:
		c.verdict = "regression"
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && sign*(c.b[1]-c.a[1]) > c.a[2]-c.a[0]:
		c.verdict = "gain"
	default:
		c.verdict = "no change"
	}
	return c
}
