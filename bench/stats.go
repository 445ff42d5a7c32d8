package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentileMs is the nearest-rank q-quantile of ds in milliseconds; it
// sorts ds in place.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return float64(ds[i]) / 1e6
}

// quartiles returns the quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged against the bounds in
// BENCHMARK.json. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// residentMB is the process's current resident set in MB, read from
// /proc/self/statm; 0 where that cannot be read.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
