package emprof

import "emprof/internal/acquire"

// CaptureOptions controls a simulated acquisition: measurement bandwidth,
// seed, noise-free proxy mode, the SESC-style power proxy, the memory
// probe and the processor probe's placement (see acquire.Options for the
// fields).
type CaptureOptions = acquire.Options

// Run is the outcome of one simulated acquisition: the processor-probe
// capture, the optional memory-probe capture and power proxy, and the
// simulator's ground truth (see acquire.Run).
type Run = acquire.Run

// Simulate executes the workload on the device and records the EM capture
// plus ground truth. Runs with equal inputs are bit-identical.
func Simulate(dev Device, w Workload, opts CaptureOptions) (*Run, error) {
	return acquire.Simulate(dev, w, opts, acquire.Hooks{})
}
