package experiments

import (
	"fmt"
	"io"
	"reflect"
	"text/tabwriter"

	"emprof"
	"emprof/internal/acquire"
	"emprof/internal/device"
)

// SimQuick is the skip-ahead smoke check: for each core shape it runs the
// event-driven simulator and the per-cycle reference over the same
// workload and verifies the runs are bit-identical — the CI-facing form
// of the equivalence property tests, cheap enough for every push.
type SimQuick struct {
	Cases []SimQuickCase
}

// SimQuickCase is one verified device/shape combination.
type SimQuickCase struct {
	Name    string
	Cycles  uint64
	Samples int
	Stalls  int
}

// RunSimQuick runs Simulate vs the per-cycle reference loop
// (acquire.Hooks.Exact) across both modelled devices
// plus an out-of-order variant and fails on any bitwise difference in
// capture, power proxy or ground truth.
func RunSimQuick(o Options) (*SimQuick, error) {
	o = o.withDefaults()
	tm, cm := 64, 8
	if o.Quick {
		tm, cm = 16, 4
	}
	ooo := device.Olimex()
	ooo.Name = "Olimex-OoO8"
	ooo.CPU.OoOWindow = 8
	devs := []emprof.Device{device.Olimex(), device.Samsung(), ooo}

	out := &SimQuick{}
	for _, dev := range devs {
		w, err := emprof.Microbenchmark(tm, cm)
		if err != nil {
			return nil, err
		}
		opts := emprof.CaptureOptions{Seed: o.Seed, PowerProxy: true}
		fast, err := emprof.Simulate(dev, w, opts)
		if err != nil {
			return nil, fmt.Errorf("simquick %s: %w", dev.Name, err)
		}
		exact, err := acquire.Simulate(dev, w, opts, acquire.Hooks{Exact: true})
		if err != nil {
			return nil, fmt.Errorf("simquick %s (exact): %w", dev.Name, err)
		}
		if !reflect.DeepEqual(fast.Truth, exact.Truth) {
			return nil, fmt.Errorf("simquick %s: ground truth diverges between skip-ahead and per-cycle", dev.Name)
		}
		if !reflect.DeepEqual(fast.Capture, exact.Capture) {
			return nil, fmt.Errorf("simquick %s: captures diverge between skip-ahead and per-cycle", dev.Name)
		}
		if !reflect.DeepEqual(fast.PowerTrace, exact.PowerTrace) {
			return nil, fmt.Errorf("simquick %s: power proxies diverge between skip-ahead and per-cycle", dev.Name)
		}
		if fast.Truth.Cycles == 0 || len(fast.Truth.Stalls) == 0 {
			return nil, fmt.Errorf("simquick %s: degenerate run (cycles=%d stalls=%d)",
				dev.Name, fast.Truth.Cycles, len(fast.Truth.Stalls))
		}
		out.Cases = append(out.Cases, SimQuickCase{
			Name:    dev.Name,
			Cycles:  fast.Truth.Cycles,
			Samples: len(fast.Capture.Samples),
			Stalls:  len(fast.Truth.Stalls),
		})
	}
	return out, nil
}

// Render implements Renderer.
func (s *SimQuick) Render(w io.Writer) {
	fmt.Fprintln(w, "simquick: skip-ahead vs per-cycle reference, bit-identical runs")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tcycles\tsamples\tstalls\tstatus")
	for _, c := range s.Cases {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\tidentical\n", c.Name, c.Cycles, c.Samples, c.Stalls)
	}
	tw.Flush()
}
