package emprof

import (
	"reflect"
	"testing"

	"emprof/internal/acquire"
)

// TestSimulateExactThreeWay is the top-level equivalence contract for the
// event-driven simulator: over the sweep grid (both devices, the standard
// microbenchmark, two seeds), (1) Simulate and the per-cycle reference
// loop (acquire.Hooks.Exact) must return
// bit-identical runs — captures, power proxy, memory probe and ground
// truth — and (2) the analysis side must agree: the analyzer produces
// the same Profile from either capture.
func TestSimulateExactThreeWay(t *testing.T) {
	devices := []struct {
		name string
		dev  Device
	}{
		{"olimex", DeviceOlimex()},
		{"samsung", DeviceSamsung()},
	}
	w, err := Microbenchmark(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		for _, seed := range []uint64{1, 2} {
			opts := CaptureOptions{
				Seed:        seed,
				PowerProxy:  true,
				MemoryProbe: true,
			}
			fast, err := Simulate(d.dev, w, opts)
			if err != nil {
				t.Fatalf("%s seed %d: Simulate: %v", d.name, seed, err)
			}
			exact, err := acquire.Simulate(d.dev, w, opts, acquire.Hooks{Exact: true})
			if err != nil {
				t.Fatalf("%s seed %d: exact: %v", d.name, seed, err)
			}
			// The whole observable Run must match bitwise.
			if !reflect.DeepEqual(fast.Capture, exact.Capture) {
				t.Fatalf("%s seed %d: processor captures diverge", d.name, seed)
			}
			if !reflect.DeepEqual(fast.MemCapture, exact.MemCapture) {
				t.Fatalf("%s seed %d: memory captures diverge", d.name, seed)
			}
			if !reflect.DeepEqual(fast.PowerTrace, exact.PowerTrace) || fast.PowerRate != exact.PowerRate {
				t.Fatalf("%s seed %d: power proxies diverge", d.name, seed)
			}
			if !reflect.DeepEqual(fast.Truth, exact.Truth) {
				t.Fatalf("%s seed %d: ground truth diverges:\n fast %+v\nexact %+v",
					d.name, seed, fast.Truth, exact.Truth)
			}

			cfg := DefaultConfig()
			want, err := runAnalyzer(exact.Capture, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: batch(exact): %v", d.name, seed, err)
			}
			got, err := runAnalyzer(fast.Capture, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: batch(fast): %v", d.name, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: profiles diverge between paths", d.name, seed)
			}
			if want.Misses == 0 || fast.Truth.Cycles == 0 {
				t.Fatalf("%s seed %d: degenerate run (misses %d, cycles %d)",
					d.name, seed, want.Misses, fast.Truth.Cycles)
			}
		}
	}
}

// FuzzSimulateSkipAhead mutates the Olimex device's core and memory shape
// and checks, for every configuration the validators accept, that the
// skip-ahead simulation stays bit-identical to the per-cycle reference —
// the simulator-side sibling of FuzzSynthesisBlock.
func FuzzSimulateSkipAhead(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(4), uint16(0), uint8(16), uint8(8))
	f.Add(uint64(7), uint8(1), uint8(12), uint8(1), uint16(3), uint8(64), uint8(1))
	f.Add(uint64(9), uint8(4), uint8(23), uint8(8), uint16(4097), uint8(128), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, widthRaw, windowRaw, mshrRaw uint8, batchRaw uint16, tmRaw, cmRaw uint8) {
		dev := DeviceOlimex()
		dev.CPU.Width = int(widthRaw%4) + 1
		dev.CPU.OoOWindow = int(windowRaw) % (dev.CPU.FetchQueue + 1)
		dev.Mem.MSHRs = int(mshrRaw%8) + 1
		if err := dev.Validate(); err != nil {
			t.Skip(err)
		}
		w, err := Microbenchmark(int(tmRaw%128)+4, int(cmRaw%16)+1)
		if err != nil {
			t.Skip(err)
		}
		opts := CaptureOptions{Seed: seed}
		batch := int(batchRaw % 5000)
		fast, err := acquire.Simulate(dev, w, opts, acquire.Hooks{BatchCycles: batch})
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		exact, err := acquire.Simulate(dev, w, opts, acquire.Hooks{Exact: true, BatchCycles: batch})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if !reflect.DeepEqual(fast.Truth, exact.Truth) {
			t.Fatalf("ground truth diverges (width=%d window=%d mshrs=%d batch=%d)",
				dev.CPU.Width, dev.CPU.OoOWindow, dev.Mem.MSHRs, batch)
		}
		a, b := fast.Capture.Samples, exact.Capture.Samples
		if len(a) != len(b) {
			t.Fatalf("capture lengths %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sample %d: skip-ahead %v, per-cycle %v (width=%d window=%d mshrs=%d batch=%d)",
					i, a[i], b[i], dev.CPU.Width, dev.CPU.OoOWindow, dev.Mem.MSHRs, batch)
			}
		}
	})
}
