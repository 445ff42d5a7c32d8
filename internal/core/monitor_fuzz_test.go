package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"emprof/internal/sim"
)

// FuzzMonitorMatchesOracle drives the monitor block kernel and the
// per-sample oracle monitor over signals decoded from the fuzz input and
// requires the same sanitised samples, flags, resyncs, observer events,
// monitor state and busy-tracker state. The signals are built from the
// segments that move the monitor between its settled fast run and its
// general step: dropouts, NaN, +Inf and negative samples, exact flat
// runs, gain jumps, spikes at the burst threshold and noisy levels.
//
// The first bytes pick the sample rate (1, 4 or 40 MS/s, so the busy
// tracker's window is 4, 15 or 150 samples), whether the probe-shift band
// is armed and the largest block the stream is split into (up to
// pushBlockN).
func FuzzMonitorMatchesOracle(f *testing.F) {
	f.Add([]byte{2, 0, 0x10, 0x00, 8, 200, 9, 4, 9, 200, 7, 0, 60, 8, 255, 20, 0, 30, 0, 8, 120, 3})
	f.Add([]byte{1, 1, 0xff, 0x0f, 8, 100, 40, 6, 0, 0, 8, 255, 10, 5, 0, 0, 8, 255, 10, 1, 2, 0, 3, 0, 5})
	f.Add([]byte{0, 0, 0x03, 0x00, 8, 30, 90, 4, 5, 10, 8, 10, 40, 4, 3, 10, 8, 10, 40, 2, 0, 0, 8, 40, 50})
	f.Add([]byte{2, 1, 0x00, 0x10, 8, 255, 30, 9, 200, 1, 8, 255, 30, 7, 3, 200, 8, 100, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rate := [...]float64{1e6, 4e6, 40e6}[int(data[0])%3]
		cfg := DefaultConfig()
		if data[1]&1 != 0 {
			cfg.ProbeShiftRatio = 1.4
		}
		maxBlock := 1 + int(binary.LittleEndian.Uint16(data[2:4]))%pushBlockN
		xs := monitorFuzzSignal(data[4:])
		if len(xs) == 0 {
			return
		}

		ref := newOracleMonitor(cfg, rate)
		var wantEvents eventLog
		ref.obs = &wantEvents
		wantSan, wantMask, wantResyncs := ref.scan(xs)

		m := newMonitor(cfg, rate)
		var events eventLog
		m.obs = &events
		rng := sim.NewRNG(uint64(len(data)))
		san, flags, resyncs := monitorBlocks(m, xs, func() int { return 1 + rng.Intn(maxBlock) })

		ctx := fmt.Sprintf("%g MS/s, shift %g, blocks<=%d, %d samples", rate/1e6, cfg.ProbeShiftRatio, maxBlock, len(xs))
		if d := monitorDiff(san, flags, resyncs, wantSan, wantMask, wantResyncs); d != "" {
			t.Fatalf("%s: %s", ctx, d)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("%s: observer events differ\n got %v\nwant %v", ctx, events, wantEvents)
		}
		if d := monitorStateDiff(m, ref); d != "" {
			t.Fatalf("%s: %s", ctx, d)
		}
	})
}

// monitorFuzzSignal decodes fuzz bytes into at most 1<<14 samples, three
// bytes per segment: a kind, a length n and a parameter p. The signal
// starts at a busy level of 1; the level-changing kinds move it for every
// later segment.
func monitorFuzzSignal(data []byte) []float64 {
	const maxSamples = 1 << 14
	rng := sim.NewRNG(1)
	level := 1.0
	var xs []float64
	repeat := func(n int, v float64) {
		for ; n > 0; n-- {
			xs = append(xs, v)
		}
	}
	// noisy appends n samples spread over the top depth of the level, as
	// a busy signal with stalls of that depth.
	noisy := func(n int, depth float64) {
		for ; n > 0; n-- {
			xs = append(xs, level*(1-depth*rng.Float64()))
		}
	}
	for ; len(data) >= 3 && len(xs) < maxSamples; data = data[3:] {
		n, p := 1+int(data[1]), float64(data[2])
		switch data[0] % 10 {
		case 0: // dropout
			repeat(n, 0)
		case 1:
			repeat(n, math.NaN())
		case 2:
			repeat(1+n%4, math.Inf(1))
		case 3:
			repeat(1+n%4, -level*(1+p/256))
		case 4: // exact flat run, from the top of the level down to half
			repeat(1+n%16, level*(1-p/512))
		case 5: // receiver gain down
			level *= 0.2
			noisy(n, 0.1)
		case 6: // receiver gain up
			level = min(level*3.5, math.MaxFloat64)
			noisy(n, 0.1)
		case 7: // spikes around the 2.5× burst threshold, between noise
			for k := 0; k < 1+n%8; k++ {
				xs = append(xs, 2.5*level*(1+(p-64)/2048))
				noisy(1+int(p)%5, 0.1)
			}
		case 8: // a busy stretch with dips down to depth p/255
			noisy(8*n, p/255)
		case 9: // jump to the top of the float range, or back to 1
			if level > 1e300 {
				level = 1
			} else {
				level = math.MaxFloat64 / (1 + p/64)
			}
			noisy(n, 0.1)
		}
		if level == 0 {
			level = 1
		}
	}
	return xs[:min(len(xs), maxSamples)]
}
