package em

import (
	"math"
	"testing"

	"emprof/internal/sim"
)

// blockConfigs are the receiver variants the block-equivalence tests sweep:
// the clean SESC-style proxy, a noisy receiver, drift-only, and the full
// impairment chain at a non-integer clock/bandwidth ratio.
func blockConfigs() []ReceiverConfig {
	clean := cleanConfig()
	noisy := clean
	noisy.SNRdB = 15
	noisy.Seed = 7
	drifty := clean
	drifty.DriftDepth = 0.2
	drifty.DriftPeriodS = 1e-4
	full := ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  40e6, // decim = round(25) — and 1e9/40e6 = 25 exactly; vary below
		ProbeGain:    3.3,
		SNRdB:        12,
		DriftPeriodS: 5e-5,
		DriftDepth:   0.15,
		Seed:         99,
	}
	ragged := full
	ragged.BandwidthHz = 37e6 // 1e9/37e6 ≈ 27.03 → decim 27, ragged windows
	return []ReceiverConfig{clean, noisy, drifty, full, ragged}
}

// stallySeries builds a busy/stall per-cycle power pattern.
func stallySeries(n int, seed uint64) []float64 {
	rng := sim.NewRNG(seed)
	s := make([]float64, n)
	busy := true
	left := 50
	for i := range s {
		if left == 0 {
			busy = !busy
			if busy {
				left = 30 + rng.Intn(120)
			} else {
				left = 5 + rng.Intn(40)
			}
		}
		left--
		if busy {
			s[i] = 1 + 0.3*rng.Float64()
		} else {
			s[i] = 0.25
		}
	}
	return s
}

// pushSplits feeds cycles through the receiver in PushBlock calls of
// deterministic pseudo-random sizes: mostly up to 2,000 cycles, one call
// in four of 0–2 cycles, so empty blocks and blocks of one are included.
func pushSplits(r *Receiver, cycles []float64, seed uint64) {
	rng := sim.NewRNG(seed)
	pos := 0
	for pos < len(cycles) {
		n := rng.Intn(2000)
		if rng.Intn(4) == 0 {
			n = rng.Intn(3)
		}
		n = min(n, len(cycles)-pos)
		r.PushBlock(cycles[pos : pos+n])
		pos += n
	}
}

// refCapture runs cycles through the per-cycle oracle.
func refCapture(cfg ReceiverConfig, cycles []float64) []float64 {
	ref := newRefReceiver(cfg)
	for _, p := range cycles {
		ref.PushCycle(p)
	}
	ref.Flush()
	return ref.Samples()
}

// TestPushBlockBitIdenticalToPushCycle is the receiver's core property:
// for every receiver configuration and every block split — including
// splits that leave partial integration windows open and cross RBW filter
// state — the capture must equal the per-cycle oracle's bit for bit.
func TestPushBlockBitIdenticalToPushCycle(t *testing.T) {
	cycles := stallySeries(60000, 3)
	for ci, cfg := range blockConfigs() {
		want := refCapture(cfg, cycles)

		for split := uint64(1); split <= 6; split++ {
			r := MustNewReceiver(cfg)
			pushSplits(r, cycles, split)
			r.Flush()
			got := r.Capture().Samples
			if len(got) != len(want) {
				t.Fatalf("cfg %d split %d: %d samples, want %d", ci, split, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cfg %d split %d sample %d: got %v, want %v (bitwise)",
						ci, split, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPushBlockImpairedSeries repeats the equivalence with a hostile input
// series: NaN, Inf, zeros and huge magnitudes (as a fault-impaired power
// proxy would contain). The block path must not diverge or panic.
func TestPushBlockImpairedSeries(t *testing.T) {
	n := 10000
	cycles := make([]float64, n)
	rng := sim.NewRNG(11)
	for i := range cycles {
		switch rng.Intn(8) {
		case 0:
			cycles[i] = math.NaN()
		case 1:
			cycles[i] = math.Inf(1)
		case 2:
			cycles[i] = 0
		case 3:
			cycles[i] = 1e300
		default:
			cycles[i] = rng.Float64()
		}
	}
	for ci, cfg := range blockConfigs() {
		want := refCapture(cfg, cycles)

		r := MustNewReceiver(cfg)
		pushSplits(r, cycles, 5)
		r.Flush()
		got := r.Capture().Samples
		if len(got) != len(want) {
			t.Fatalf("cfg %d: %d samples, want %d", ci, len(got), len(want))
		}
		for i := range want {
			same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i]))
			if !same {
				t.Fatalf("cfg %d sample %d: got %v, want %v", ci, i, got[i], want[i])
			}
		}
	}
}

// TestSynthesizeFromSeriesMatchesPerCycle pins the block-batched series
// synthesis against the per-cycle oracle.
func TestSynthesizeFromSeriesMatchesPerCycle(t *testing.T) {
	series := stallySeries(3000, 17)
	for _, cpv := range []int{1, 7, 25, 5000} {
		for ci, cfg := range blockConfigs() {
			ref := newRefReceiver(cfg)
			for _, v := range series {
				for c := 0; c < cpv; c++ {
					ref.PushCycle(v)
				}
			}
			ref.Flush()
			want := &Capture{Samples: ref.Samples()}

			got, err := SynthesizeFromSeries(series, cpv, cfg)
			if err != nil {
				t.Fatalf("cfg %d cpv %d: %v", ci, cpv, err)
			}
			if len(got.Samples) != len(want.Samples) {
				t.Fatalf("cfg %d cpv %d: %d samples, want %d", ci, cpv, len(got.Samples), len(want.Samples))
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Fatalf("cfg %d cpv %d sample %d: got %v, want %v",
						ci, cpv, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// BenchmarkSynthesisReceiver times the receiver on a noisy configuration
// in the 4,096-cycle blocks the processor model hands over (the embench
// harness and CI regression gate measure the same pipeline end to end).
func BenchmarkSynthesisReceiver(b *testing.B) {
	cfg := ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  40e6,
		ProbeGain:    2,
		SNRdB:        15,
		DriftPeriodS: 1e-4,
		DriftDepth:   0.1,
		Seed:         1,
	}
	cycles := stallySeries(1<<20, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := MustNewReceiver(cfg)
		for pos := 0; pos < len(cycles); pos += 4096 {
			r.PushBlock(cycles[pos:min(pos+4096, len(cycles))])
		}
		r.Flush()
	}
	b.SetBytes(int64(8 * len(cycles)))
}

// TestPushBlockEdges pushes every block size from 0 to 2·decim+1 in turn
// and flushes in the middle of windows, so empty blocks, blocks that only
// extend an open window, blocks that close one, blocks of one and
// mid-window Flush calls are all compared with the per-cycle oracle bit
// for bit. It covers decimation 1 and 25, the noisy and noise-free
// (SNRdB = +Inf) chains and a displaced probe.
func TestPushBlockEdges(t *testing.T) {
	noisy := ReceiverConfig{ClockHz: 1e9, BandwidthHz: 40e6, ProbeGain: 2, SNRdB: 15,
		DriftPeriodS: 1e-5, DriftDepth: 0.1, Seed: 5}
	clean := noisy
	clean.SNRdB = math.Inf(1)
	displaced := noisy
	displaced.Position = ProbePosition{XMM: 1.5, YMM: -0.5, OrientationDeg: 20}
	cycles := stallySeries(4096, 21)
	for _, bw := range []float64{1e9, 40e6} { // decimation 1 and 25
		for ci, base := range []ReceiverConfig{noisy, clean, displaced} {
			cfg := base
			cfg.BandwidthHz = bw
			r, ref := MustNewReceiver(cfg), newRefReceiver(cfg)
			d := r.DecimationFactor()
			pos, midFlush := 0, false
			for size := 0; size <= 2*d+1; size++ {
				blk := cycles[pos : pos+size]
				pos += size
				r.PushBlock(blk)
				for _, p := range blk {
					ref.PushCycle(p)
				}
				if size%3 == 2 {
					midFlush = midFlush || r.n > 0
					r.Flush()
					ref.Flush()
				}
			}
			r.Flush()
			ref.Flush()
			if d > 1 && !midFlush {
				t.Fatalf("decim %d cfg %d: no flush landed inside a window", d, ci)
			}
			got, want := r.Capture().Samples, ref.Samples()
			if len(got) != len(want) {
				t.Fatalf("decim %d cfg %d: %d samples, want %d", d, ci, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("decim %d cfg %d sample %d: got %v, want %v", d, ci, i, got[i], want[i])
				}
			}
		}
	}
}
