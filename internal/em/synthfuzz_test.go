package em_test

import (
	"encoding/binary"
	"math"
	"testing"

	"emprof/internal/em"
	"emprof/internal/faults"
	"emprof/internal/sim"
)

// fuzzReceiverConfigs are the receiver variants the synthesis fuzzer picks
// from: clean proxy, noisy, drift-only, and the full impairment chain at a
// ragged (non-divisor) decimation.
func fuzzReceiverConfigs() []em.ReceiverConfig {
	clean := em.ReceiverConfig{ClockHz: 1e9, BandwidthHz: 50e6, ProbeGain: 1, SNRdB: math.Inf(1)}
	noisy := clean
	noisy.SNRdB = 12
	noisy.Seed = 5
	drifty := clean
	drifty.DriftDepth = 0.25
	drifty.DriftPeriodS = 1e-4
	full := em.ReceiverConfig{
		ClockHz:      1e9,
		BandwidthHz:  37e6, // decim 27: blocks never align with windows
		ProbeGain:    2.7,
		SNRdB:        14,
		DriftPeriodS: 7e-5,
		DriftDepth:   0.1,
		Seed:         31,
	}
	// The full chain with the probe displaced and tilted, so the spatial
	// coupling stage (blur + leak + gain) is in the block/oracle
	// equivalence loop too.
	displaced := full
	displaced.Position = em.ProbePosition{XMM: 1.5, YMM: -0.5, OrientationDeg: 20}
	return []em.ReceiverConfig{clean, noisy, drifty, full, displaced}
}

// FuzzSynthesisBlock feeds arbitrary per-cycle power series — optionally
// routed through the acquisition fault injector first, so NaN/Inf/dropout
// patterns are exercised — through the per-cycle oracle receiver and
// through the Receiver in PushBlock calls whose sizes are derived from the
// fuzzed split seed (empty blocks and blocks of one included). The two
// captures must be bit-identical (NaN compares equal to NaN) for every
// input, every split, and every receiver configuration.
func FuzzSynthesisBlock(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint8(0), false)
	var b [8]byte
	busy := make([]byte, 0, 4096*8)
	for i := 0; i < 4096; i++ {
		v := 1.2
		if i%700 > 600 {
			v = 0.25 // stall dip
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		busy = append(busy, b[:]...)
	}
	f.Add(busy, uint64(3), uint8(1), false)
	f.Add(busy, uint64(7), uint8(3), true)
	nasty := make([]byte, 0, 256*8)
	for i := 0; i < 256; i++ {
		v := math.NaN()
		switch i % 4 {
		case 1:
			v = math.Inf(1)
		case 2:
			v = 0
		case 3:
			v = 1e300
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		nasty = append(nasty, b[:]...)
	}
	f.Add(nasty, uint64(11), uint8(2), true)

	cfgs := fuzzReceiverConfigs()
	f.Fuzz(func(t *testing.T, data []byte, split uint64, sel uint8, impaired bool) {
		n := len(data) / 8
		if n > 1<<14 {
			n = 1 << 14
		}
		series := make([]float64, n)
		for i := range series {
			series[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		if impaired && n > 0 {
			c := &em.Capture{Samples: series, SampleRate: 40e6, ClockHz: 1e9}
			out, _, err := faults.Apply(c, faults.Spec{
				DropoutRate:   0.01,
				GainStepsPerS: 2000,
				DriftDepth:    0.2,
				BurstRate:     0.01,
				NaNRate:       0.005,
				ProbeDriftMM:  0.6,
				ProbeBumpMM:   1.2,
				ProbeBumpAtS:  float64(n/2) / 40e6,
				Seed:          split ^ 0xbeef,
			})
			if err != nil {
				t.Fatalf("faults.Apply: %v", err)
			}
			series = out.Samples
		}
		cfg := cfgs[int(sel)%len(cfgs)]

		ref := em.NewRefReceiver(cfg)
		for _, p := range series {
			ref.PushCycle(p)
		}
		ref.Flush()
		want := ref.Samples()

		r := em.MustNewReceiver(cfg)
		rng := sim.NewRNG(split)
		pos := 0
		for pos < len(series) {
			k := rng.Intn(1500)
			if rng.Intn(4) == 0 {
				k = rng.Intn(3)
			}
			k = min(k, len(series)-pos)
			r.PushBlock(series[pos : pos+k])
			pos += k
		}
		r.Flush()
		got := r.Capture().Samples

		if len(got) != len(want) {
			t.Fatalf("block path emitted %d samples, oracle %d (n=%d cfg=%d)",
				len(got), len(want), n, int(sel)%len(cfgs))
		}
		for i := range want {
			same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i]))
			if !same {
				t.Fatalf("sample %d: block %v, oracle %v (n=%d cfg=%d split=%d)",
					i, got[i], want[i], n, int(sel)%len(cfgs), split)
			}
		}
	})
}
