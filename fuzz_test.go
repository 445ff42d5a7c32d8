package emprof

import (
	"encoding/binary"
	"math"
	"testing"

	"emprof/internal/core"
)

// fuzzConfigs are the profiler configurations the fuzzer cycles through:
// the default plus variants stressing the short-window, no-smoothing and
// tight-threshold corners. All must validate.
func fuzzConfigs() []Config {
	base := DefaultConfig()
	narrow := base
	narrow.NormWindowS = 5e-6
	mid := base
	mid.NormWindowS = 50e-6
	raw := base
	raw.SmoothSamples = 1
	smooth := base
	smooth.SmoothSamples = 5
	tight := base
	tight.EnterThreshold = 0.2
	tight.ExitThreshold = 0.3
	// Probe-shift detection armed, alone and on the short window, so the
	// fuzzer exercises the shift tracker's interaction with every other
	// monitor path.
	shift := base
	shift.ProbeShiftRatio = 1.4
	shiftNarrow := narrow
	shiftNarrow.ProbeShiftRatio = 1.2
	return []Config{base, narrow, mid, raw, smooth, tight, shift, shiftNarrow}
}

// FuzzAnalyze feeds arbitrary sample data and config permutations through
// the batch, streaming, and parallel analyzers — optionally routing the
// capture through the probe drift+bump fault injector first, so the
// position-adaptive resync path sees adversarial inputs too. None may
// ever panic — including on NaN/Inf garbage — and all three must agree
// exactly at every capture length, shorter than a normalisation window
// included. The parallel analyzer runs with a deliberately tiny chunk
// size so fuzz-sized inputs actually shard instead of falling back to
// the sequential path.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(1), false)
	// A busy level with one dip, in raw float bytes.
	seed := make([]byte, 0, 1024*8)
	var b [8]byte
	for i := 0; i < 1024; i++ {
		v := 1.0
		if i >= 500 && i < 520 {
			v = 0.05
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		seed = append(seed, b[:]...)
	}
	f.Add(seed, uint8(1), false)
	// The same dip capture through the probe faults with the shift
	// detector armed (config 6).
	f.Add(seed, uint8(6), true)
	// A bump-shaped capture: busy level halves at the midpoint, the exact
	// shape the probe-shift resync exists for.
	bump := make([]byte, 0, 2048*8)
	for i := 0; i < 2048; i++ {
		v := 1.0
		if i >= 1024 {
			v = 1.0 / 2.35
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		bump = append(bump, b[:]...)
	}
	f.Add(bump, uint8(7), false)
	// Non-finite and zero patterns.
	nasty := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
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
	f.Add(nasty, uint8(3), true)

	cfgs := fuzzConfigs()
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, probeFault bool) {
		n := len(data) / 8
		if n > 1<<15 {
			n = 1 << 15
		}
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		cfg := cfgs[int(sel)%len(cfgs)]
		const sampleRate, clockHz = 40e6, 1e9
		c := &Capture{Samples: samples, SampleRate: sampleRate, ClockHz: clockHz}
		if probeFault && n > 0 {
			out, _, err := InjectFaults(c, FaultSpec{
				ProbeDriftMM: 0.8,
				ProbeBumpMM:  1.75,
				ProbeBumpAtS: float64(n/2) / sampleRate,
				Seed:         uint64(sel) + 1,
			})
			if err != nil {
				t.Fatalf("InjectFaults: %v", err)
			}
			c = out
		}

		pb, err := runAnalyzer(c, cfg)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		ps, err := runAnalyzer(c, cfg, WithStreaming())
		if err != nil {
			t.Fatalf("streaming: %v", err)
		}
		pp := core.MustNewAnalyzer(cfg).ProfileParallel(c, core.ParallelOptions{
			Workers: 3, ChunkSamples: 1024,
		})
		for _, other := range []struct {
			name string
			p    *Profile
		}{{"stream", ps}, {"parallel", pp}} {
			if !sameProfile(pb, other.p) {
				t.Fatalf("batch/%s diverged (n=%d cfg=%d):\nbatch: %d/%d %v %+v\n%s: %d/%d %v %+v",
					other.name, n, int(sel)%len(cfgs),
					pb.Misses, pb.RefreshStalls, pb.Quality, pb.Stalls,
					other.name, other.p.Misses, other.p.RefreshStalls, other.p.Quality, other.p.Stalls)
			}
		}
	})
}

// sameProfile compares two profiles field by field; a NaN confidence or
// depth (possible on garbage input) compares equal to itself.
func sameProfile(a, b *Profile) bool {
	if a.Misses != b.Misses || a.RefreshStalls != b.RefreshStalls || a.Quality != b.Quality ||
		!sameFloat(a.StallCycles, b.StallCycles) || !sameFloat(a.ExecCycles, b.ExecCycles) ||
		len(a.Stalls) != len(b.Stalls) {
		return false
	}
	for i, s := range a.Stalls {
		o := b.Stalls[i]
		if s.StartSample != o.StartSample || s.EndSample != o.EndSample || s.Refresh != o.Refresh ||
			!sameFloat(s.StartS, o.StartS) || !sameFloat(s.DurationS, o.DurationS) || !sameFloat(s.Cycles, o.Cycles) ||
			!sameFloat(s.Depth, o.Depth) || !sameFloat(s.Confidence, o.Confidence) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
