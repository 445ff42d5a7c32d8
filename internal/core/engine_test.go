package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"emprof/internal/em"
	"emprof/internal/sim"
)

// blockConfigs are the configurations the engine is checked under:
// smoothing on and off, wider smoothing (bigger group delay), probe-shift
// armed (extra resync source), and a tiny normalisation window
// (half-window of 4, so retroactive flag patches and pending drains hit
// their boundaries constantly).
func blockConfigs() map[string]Config {
	configs := map[string]Config{}
	configs["default"] = DefaultConfig()
	raw := DefaultConfig()
	raw.SmoothSamples = 1
	configs["unsmoothed"] = raw
	wide := DefaultConfig()
	wide.SmoothSamples = 5
	configs["wide-smooth"] = wide
	shift := DefaultConfig()
	shift.ProbeShiftRatio = 1.4
	configs["probe-shift"] = shift
	tiny := DefaultConfig()
	tiny.NormWindowS = 8 / 40e6 // w == 8, the floor
	configs["tiny-window"] = tiny
	return configs
}

// blockSeries builds an impaired stream: genuine stalls plus dropped
// runs, clipping bursts, a gain step, a probe displacement, and NaN
// spikes — every path that sets flags, patches them retroactively, or
// schedules resyncs.
func blockSeries(n int, seed uint64) []float64 {
	c := synthCapture(n, map[int]int{n / 8: 12, n / 3: 40, 2 * n / 3: 12}, 0.1, 1, 0.02, seed)
	s := c.Samples
	rng := sim.NewRNG(seed + 99)
	for i := n / 6; i < n/6+300 && i < n; i++ {
		s[i] = 0 // dropped-sample run
	}
	for i := n / 2; i < n/2+4 && i < n; i++ {
		s[i] = 6.0 // clipping burst
	}
	for i := 3 * n / 4; i < n; i++ {
		s[i] *= 2.5 // gain step (resync)
	}
	if n > 40 {
		s[n/4] = math.NaN()
		s[n/4+1] = math.Inf(1)
	}
	// Sporadic single-sample corruption.
	for k := 0; k < n/500; k++ {
		s[int(rng.Uint64()%uint64(n))] = 0
	}
	return s
}

// blockProfile feeds xs via PushBlock over the given split points (each
// entry is a block length; 0 means an empty block) and finalizes.
func blockProfile(t *testing.T, cfg Config, xs []float64, splits []int) (*Profile, *StreamState) {
	t.Helper()
	s, err := NewStreamAnalyzer(cfg, 40e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	rest := xs
	for _, k := range splits {
		if k > len(rest) {
			k = len(rest)
		}
		s.PushBlock(rest[:k])
		rest = rest[k:]
	}
	s.PushBlock(rest)
	mid := s.ExportState()
	return s.Finalize(), mid
}

// TestPushBlockEquivalentToPushLoop: PushBlock over ANY split of the
// stream — including single-sample, empty, and larger-than-chunk blocks —
// produces the oracle's profile and leaves the same internal state as a
// loop of one-sample Push calls, across smoothing, probe-shift, and
// window configurations, on an impaired stream exercising flags and
// resyncs.
func TestPushBlockEquivalentToPushLoop(t *testing.T) {
	const n = 30000
	for name, cfg := range blockConfigs() {
		t.Run(name, func(t *testing.T) {
			xs := blockSeries(n, 21)
			ref, err := NewStreamAnalyzer(cfg, 40e6, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				ref.Push(x)
			}
			refState := ref.ExportState()
			want := oracleProfile(cfg, &em.Capture{Samples: xs, SampleRate: 40e6, ClockHz: 1e9}, false)
			if got := ref.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatal("Push loop profile differs from the oracle")
			}

			rng := sim.NewRNG(77)
			cases := [][]int{
				{},                    // one giant block (> pushBlockN)
				{0, 1, 0, 2, 3},       // tiny and empty blocks up front
				{pushBlockN},          // exactly one chunk
				{pushBlockN - 1, 2},   // chunk boundary straddles
				{pushBlockN + 1, 500}, // just past a chunk
			}
			for c := 0; c < 4; c++ {
				var sp []int
				for tot := 0; tot < n/2; {
					k := int(rng.Uint64() % 1000)
					sp = append(sp, k)
					tot += k
				}
				cases = append(cases, sp)
			}
			for ci, sp := range cases {
				got, midState := blockProfile(t, cfg, xs, sp)
				if !reflect.DeepEqual(got, want) {
					gb, _ := json.Marshal(got)
					wb, _ := json.Marshal(want)
					t.Fatalf("case %d: block profile differs\n got: %s\nwant: %s", ci, gb, wb)
				}
				// The internal state at end-of-stream must match too, so a
				// hand-off from a block-fed analyzer resumes identically.
				if !reflect.DeepEqual(midState, refState) {
					t.Fatalf("case %d: exported state differs", ci)
				}
			}
		})
	}
}

// TestPushBlockInterleavedWithPush pins that per-sample and block pushes
// can be mixed freely on one analyzer — the service falls back to Push
// for partial-word tails mid-stream.
func TestPushBlockInterleavedWithPush(t *testing.T) {
	const n = 20000
	xs := blockSeries(n, 5)
	cfg := DefaultConfig()
	want := oracleProfile(cfg, &em.Capture{Samples: xs, SampleRate: 40e6, ClockHz: 1e9}, false)

	s, err := NewStreamAnalyzer(cfg, 40e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(123)
	for i := 0; i < n; {
		if rng.Uint64()%2 == 0 {
			k := int(rng.Uint64() % 700)
			if i+k > n {
				k = n - i
			}
			s.PushBlock(xs[i : i+k])
			i += k
		} else {
			s.Push(xs[i])
			i++
		}
	}
	got := s.Finalize()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("interleaved Push/PushBlock profile differs from the oracle")
	}
}

// TestPushBlockHandoffMidBlock pins the fleet property on the block
// path: exporting after a block push and resuming elsewhere continues
// bit-identically, including through a JSON round trip of the state.
func TestPushBlockHandoffMidBlock(t *testing.T) {
	const n = 24000
	xs := blockSeries(n, 9)
	for name, cfg := range blockConfigs() {
		t.Run(name, func(t *testing.T) {
			want := oracleProfile(cfg, &em.Capture{Samples: xs, SampleRate: 40e6, ClockHz: 1e9}, false)
			for _, k := range []int{1, 37, n / 3, n / 2, n - 1} {
				a, err := NewStreamAnalyzer(cfg, 40e6, 1e9)
				if err != nil {
					t.Fatal(err)
				}
				a.PushBlock(xs[:k])
				blob, err := json.Marshal(a.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				var wire StreamState
				if err := json.Unmarshal(blob, &wire); err != nil {
					t.Fatal(err)
				}
				b, err := ResumeStreamAnalyzer(&wire)
				if err != nil {
					t.Fatalf("resume at k=%d: %v", k, err)
				}
				b.PushBlock(xs[k:])
				if got := b.Finalize(); !reflect.DeepEqual(got, want) {
					t.Fatalf("hand-off at k=%d: block profile differs", k)
				}
			}
		})
	}
}
