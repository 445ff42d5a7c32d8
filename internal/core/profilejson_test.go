package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"emprof/internal/jsonfast"
	"emprof/internal/sim"
)

// rawProfile mirrors Profile with the stall codec replaced by the plain
// struct slice, so encoding/json's reflection path is a reference
// decoder untouched by any custom codec.
type rawProfile struct {
	Stalls              []rawStall
	Misses              int
	RefreshStalls       int
	StallCycles         float64
	ExecCycles          float64
	SampleRate, ClockHz float64
	Normalized          []float64
	Quality             Quality
}

func randomProfile(rng *sim.RNG) *Profile {
	pick := func() float64 {
		if rng.Uint64()%4 == 0 {
			return edgeFloats[rng.Uint64()%uint64(len(edgeFloats))]
		}
		for {
			v := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	p := &Profile{
		Stalls:        randomStalls(rng, int(rng.Uint64()%5)),
		Misses:        int(int32(rng.Uint64())),
		RefreshStalls: int(int32(rng.Uint64())),
		StallCycles:   pick(),
		ExecCycles:    pick(),
		SampleRate:    pick(),
		ClockHz:       pick(),
		Quality: Quality{
			Samples:        int64(rng.Uint64() % (1 << 40)),
			NaNSamples:     int64(int32(rng.Uint64())),
			DroppedSamples: int64(int32(rng.Uint64())),
			ClippedSamples: int64(int32(rng.Uint64())),
			BurstSamples:   int64(int32(rng.Uint64())),
			StepSamples:    int64(int32(rng.Uint64())),
			Resyncs:        int(int32(rng.Uint64())),
			AbortedDips:    int(int32(rng.Uint64())),
		},
	}
	switch rng.Uint64() % 3 {
	case 0: // nil Normalized
	case 1:
		p.Normalized = []float64{}
	default:
		p.Normalized = make([]float64, rng.Uint64()%7)
		for i := range p.Normalized {
			p.Normalized[i] = pick()
		}
	}
	return p
}

// TestProfileUnmarshalRoundTrip pins that decoding recovers every field
// bit-exactly on the fast path and that the stdlib fallback engages for
// whitespace, reordered fields, and unknown fields.
func TestProfileUnmarshalRoundTrip(t *testing.T) {
	rng := sim.NewRNG(123)
	for i := 0; i < 300; i++ {
		p := randomProfile(rng)
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		// The stdlib's compact shape must take the fast path outright.
		r := jsonfast.NewReader(blob)
		if ReadProfile(&r); !r.Done() {
			t.Fatalf("profile %d: fast path rejected encoding/json's output: %s", i, blob)
		}
		var back Profile
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		if !profilesBitEqual(p, &back) {
			t.Fatalf("profile %d: round trip not bit-exact\nin:  %+v\nout: %+v", i, p, &back)
		}
		// And with a trailing newline, as the service frames responses.
		var back2 Profile
		if err := back2.UnmarshalJSON(append(blob, '\n')); err != nil {
			t.Fatalf("profile %d: newline-framed: %v", i, err)
		}
		if !profilesBitEqual(p, &back2) {
			t.Fatalf("profile %d: newline-framed round trip differs", i)
		}
	}

	// Tolerant fallback: inputs only the stdlib path accepts.
	want := Profile{Misses: 7, SampleRate: 4e7, Quality: Quality{Samples: 9}}
	for _, in := range []string{
		`{ "Misses" : 7 , "SampleRate" : 4e+07 , "Quality" : { "Samples" : 9 } }`,
		`{"Quality":{"Samples":9},"SampleRate":4e+07,"Misses":7}`,
		`{"Misses":7,"SampleRate":4e+07,"Quality":{"Samples":9},"FutureField":[1,2]}`,
	} {
		var got Profile
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatalf("fallback input %q: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback input %q: got %+v want %+v", in, got, want)
		}
	}
}

func profilesBitEqual(a, b *Profile) bool {
	if len(a.Stalls) != len(b.Stalls) || (a.Stalls == nil) != (b.Stalls == nil) {
		return false
	}
	for i := range a.Stalls {
		x, y := a.Stalls[i], b.Stalls[i]
		if x.StartSample != y.StartSample || x.EndSample != y.EndSample || x.Refresh != y.Refresh ||
			math.Float64bits(x.StartS) != math.Float64bits(y.StartS) ||
			math.Float64bits(x.DurationS) != math.Float64bits(y.DurationS) ||
			math.Float64bits(x.Cycles) != math.Float64bits(y.Cycles) ||
			math.Float64bits(x.Depth) != math.Float64bits(y.Depth) ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) {
			return false
		}
	}
	if len(a.Normalized) != len(b.Normalized) || (a.Normalized == nil) != (b.Normalized == nil) {
		return false
	}
	for i := range a.Normalized {
		if math.Float64bits(a.Normalized[i]) != math.Float64bits(b.Normalized[i]) {
			return false
		}
	}
	return a.Misses == b.Misses && a.RefreshStalls == b.RefreshStalls &&
		math.Float64bits(a.StallCycles) == math.Float64bits(b.StallCycles) &&
		math.Float64bits(a.ExecCycles) == math.Float64bits(b.ExecCycles) &&
		math.Float64bits(a.SampleRate) == math.Float64bits(b.SampleRate) &&
		math.Float64bits(a.ClockHz) == math.Float64bits(b.ClockHz) &&
		a.Quality == b.Quality
}
