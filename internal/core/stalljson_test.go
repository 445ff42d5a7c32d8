package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"emprof/internal/sim"
)

// rawStall mirrors Stall without the StallList codec in reach, so
// encoding/json's reflection path is the reference decoder.
type rawStall struct {
	StartSample, EndSample int
	StartS                 float64
	DurationS              float64
	Cycles                 float64
	Depth                  float64
	Refresh                bool
	Confidence             float64
}

// edgeFloats are values that stress float formatting and parsing:
// the f/e switchover thresholds, subnormals, negative zero, shortest-
// round-trip ties, and typical profile magnitudes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0,
	1e-6, 9.999999e-7, 1e-7, 1e21, 9.999999e20, 1e22, -1e21, -1e-7,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1e-9, 2.5e-15, 123456789.123456789, 5e-324, 1.7976931348623157e308,
	0.30000000000000004, 42.125, 1e20, 1e6,
}

func randomStalls(rng *sim.RNG, n int) StallList {
	pick := func() float64 {
		if rng.Uint64()%4 == 0 {
			return edgeFloats[rng.Uint64()%uint64(len(edgeFloats))]
		}
		// A random finite float64 via random bits.
		for {
			v := math.Float64frombits(rng.Uint64())
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	out := make(StallList, n)
	for i := range out {
		out[i] = Stall{
			StartSample: int(int32(rng.Uint64())),
			EndSample:   int(int32(rng.Uint64())),
			StartS:      pick(),
			DurationS:   pick(),
			Cycles:      pick(),
			Depth:       pick(),
			Refresh:     rng.Uint64()%2 == 0,
			Confidence:  pick(),
		}
	}
	return out
}

// TestStallListUnmarshalRoundTrip pins that decoding recovers every
// value bit-exactly on the fast path, and that the stdlib fallback
// engages for whitespace, reordered fields, and unknown fields.
func TestStallListUnmarshalRoundTrip(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		sl := randomStalls(rng, int(rng.Uint64()%6))
		blob, err := json.Marshal(sl)
		if err != nil {
			t.Fatal(err)
		}
		var back StallList
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if len(back) != len(sl) {
			t.Fatalf("list %d: length %d != %d", i, len(back), len(sl))
		}
		for j := range sl {
			if sl[j].Refresh != back[j].Refresh ||
				sl[j].StartSample != back[j].StartSample || sl[j].EndSample != back[j].EndSample ||
				math.Float64bits(sl[j].StartS) != math.Float64bits(back[j].StartS) ||
				math.Float64bits(sl[j].DurationS) != math.Float64bits(back[j].DurationS) ||
				math.Float64bits(sl[j].Cycles) != math.Float64bits(back[j].Cycles) ||
				math.Float64bits(sl[j].Depth) != math.Float64bits(back[j].Depth) ||
				math.Float64bits(sl[j].Confidence) != math.Float64bits(back[j].Confidence) {
				t.Fatalf("list %d stall %d: round trip not bit-exact\nin:  %+v\nout: %+v", i, j, sl[j], back[j])
			}
		}
	}

	// Tolerant fallback: inputs only the stdlib path accepts.
	want := StallList{{StartSample: 3, EndSample: 9, DurationS: 0.5, Refresh: true, Confidence: 1}}
	for _, in := range []string{
		` [ { "StartSample" : 3 , "EndSample" : 9 , "DurationS" : 0.5 , "Refresh" : true , "Confidence" : 1 } ] `,
		`[{"Confidence":1,"Refresh":true,"DurationS":0.5,"EndSample":9,"StartSample":3}]`,
		`[{"StartSample":3,"EndSample":9,"DurationS":0.5,"Refresh":true,"Confidence":1,"FutureField":"x"}]`,
	} {
		var got StallList
		if err := json.Unmarshal([]byte(in), &got); err != nil {
			t.Fatalf("fallback input %q: %v", in, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback input %q: got %+v want %+v", in, got, want)
		}
	}
	// Nil round-trips as null.
	var nilList StallList
	blob, _ := json.Marshal(nilList)
	if string(blob) != "null" {
		t.Fatalf("nil list encodes as %s", blob)
	}
	var back StallList
	if err := json.Unmarshal(blob, &back); err != nil || back != nil {
		t.Fatalf("null decodes to %v (%v)", back, err)
	}
}
