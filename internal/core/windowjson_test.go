package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"emprof/internal/sim"
)

// rawRegion and rawWindow mirror WindowRegion and ProfileWindow without
// the custom codecs in reach, so encoding/json's reflection path is the
// reference decoder.
type rawRegion struct {
	Region      uint16  `json:"region"`
	Name        string  `json:"name,omitempty"`
	Misses      int     `json:"misses"`
	StallCycles float64 `json:"stall_cycles"`
}

type rawWindow struct {
	Index          int64       `json:"index"`
	StartSample    int64       `json:"start_sample"`
	EndSample      int64       `json:"end_sample"`
	StartS         float64     `json:"start_s"`
	EndS           float64     `json:"end_s"`
	Final          bool        `json:"final,omitempty"`
	Stalls         []rawStall  `json:"stalls"`
	Misses         int         `json:"misses"`
	RefreshStalls  int         `json:"refresh_stalls"`
	StallCycles    float64     `json:"stall_cycles"`
	MeanConfidence float64     `json:"mean_confidence"`
	Quality        Quality     `json:"quality"`
	Regions        []rawRegion `json:"regions,omitempty"`
}

func randomWindow(rng *sim.RNG) ProfileWindow {
	w := ProfileWindow{
		Index:          int64(int32(rng.Uint64())),
		StartSample:    int64(int32(rng.Uint64())),
		EndSample:      int64(int32(rng.Uint64())),
		StartS:         edgeFloats[rng.Uint64()%uint64(len(edgeFloats))],
		EndS:           edgeFloats[rng.Uint64()%uint64(len(edgeFloats))],
		Final:          rng.Uint64()%2 == 0,
		Stalls:         randomStalls(rng, int(rng.Uint64()%5)),
		Misses:         int(int32(rng.Uint64())),
		RefreshStalls:  int(int32(rng.Uint64())),
		StallCycles:    edgeFloats[rng.Uint64()%uint64(len(edgeFloats))],
		MeanConfidence: edgeFloats[rng.Uint64()%uint64(len(edgeFloats))],
		Quality: Quality{
			Samples: int64(int32(rng.Uint64())), NaNSamples: int64(int32(rng.Uint64())),
			Resyncs: int(int32(rng.Uint64())), AbortedDips: int(int32(rng.Uint64())),
		},
	}
	switch rng.Uint64() % 4 {
	case 0:
		w.Stalls = nil
	case 1:
		w.Stalls = []Stall{}
	}
	for i := uint64(0); i < rng.Uint64()%3; i++ {
		name := ""
		if rng.Uint64()%2 == 0 {
			name = "region<&>\"x\""
		}
		w.Regions = append(w.Regions, WindowRegion{
			Region: uint16(rng.Uint64()), Name: name,
			Misses:      int(int32(rng.Uint64())),
			StallCycles: edgeFloats[rng.Uint64()%uint64(len(edgeFloats))],
		})
	}
	return w
}

// TestWindowUnmarshalRoundTrip pins that decoding encoding/json's bytes
// takes the fast path and reproduces any window — nil/empty stalls,
// omitted and present final/regions/name, edge-case floats — exactly.
func TestWindowUnmarshalRoundTrip(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 2000; trial++ {
		w := randomWindow(rng)
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var back ProfileWindow
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("trial %d: round trip diverged\n got: %+v\nwant: %+v", trial, back, w)
		}
	}
}

// TestWindowUnmarshalFallback pins the decoder's tolerance: inputs the
// fast path rejects — whitespace, reordered fields — must still decode
// through the stdlib fallback exactly as a plain struct would.
func TestWindowUnmarshalFallback(t *testing.T) {
	in := `{
	  "start_sample": 10, "index": 2, "end_sample": 20,
	  "start_s": 0.5, "end_s": 1.0, "final": true,
	  "stalls": [], "misses": 1, "refresh_stalls": 0,
	  "stall_cycles": 42.5, "mean_confidence": 0.9,
	  "quality": {"Samples": 7, "NaNSamples": 0, "DroppedSamples": 0,
	    "ClippedSamples": 0, "BurstSamples": 0, "StepSamples": 0,
	    "Resyncs": 0, "AbortedDips": 0},
	  "regions": [{"region": 3, "name": "hot", "misses": 1, "stall_cycles": 42.5}]
	}`
	var w ProfileWindow
	if err := json.Unmarshal([]byte(in), &w); err != nil {
		t.Fatal(err)
	}
	if w.Index != 2 || w.StartSample != 10 || !w.Final || w.StallCycles != 42.5 {
		t.Fatalf("fallback decode wrong: %+v", w)
	}
	if len(w.Regions) != 1 || w.Regions[0].Name != "hot" {
		t.Fatalf("fallback regions wrong: %+v", w.Regions)
	}
}
