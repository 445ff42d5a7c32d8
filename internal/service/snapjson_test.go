package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"emprof/internal/core"
	"emprof/internal/sim"
)

func randomSnapshot(rng *sim.RNG) *Snapshot {
	ids := []string{"s1", "bench-0042", "", "weird id", `esc"ape`, "emoji-✓", "a<b&c>d", "tab\tchar"}
	s := &Snapshot{
		ID:              ids[rng.Uint64()%uint64(len(ids))],
		State:           "active",
		SamplesIngested: int64(rng.Uint64() % (1 << 40)),
		SamplesDecided:  int64(rng.Uint64() % (1 << 40)),
		BytesIngested:   int64(rng.Uint64() % (1 << 50)),
		MeanConfidence:  float64(rng.Uint64()%1000) / 1000,
	}
	if rng.Uint64()%2 == 0 {
		s.Device = ids[rng.Uint64()%uint64(len(ids))]
	}
	if rng.Uint64()%2 == 0 {
		s.State = "finalized"
	}
	for i := range s.ConfidenceHist {
		s.ConfidenceHist[i] = int(rng.Uint64() % 5000)
	}
	if rng.Uint64()%4 != 0 {
		prof := &core.Profile{
			Stalls:      core.StallList{},
			SampleRate:  4e7,
			ClockHz:     1e9,
			ExecCycles:  float64(rng.Uint64() % (1 << 30)),
			StallCycles: 1.0 / 3.0,
			Quality:     core.Quality{Samples: int64(rng.Uint64() % (1 << 32))},
		}
		for k := uint64(0); k < rng.Uint64()%4; k++ {
			prof.Stalls = append(prof.Stalls, core.Stall{
				StartSample: int(rng.Uint64() % 100000),
				EndSample:   int(rng.Uint64() % 100000),
				StartS:      float64(rng.Uint64()%100000) / 4e7,
				DurationS:   2.5e-7,
				Cycles:      250,
				Depth:       0.77,
				Refresh:     rng.Uint64()%2 == 0,
				Confidence:  0.9,
			})
		}
		if rng.Uint64()%5 == 0 {
			prof.Stalls = nil
		}
		s.Profile = prof
	}
	return s
}

// rawStall, rawProfile and rawSnapshot mirror core.Stall, core.Profile
// and Snapshot without any custom codec in reach, so encoding/json's
// reflection path is the reference decoder.
type rawStall struct {
	StartSample, EndSample int
	StartS                 float64
	DurationS              float64
	Cycles                 float64
	Depth                  float64
	Refresh                bool
	Confidence             float64
}

type rawProfile struct {
	Stalls              []rawStall
	Misses              int
	RefreshStalls       int
	StallCycles         float64
	ExecCycles          float64
	SampleRate, ClockHz float64
	Normalized          []float64
	Quality             core.Quality
}

type rawSnapshot struct {
	ID              string      `json:"id"`
	Device          string      `json:"device,omitempty"`
	State           string      `json:"state"`
	SamplesIngested int64       `json:"samples_ingested"`
	SamplesDecided  int64       `json:"samples_decided"`
	BytesIngested   int64       `json:"bytes_ingested"`
	Profile         *rawProfile `json:"profile"`
	MeanConfidence  float64     `json:"mean_confidence"`
	ConfidenceHist  [10]int     `json:"confidence_hist"`
}

// TestSnapshotUnmarshalRoundTrip pins decode correctness over both
// paths: the compact wire shape round-trips exactly (with and without
// the response framing newline), and whitespace or reordered fields
// fall back to the stdlib decoder.
func TestSnapshotUnmarshalRoundTrip(t *testing.T) {
	rng := sim.NewRNG(77)
	for i := 0; i < 300; i++ {
		s := randomSnapshot(rng)
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := back.UnmarshalJSON(append(blob, '\n')); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !snapshotsEqual(s, &back) {
			t.Fatalf("snapshot %d: round trip differs\nin:  %+v\nout: %+v", i, s, &back)
		}
	}

	in := `{"state":"active","id":"x","samples_ingested":1,"samples_decided":2,` +
		`"bytes_ingested":3,"profile":null,"mean_confidence":0.5,` +
		`"confidence_hist":[0,1,2,3,4,5,6,7,8,9],"future_field":true}`
	var got Snapshot
	if err := json.Unmarshal([]byte(in), &got); err != nil {
		t.Fatalf("fallback: %v", err)
	}
	want := Snapshot{ID: "x", State: "active", SamplesIngested: 1, SamplesDecided: 2,
		BytesIngested: 3, MeanConfidence: 0.5,
		ConfidenceHist: [10]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback: got %+v want %+v", got, want)
	}
}

// snapshotsEqual compares two snapshot-shaped values by their
// encoding/json bytes: floats print shortest-round-trip (so distinct bit
// patterns, -0 included, print differently) and nil slices print null,
// and no Snapshot field is omitempty except a string.
func snapshotsEqual(a, b any) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}

// FuzzSnapshotDecode pins Snapshot.UnmarshalJSON, called directly as the
// client calls it, to encoding/json over the method-free mirror: both
// fail, or both succeed with bit-identical values.
func FuzzSnapshotDecode(f *testing.F) {
	rng := sim.NewRNG(8)
	for i := 0; i < 8; i++ {
		blob, err := json.Marshal(randomSnapshot(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast Snapshot
		var mirror rawSnapshot
		fastErr := fast.UnmarshalJSON(data)
		refErr := json.Unmarshal(data, &mirror)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("fast decoder err = %v, encoding/json err = %v on %q", fastErr, refErr, data)
		}
		if fastErr == nil && !snapshotsEqual(&fast, &mirror) {
			t.Fatalf("decoded values differ on %q\nfast: %+v\n std: %+v", data, fast, mirror)
		}
	})
}
