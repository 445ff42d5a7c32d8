package core

import (
	"reflect"
	"testing"

	"emprof/internal/em"
	"emprof/internal/sim"
)

// profileBoth runs the batch and streaming analyzers on the same capture.
func profileBoth(t *testing.T, c *em.Capture) (*Profile, *Profile) {
	t.Helper()
	batch := MustNewAnalyzer(DefaultConfig()).Profile(c)
	stream, err := ProfileStream(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return batch, stream
}

// assertSameStalls requires the two profiles to be identical.
func assertSameStalls(t *testing.T, batch, stream *Profile) {
	t.Helper()
	if len(batch.Stalls) == 0 {
		t.Fatal("no stalls detected; the comparison is vacuous")
	}
	if !reflect.DeepEqual(batch, stream) {
		assertProfilesIdentical(t, batch, stream, "stream")
		t.Fatal("stream profile differs from batch")
	}
}

func TestStreamMatchesBatchOnSyntheticDips(t *testing.T) {
	dips := map[int]int{}
	for i := 0; i < 40; i++ {
		dips[3000+i*600] = 10 + i%6
	}
	dips[30000] = 100 // refresh-class event
	c := synthCapture(40000, dips, 0.1, 1.3, 0, 5)
	batch, stream := profileBoth(t, c)
	assertSameStalls(t, batch, stream)
}

func TestStreamMatchesBatchUnderNoise(t *testing.T) {
	dips := map[int]int{5000: 12, 12000: 14, 25000: 11, 33000: 12}
	c := synthCapture(40000, dips, 0.12, 0.9, 0.05, 11)
	batch, stream := profileBoth(t, c)
	assertSameStalls(t, batch, stream)
}

func TestStreamMatchesBatchOnRandomSignals(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 5; trial++ {
		dips := map[int]int{}
		for i := 0; i < 10+trial*5; i++ {
			dips[2000+rng.Intn(30000)] = 8 + rng.Intn(20)
		}
		c := synthCapture(36000, dips, 0.1+0.02*float64(trial), 1, 0.03, uint64(trial)+21)
		batch, stream := profileBoth(t, c)
		assertSameStalls(t, batch, stream)
	}
}

func TestStreamCallback(t *testing.T) {
	c := synthCapture(20000, map[int]int{6000: 12, 12000: 12}, 0.1, 1, 0, 1)
	s, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	var live []Stall
	s.OnStall = func(st Stall) { live = append(live, st) }
	for i, x := range c.Samples {
		s.Push(x)
		// Decisions lag by half the normalisation window (~4000 samples
		// at 40 MHz with the 200 µs default): the stall ending at ~6012
		// must be delivered by ~11000.
		if i == 11000 && len(live) == 0 {
			t.Fatal("first stall (at ~6000) not delivered within the pipeline latency")
		}
	}
	prof := s.Finalize()
	if len(live) != len(prof.Stalls) {
		t.Fatalf("callback saw %d events, profile has %d", len(live), len(prof.Stalls))
	}
}

func TestStreamEmptyAndTiny(t *testing.T) {
	s, err := NewStreamAnalyzer(DefaultConfig(), 40e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Finalize()
	if len(p.Stalls) != 0 || p.ExecCycles != 0 {
		t.Fatal("empty stream must yield empty profile")
	}

	s2, _ := NewStreamAnalyzer(DefaultConfig(), 40e6, 1e9)
	for i := 0; i < 5; i++ {
		s2.Push(1)
	}
	p2 := s2.Finalize()
	if len(p2.Stalls) != 0 {
		t.Fatal("tiny stream must not fabricate stalls")
	}
}

func TestStreamInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnterThreshold = 0
	if _, err := NewStreamAnalyzer(cfg, 40e6, 1e9); err == nil {
		t.Fatal("invalid config accepted")
	}
}
