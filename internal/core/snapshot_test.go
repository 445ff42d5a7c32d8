package core

import (
	"reflect"
	"testing"
)

// TestSnapshotCausalAndNonPerturbing takes snapshots throughout a stream
// and checks the contract the profiling service depends on: every
// snapshot is strictly causal (only stalls already decided, each list a
// prefix of the next and of the final profile), snapshots never perturb
// the stream (the finalized profile is bit-identical to an undisturbed
// run), and bookkeeping (ExecCycles, Quality.Samples) tracks exactly the
// samples pushed.
func TestSnapshotCausalAndNonPerturbing(t *testing.T) {
	dips := map[int]int{}
	for i := 0; i < 25; i++ {
		dips[2500+i*1400] = 10 + i%7
	}
	c := synthCapture(40000, dips, 0.1, 1.1, 0.04, 9)

	ref, err := ProfileStream(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Profile
	for i := range c.Samples {
		s.PushBlock(c.Samples[i : i+1])
		if (i+1)%3000 != 0 {
			continue
		}
		snap := s.Snapshot()
		if s.Decided() > s.Pushed() {
			t.Fatalf("decided %d ahead of pushed %d", s.Decided(), s.Pushed())
		}
		if snap.Quality.Samples != s.Pushed() {
			t.Fatalf("quality saw %d samples, pushed %d", snap.Quality.Samples, s.Pushed())
		}
		wantCycles := float64(s.Pushed()) * (c.ClockHz / c.SampleRate)
		if snap.ExecCycles != wantCycles {
			t.Fatalf("snapshot ExecCycles %v, want %v", snap.ExecCycles, wantCycles)
		}
		for _, st := range snap.Stalls {
			if int64(st.EndSample) > s.Decided() {
				t.Fatalf("stall ending at %d reported with only %d positions decided",
					st.EndSample, s.Decided())
			}
		}
		if prev != nil {
			if len(snap.Stalls) < len(prev.Stalls) {
				t.Fatalf("stall list shrank: %d -> %d", len(prev.Stalls), len(snap.Stalls))
			}
			if len(prev.Stalls) > 0 && !reflect.DeepEqual(prev.Stalls, snap.Stalls[:len(prev.Stalls)]) {
				t.Fatal("earlier snapshot is not a prefix of the later one")
			}
		}
		prev = snap
	}
	if prev == nil || len(prev.Stalls) == 0 {
		t.Fatal("test signal produced no mid-stream stalls; snapshots unexercised")
	}

	final := s.Finalize()
	if !reflect.DeepEqual(final, ref) {
		t.Fatal("snapshotting perturbed the stream: finalized profile differs from undisturbed run")
	}
	if !reflect.DeepEqual(prev.Stalls, final.Stalls[:len(prev.Stalls)]) {
		t.Fatal("last snapshot is not a prefix of the final profile")
	}
	// The snapshot must not alias analyzer state: mutating it leaves the
	// final profile untouched.
	prev.Stalls[0].Cycles = -1
	if final.Stalls[0].Cycles == -1 {
		t.Fatal("snapshot aliases the live profile")
	}
}

// TestSnapshotEmptyStream checks snapshots before any data arrive.
func TestSnapshotEmptyStream(t *testing.T) {
	s, err := NewStreamAnalyzer(DefaultConfig(), 40e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap.Stalls) != 0 || snap.ExecCycles != 0 || snap.Misses != 0 {
		t.Fatalf("non-empty snapshot of empty stream: %+v", snap)
	}
	if snap.SampleRate != 40e6 || snap.ClockHz != 1e9 {
		t.Fatalf("snapshot metadata %v/%v", snap.SampleRate, snap.ClockHz)
	}
}
