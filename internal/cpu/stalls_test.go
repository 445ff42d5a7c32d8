package cpu

import (
	"testing"
	"testing/quick"
)

func iv(start, end uint64, misses int) StallInterval {
	return StallInterval{Start: start, End: end, Stalled: end - start, Misses: misses}
}

func TestMergeStallsAdjacent(t *testing.T) {
	in := []StallInterval{iv(0, 10, 1), iv(12, 20, 1), iv(100, 110, 2)}
	out := MergeStalls(in, 4)
	if len(out) != 2 {
		t.Fatalf("merged %d, want 2: %+v", len(out), out)
	}
	if out[0].Start != 0 || out[0].End != 20 || out[0].Misses != 2 {
		t.Fatalf("first merged %+v", out[0])
	}
	if out[0].Stalled != 18 {
		t.Fatalf("merged stalled %d, want 18 (gap excluded)", out[0].Stalled)
	}
	if out[1].Start != 100 {
		t.Fatalf("second merged %+v", out[1])
	}
}

func TestMergeStallsNoMergeBeyondGap(t *testing.T) {
	in := []StallInterval{iv(0, 10, 1), iv(20, 30, 1)}
	if out := MergeStalls(in, 4); len(out) != 2 {
		t.Fatalf("gap 10 > 4 must not merge: %+v", out)
	}
	if out := MergeStalls(in, 10); len(out) != 1 {
		t.Fatalf("gap 10 <= 10 must merge: %+v", out)
	}
}

func TestMergeStallsRefreshPropagates(t *testing.T) {
	in := []StallInterval{
		{Start: 0, End: 10, Stalled: 10},
		{Start: 11, End: 20, Stalled: 9, RefreshHit: true},
	}
	out := MergeStalls(in, 5)
	if len(out) != 1 || !out[0].RefreshHit {
		t.Fatalf("refresh flag lost: %+v", out)
	}
}

func TestMergeStallsEmpty(t *testing.T) {
	if MergeStalls(nil, 10) != nil {
		t.Fatal("merging nothing must return nil")
	}
}

// TestMergeStallsProperties checks the core invariants on arbitrary
// ordered interval lists: total stalled cycles are preserved, output is
// ordered and non-overlapping, and no output gap is <= maxGap.
func TestMergeStallsProperties(t *testing.T) {
	f := func(gaps []uint16, lens []uint16, maxGapRaw uint8) bool {
		maxGap := uint64(maxGapRaw % 32)
		var in []StallInterval
		pos := uint64(0)
		n := len(gaps)
		if len(lens) < n {
			n = len(lens)
		}
		for i := 0; i < n; i++ {
			pos += uint64(gaps[i]%64) + 1
			l := uint64(lens[i]%64) + 1
			in = append(in, iv(pos, pos+l, 1))
			pos += l
		}
		if len(in) == 0 {
			return MergeStalls(in, maxGap) == nil
		}
		out := MergeStalls(in, maxGap)
		var sumIn, sumOut uint64
		for _, s := range in {
			sumIn += s.Stalled
		}
		for i, s := range out {
			sumOut += s.Stalled
			if s.End < s.Start {
				return false
			}
			if i > 0 && s.Start <= out[i-1].End+maxGap {
				return false // should have merged
			}
		}
		return sumIn == sumOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStalledCyclesFallback(t *testing.T) {
	s := StallInterval{Start: 5, End: 25}
	if s.StalledCycles() != 20 {
		t.Fatalf("fallback %d, want span 20", s.StalledCycles())
	}
	s.Stalled = 12
	if s.StalledCycles() != 12 {
		t.Fatalf("explicit %d, want 12", s.StalledCycles())
	}
}

func TestFilterStalls(t *testing.T) {
	in := []StallInterval{iv(0, 10, 1), iv(50, 60, 1), iv(100, 110, 1)}
	out := FilterStalls(in, 40, 100)
	if len(out) != 1 || out[0].Start != 50 {
		t.Fatalf("filtered %+v", out)
	}
}
