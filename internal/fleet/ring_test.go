package fleet

import (
	"fmt"
	"testing"
)

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		// Hex-ish IDs shaped like service.NewSessionID output.
		ids[i] = fmt.Sprintf("%032x", i*0x9e3779b9+7)
	}
	return ids
}

func shardNames(n int) []string {
	shards := make([]string, n)
	for i := range shards {
		shards[i] = fmt.Sprintf("http://10.0.0.%d:7979", i+1)
	}
	return shards
}

// TestRingBalance is the load-distribution property: for every fleet
// size 1..64, hashing 10k session IDs must spread within a constant
// factor of the mean — no shard starves, none melts.
func TestRingBalance(t *testing.T) {
	ids := ringIDs(10000)
	for n := 1; n <= 64; n++ {
		ring := NewRing(shardNames(n), 42)
		load := map[string]int{}
		for _, id := range ids {
			load[ring.Owner(id)]++
		}
		if len(load) != n {
			t.Fatalf("n=%d: only %d shards received load", n, len(load))
		}
		mean := float64(len(ids)) / float64(n)
		for s, c := range load {
			if r := float64(c) / mean; r > 1.45 || r < 0.55 {
				t.Fatalf("n=%d: shard %s holds %d of %d IDs (%.2fx mean)", n, s, c, len(ids), r)
			}
		}
	}
}

// TestRingMinimalDisruption is the membership-change property: growing
// the fleet from n to n+1 shards moves close to K/(n+1) of K sessions
// — and every move lands on the new shard; removing a shard moves
// exactly its own sessions and nobody else's.
func TestRingMinimalDisruption(t *testing.T) {
	ids := ringIDs(10000)
	for _, n := range []int{1, 2, 3, 7, 16, 63} {
		shards := shardNames(n + 1)
		small := NewRing(shards[:n], 42)
		grown, err := small.With(shards[n])
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, id := range ids {
			before, after := small.Owner(id), grown.Owner(id)
			if before != after {
				moved++
				if after != shards[n] {
					t.Fatalf("n=%d: id moved %s -> %s, not to the new shard", n, before, after)
				}
			}
		}
		expect := float64(len(ids)) / float64(n+1)
		if f := float64(moved); f > 2*expect || (n > 1 && f < expect/2) {
			t.Fatalf("n=%d->%d: moved %d IDs, expected about %.0f", n, n+1, moved, expect)
		}

		// Removal is the exact inverse: only the removed shard's IDs move.
		shrunk, err := grown.Without(shards[n])
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if shrunk.Owner(id) != small.Owner(id) {
				t.Fatalf("n=%d: remove is not the inverse of add for id %s", n, id)
			}
			if grown.Owner(id) != shards[n] && shrunk.Owner(id) != grown.Owner(id) {
				t.Fatalf("n=%d: removing %s moved a session it did not own", n, shards[n])
			}
		}
	}
}

// TestRingDeterminism: ownership depends only on (shard set, seed) —
// not on insertion order or which replica computes it.
func TestRingDeterminism(t *testing.T) {
	shards := shardNames(5)
	reversed := make([]string, len(shards))
	for i, s := range shards {
		reversed[len(shards)-1-i] = s
	}
	a := NewRing(shards, 99)
	b := NewRing(reversed, 99)
	other := NewRing(shards, 100)
	diff := 0
	for _, id := range ringIDs(2000) {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("shard order changed ownership of %s", id)
		}
		if a.Owner(id) != other.Owner(id) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed does not influence placement")
	}
}

// TestRingEdges covers the degenerate and error paths.
func TestRingEdges(t *testing.T) {
	empty := NewRing(nil, 1)
	if got := empty.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	one := NewRing([]string{"a", "a", "a"}, 1)
	if got := one.Shards(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("duplicates not collapsed: %v", got)
	}
	if one.Owner("anything") != "a" {
		t.Fatal("single-shard ring must own everything")
	}
	if _, err := one.With("a"); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if _, err := one.With(""); err == nil {
		t.Fatal("empty shard name accepted")
	}
	if _, err := one.Without("b"); err == nil {
		t.Fatal("removing a non-member accepted")
	}
}
