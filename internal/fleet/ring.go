// Package fleet turns emprofd into a horizontally scalable profiling
// service: a stateless router maps session IDs onto shards with a
// consistent hash ring, proxies per-session traffic to the owning
// shard, aggregates fleet-wide views (session list, metrics), and moves
// live sessions between shards on membership change via the service
// hand-off protocol — replay-free, with the session pinned so no sample
// is double-ingested.
package fleet

import (
	"fmt"
	"sort"

	"emprof/internal/batch"
)

// DefaultVirtualNodes is the per-shard point count on the ring. 128
// points per shard keeps the max/mean load ratio within ~1.3 for
// realistic shard counts while the ring stays small enough to rebuild
// on every membership change.
const DefaultVirtualNodes = 128

// Ring is a consistent hash ring: every shard owns DefaultVirtualNodes
// points on a 64-bit circle and a session ID belongs to the shard whose
// point follows the ID's hash. Adding or removing one shard therefore moves
// only the sessions adjacent to that shard's points — about K/N of them
// — instead of rehashing the world. Hashing is deterministic (splitmix64
// over FNV-1a coordinates, seed-remixed like internal/batch seeds), so
// every router replica with the same shard set and seed agrees on
// ownership without coordination.
type Ring struct {
	seed   uint64
	shards []string // sorted, deduplicated
	points []point  // sorted by hash
}

type point struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the given shard names (URLs). Shard order
// does not matter; duplicates collapse. An empty shard set is valid
// (Owner returns "").
func NewRing(shards []string, seed uint64) *Ring {
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	r := &Ring{seed: seed, shards: uniq}
	r.points = make([]point, 0, len(uniq)*DefaultVirtualNodes)
	for _, s := range uniq {
		sh := batch.MixSeedString(s)
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, point{batch.MixSeed(seed, sh, uint64(v)), s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode points is astronomically rare
		// but must still break deterministically.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owner returns the shard owning a session ID, or "" on an empty ring.
func (r *Ring) Owner(id string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := batch.MixSeed(r.seed, batch.MixSeedString(id))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].shard
}

// Shards returns the ring's member set, sorted.
func (r *Ring) Shards() []string {
	out := make([]string, len(r.shards))
	copy(out, r.shards)
	return out
}

// Has reports ring membership.
func (r *Ring) Has(shard string) bool {
	i := sort.SearchStrings(r.shards, shard)
	return i < len(r.shards) && r.shards[i] == shard
}

// With returns a new ring with one shard added (same seed); adding an
// existing member errors rather than silently no-op, so membership bugs
// surface.
func (r *Ring) With(shard string) (*Ring, error) {
	if shard == "" {
		return nil, fmt.Errorf("fleet: empty shard name")
	}
	if r.Has(shard) {
		return nil, fmt.Errorf("fleet: shard %q already in ring", shard)
	}
	return NewRing(append(r.Shards(), shard), r.seed), nil
}

// Without returns a new ring with one shard removed.
func (r *Ring) Without(shard string) (*Ring, error) {
	if !r.Has(shard) {
		return nil, fmt.Errorf("fleet: shard %q not in ring", shard)
	}
	rest := make([]string, 0, len(r.shards)-1)
	for _, s := range r.shards {
		if s != shard {
			rest = append(rest, s)
		}
	}
	return NewRing(rest, r.seed), nil
}
