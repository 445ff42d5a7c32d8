// Package cache implements set-associative caches for the device simulator:
// split L1 instruction/data caches and a unified last-level cache (LLC),
// with the random replacement policy the paper's SESC configuration uses
// ("two levels of caches with random replacement policies"), plus LRU for
// comparison, and an optional stride prefetcher modelling the Samsung
// device's hardware prefetch.
package cache

import (
	"fmt"
	"math/bits"

	"emprof/internal/sim"
)

// Policy selects the replacement policy.
type Policy uint8

const (
	// Random replacement, as in the paper's simulator configuration.
	Random Policy = iota
	// LRU replacement.
	LRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config describes one cache level.
type Config struct {
	// Name is used in stats reporting ("L1I", "L1D", "LLC").
	Name string
	// SizeBytes is the total capacity; must be a power of two multiple of
	// LineBytes*Ways.
	SizeBytes int
	// LineBytes is the cache line size (power of two).
	LineBytes int
	// Ways is the associativity.
	Ways int
	// Policy selects the replacement policy.
	Policy Policy
	// HitLatency is the access latency in cycles.
	HitLatency int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d <= 0", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by %d-byte ways", c.Name, c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %s: hit latency %d < 1", c.Name, c.HitLatency)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// stamp is the LRU timestamp; unused under Random.
	stamp uint64
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Fills      uint64
}

// Cache is one set-associative cache level. Lines are stored in one flat
// set-major array (set s occupies lines[s*ways : (s+1)*ways]); set and tag
// extraction are pure shift/mask with all shift amounts precomputed, so a
// probe costs no division, map lookup or pointer chase.
type Cache struct {
	cfg       Config
	lineShift uint
	setShift  uint
	setMask   uint64
	ways      int
	lines     []line
	clock     uint64
	rng       *sim.RNG
	stats     Stats
}

// New builds a cache from cfg; rng drives random replacement (may be nil
// for LRU-only caches).
func New(cfg Config, rng *sim.RNG) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == Random && rng == nil {
		return nil, fmt.Errorf("cache %s: random policy requires an RNG", cfg.Name)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(numSets))),
		setMask:   uint64(numSets - 1),
		ways:      cfg.Ways,
		lines:     make([]line, numSets*cfg.Ways),
		rng:       rng,
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) decompose(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> c.setShift
}

// setSlice returns the ways of one set.
func (c *Cache) setSlice(set uint64) []line {
	base := int(set) * c.ways
	return c.lines[base : base+c.ways]
}

// Lookup probes the cache for addr, updating replacement state and the
// dirty bit on a write hit. It returns true on hit.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.stats.Accesses++
	c.clock++
	set, tag := c.decompose(addr)
	ways := c.setSlice(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].stamp = c.clock
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without updating any state (used by tests and
// by the prefetcher to avoid redundant prefetches).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.decompose(addr)
	for _, l := range c.setSlice(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Eviction describes the line displaced by a Fill.
type Eviction struct {
	// Valid is true when a line was actually displaced.
	Valid bool
	// Addr is the line address of the victim.
	Addr uint64
	// Dirty is true when the victim must be written back.
	Dirty bool
}

// Fill inserts the line containing addr, marking it dirty when dirty is
// set, and returns the eviction it caused (if any).
func (c *Cache) Fill(addr uint64, dirty bool) Eviction {
	c.clock++
	c.stats.Fills++
	set, tag := c.decompose(addr)
	ways := c.setSlice(set)
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].tag == tag {
			// Already present (e.g. prefetch raced a demand fill); just
			// refresh state.
			ways[i].stamp = c.clock
			if dirty {
				ways[i].dirty = true
			}
			return Eviction{}
		}
	}
	if victim < 0 {
		switch c.cfg.Policy {
		case Random:
			victim = c.rng.Intn(len(ways))
		default: // LRU
			victim = 0
			for i := 1; i < len(ways); i++ {
				if ways[i].stamp < ways[victim].stamp {
					victim = i
				}
			}
		}
	}
	var ev Eviction
	if ways[victim].valid {
		c.stats.Evictions++
		ev = Eviction{
			Valid: true,
			Addr:  c.reconstruct(set, ways[victim].tag),
			Dirty: ways[victim].dirty,
		}
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: dirty, stamp: c.clock}
	return ev
}

func (c *Cache) reconstruct(set, tag uint64) uint64 {
	numSets := c.setMask + 1
	return (tag*numSets + set) << c.lineShift
}

// MarkDirty sets the dirty bit of the line containing addr if present,
// returning whether it was found. Used when a dirty L1 victim lands in the
// LLC.
func (c *Cache) MarkDirty(addr uint64) bool {
	set, tag := c.decompose(addr)
	ways := c.setSlice(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = true
			return true
		}
	}
	return false
}
