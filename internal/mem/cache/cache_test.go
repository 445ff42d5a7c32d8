package cache

import (
	"testing"
	"testing/quick"

	"emprof/internal/sim"
)

func testConfig(size, line, ways int, p Policy) Config {
	return Config{Name: "T", SizeBytes: size, LineBytes: line, Ways: ways, Policy: p, HitLatency: 2}
}

func newTest(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		testConfig(1024, 48, 2, LRU),   // non-pow2 line
		testConfig(1000, 64, 2, LRU),   // size not divisible
		testConfig(1024, 64, 0, LRU),   // zero ways
		testConfig(64*3*2, 64, 2, LRU), // 3 sets: not a power of two
		{Name: "L", SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v unexpectedly valid", i, cfg)
		}
	}
	if err := testConfig(32<<10, 64, 4, Random).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRandomPolicyRequiresRNG(t *testing.T) {
	if _, err := New(testConfig(1024, 64, 2, Random), nil); err == nil {
		t.Fatal("random policy without RNG must error")
	}
	if _, err := New(testConfig(1024, 64, 2, LRU), nil); err != nil {
		t.Fatalf("LRU without RNG should work: %v", err)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := newTest(t, testConfig(1024, 64, 2, LRU))
	if c.Lookup(0x100, false) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100, false) {
		t.Fatal("filled line must hit")
	}
	// Same line, different offset.
	if !c.Lookup(0x13f, false) {
		t.Fatal("offset within the line must hit")
	}
	if c.Lookup(0x140, false) {
		t.Fatal("next line must miss")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> 256 bytes.
	c := newTest(t, testConfig(256, 64, 2, LRU))
	// Set 0 holds line addresses with (addr>>6)%2 == 0: 0x000, 0x080, 0x100.
	c.Fill(0x000, false)
	c.Fill(0x080, false)
	// Touch 0x000 so 0x080 is LRU.
	c.Lookup(0x000, false)
	ev := c.Fill(0x100, false)
	if !ev.Valid || ev.Addr != 0x080 {
		t.Fatalf("evicted %+v, want addr 0x080", ev)
	}
	if !c.Contains(0x000) || c.Contains(0x080) || !c.Contains(0x100) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := newTest(t, testConfig(128, 64, 1, LRU)) // direct-mapped, 2 sets
	c.Fill(0x000, false)
	if !c.Lookup(0x000, true) {
		t.Fatal("write hit expected")
	}
	ev := c.Fill(0x100, false) // same set as 0x000
	if !ev.Valid || !ev.Dirty || ev.Addr != 0x000 {
		t.Fatalf("eviction %+v, want dirty victim 0x000", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks %d, want 1", c.Stats().Writebacks)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	c := newTest(t, testConfig(128, 64, 1, LRU))
	c.Fill(0x000, true)
	ev := c.Fill(0x100, false)
	if !ev.Dirty {
		t.Fatal("line filled dirty must write back")
	}
}

func TestFillExistingLineRefreshes(t *testing.T) {
	c := newTest(t, testConfig(256, 64, 2, LRU))
	c.Fill(0x000, false)
	ev := c.Fill(0x000, true) // refill same line, now dirty
	if ev.Valid {
		t.Fatalf("refilling a present line must not evict, got %+v", ev)
	}
	ev = c.Fill(0x100, false)
	if ev.Valid {
		t.Fatal("way 2 free, no eviction expected")
	}
	ev = c.Fill(0x200, false)
	if !ev.Valid {
		t.Fatal("set full, eviction expected")
	}
}

func TestEvictionAddressRoundTrip(t *testing.T) {
	// Property: a direct-mapped cache must report the exact address of the
	// line it displaces.
	f := func(raw uint32) bool {
		c, err := New(testConfig(4096, 64, 1, LRU), nil)
		if err != nil {
			return false
		}
		addr := uint64(raw) &^ 63
		c.Fill(addr, false)
		conflict := addr ^ 4096 // same set, different tag
		ev := c.Fill(conflict, false)
		return ev.Valid && ev.Addr == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarkDirty(t *testing.T) {
	c := newTest(t, testConfig(256, 64, 2, LRU))
	if c.MarkDirty(0x40) {
		t.Fatal("MarkDirty on absent line must return false")
	}
	c.Fill(0x40, false)
	if !c.MarkDirty(0x40) {
		t.Fatal("MarkDirty on present line must return true")
	}
	// 0x40, 0xc0 and 0x140 share set 1 of this 2-way cache: the third
	// fill evicts the least recently used 0x40, which must write back.
	c.Fill(0xc0, false)
	ev := c.Fill(0x140, false)
	if !ev.Valid || ev.Addr != 0x40 || !ev.Dirty {
		t.Fatalf("eviction %+v, want dirty 0x40", ev)
	}
	if c.Contains(0x40) {
		t.Fatal("line still present after eviction")
	}
}

func TestStatsCounting(t *testing.T) {
	c := newTest(t, testConfig(256, 64, 2, LRU))
	c.Lookup(0, false) // miss
	c.Fill(0, false)
	c.Lookup(0, false) // hit
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRandomReplacementStaysWithinSet(t *testing.T) {
	c := newTest(t, testConfig(512, 64, 4, Random))
	// Fill set 0 (stride 512 = set size in bytes... addresses mapping to set 0
	// are multiples of 64 where (addr>>6)%2==0).
	var fills []uint64
	for i := 0; i < 12; i++ {
		addr := uint64(i) * 128 // every other line -> set 0
		fills = append(fills, addr)
		ev := c.Fill(addr, false)
		if ev.Valid {
			// The evicted address must be one we filled into set 0.
			found := false
			for _, a := range fills {
				if a == ev.Addr {
					found = true
				}
			}
			if !found {
				t.Fatalf("evicted unknown address %#x", ev.Addr)
			}
		}
	}
	valid := 0
	for _, l := range c.lines {
		if l.valid {
			valid++
		}
	}
	if valid > 8 {
		t.Fatalf("valid lines %d exceed capacity effects", valid)
	}
}

func TestLineAddr(t *testing.T) {
	c := newTest(t, testConfig(256, 64, 2, LRU))
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("line addr %#x, want 0x12340", got)
	}
}

func TestPolicyString(t *testing.T) {
	if Random.String() != "random" || LRU.String() != "lru" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}
