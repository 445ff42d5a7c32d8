package mem

import (
	"testing"

	"emprof/internal/mem/cache"
	"emprof/internal/mem/dram"
	"emprof/internal/sim"
)

func testConfig(prefetch bool) Config {
	return Config{
		L1I:            cache.Config{Name: "L1I", SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, Policy: cache.LRU, HitLatency: 1},
		L1D:            cache.Config{Name: "L1D", SizeBytes: 4 << 10, LineBytes: 64, Ways: 2, Policy: cache.LRU, HitLatency: 2},
		LLC:            cache.Config{Name: "LLC", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Policy: cache.LRU, HitLatency: 10},
		MSHRs:          2,
		LLCFillLatency: 4,
		Prefetch:       prefetch,
		PrefetchDegree: 2,
		DRAM: dram.Config{
			Banks: 4, RowBytes: 2048, RowHit: 50, RowMiss: 200,
			BusOccupancy: 20, RefreshInterval: 1 << 20, RefreshDuration: 2000,
		},
	}
}

func newSystem(t *testing.T, prefetch bool) *System {
	t.Helper()
	return buildSystem(t, testConfig(prefetch))
}

// buildSystem builds a system from cfg, failing the test on a
// configuration error.
func buildSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg, sim.NewRNG(1), false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(false)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := testConfig(false)
	bad.L1D.LineBytes = 32
	if err := bad.Validate(); err == nil {
		t.Fatal("line-size mismatch accepted")
	}
	bad2 := testConfig(false)
	bad2.MSHRs = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero MSHRs accepted")
	}
	bad3 := testConfig(false)
	bad3.LLCFillLatency = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("negative fill latency accepted")
	}
}

func TestL1HitPath(t *testing.T) {
	s := newSystem(t, false)
	s.Access(100, 0x100, 0x8000, KindLoad) // miss, fills L1
	r := s.Access(10000, 0x100, 0x8000, KindLoad)
	if !r.L1Hit || r.Ready != 10002 {
		t.Fatalf("L1 hit result %+v", r)
	}
}

func TestLLCHitPath(t *testing.T) {
	s := newSystem(t, false)
	// Warm the LLC only.
	s.WarmLine(0x8000, false)
	r := s.Access(100, 0x100, 0x8000, KindLoad)
	if r.L1Hit || !r.LLCHit || r.LLCMiss {
		t.Fatalf("LLC hit result %+v", r)
	}
	if r.Ready != 100+2+10 {
		t.Fatalf("LLC hit ready %d, want 112", r.Ready)
	}
}

func TestMissPathTiming(t *testing.T) {
	s := newSystem(t, false)
	r := s.Access(1000, 0x100, 0x8000, KindLoad)
	if !r.LLCMiss || r.MissID != 0 {
		t.Fatalf("miss result %+v", r)
	}
	// L1(2) + LLC(10) -> DRAM row miss 200 -> fill 4.
	want := uint64(1000 + 2 + 10 + 200 + 4)
	if r.Ready != want {
		t.Fatalf("miss ready %d, want %d", r.Ready, want)
	}
	m := s.Misses()
	if len(m) != 1 || m[0].Detect != 1000 || m[0].Complete != want || m[0].Kind != KindLoad {
		t.Fatalf("miss record %+v", m)
	}
}

func TestMSHRCoalescing(t *testing.T) {
	s := newSystem(t, false)
	r1 := s.Access(1000, 0x100, 0x8000, KindLoad)
	// Access to the same line while outstanding attaches to the MSHR.
	r2 := s.Access(1010, 0x104, 0x8020, KindLoad)
	if !r2.Coalesced || r2.LLCMiss {
		t.Fatalf("coalesced result %+v", r2)
	}
	if r2.Ready != r1.Ready {
		t.Fatalf("coalesced ready %d, want %d", r2.Ready, r1.Ready)
	}
	if s.Stats().Coalesced != 1 || s.Stats().LLCMisses != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestMSHRExhaustionDelays(t *testing.T) {
	s := newSystem(t, false)
	// Two MSHRs: three distinct-line misses in the same cycle. Use
	// different banks to isolate the MSHR effect from bank conflicts.
	r1 := s.Access(1000, 0x100, 0x10000, KindLoad)
	r2 := s.Access(1000, 0x104, 0x20800, KindLoad)
	r3 := s.Access(1000, 0x108, 0x31000, KindLoad)
	if r3.Ready <= r1.Ready && r3.Ready <= r2.Ready {
		t.Fatalf("third miss %d did not wait for an MSHR (r1=%d r2=%d)", r3.Ready, r1.Ready, r2.Ready)
	}
	if s.Stats().MSHRStalls != 1 {
		t.Fatalf("MSHR stalls %d, want 1", s.Stats().MSHRStalls)
	}
}

func TestOutstandingAndOldest(t *testing.T) {
	s := newSystem(t, false)
	r1 := s.Access(1000, 0x100, 0x10000, KindLoad)
	s.Access(1005, 0x104, 0x20800, KindLoad)
	if got := s.OutstandingMisses(1010); got != 2 {
		t.Fatalf("outstanding %d, want 2", got)
	}
	complete, ok := s.OldestOutstanding(1010)
	if !ok || complete != r1.Ready {
		t.Fatalf("oldest (%d,%v), want (%d,true)", complete, ok, r1.Ready)
	}
	if got := s.OutstandingMisses(r1.Ready + 1000); got != 0 {
		t.Fatalf("outstanding after completion %d, want 0", got)
	}
}

func TestStoreMarksDirtyAndWritesBack(t *testing.T) {
	s := newSystem(t, false)
	// Store-miss allocates in L1 dirty.
	s.Access(1000, 0x100, 0x8000, KindStore)
	// Evict it by filling conflicting lines in the same L1 set (2-way).
	// L1 is 4 KB 2-way: sets = 32; conflict stride = 32*64 = 2 KB.
	s.Access(5000, 0x104, 0x8000+2048, KindLoad)
	s.Access(9000, 0x108, 0x8000+4096, KindLoad)
	// The dirty L1 victim should be marked dirty in the LLC (it is
	// present there after the original fill).
	// Evicting it from the LLC must produce a DRAM write.
	writesBefore := s.DRAM().Stats().Writes
	// Flood the LLC set of 0x8000. LLC 64 KB 4-way: sets = 256; stride 16 KB.
	for i := 1; i <= 6; i++ {
		s.Access(uint64(10000+i*1000), 0x200, uint64(0x8000+i*16384), KindLoad)
	}
	if s.DRAM().Stats().Writes == writesBefore {
		t.Fatal("dirty LLC eviction produced no DRAM write")
	}
}

func TestInstAccessesUseL1I(t *testing.T) {
	s := newSystem(t, false)
	s.Access(100, 0x4000, 0x4000, KindInst)
	if s.L1I().Stats().Accesses != 1 || s.L1D().Stats().Accesses != 0 {
		t.Fatal("instruction access did not use L1I")
	}
	if s.Stats().InstAccesses != 1 || s.Stats().DataAccesses != 0 {
		t.Fatalf("system stats %+v", s.Stats())
	}
}

func TestPrefetcherReducesStreamMisses(t *testing.T) {
	withPf := newSystem(t, true)
	withoutPf := newSystem(t, false)
	count := func(s *System) uint64 {
		now := uint64(0)
		pc := uint64(0x1000)
		addr := uint64(0x100000)
		for i := 0; i < 2048; i++ {
			s.Access(now, pc, addr, KindLoad)
			addr += 8
			now += 100
		}
		return s.Stats().LLCMisses
	}
	mWith, mWithout := count(withPf), count(withoutPf)
	if mWith*4 > mWithout {
		t.Fatalf("prefetcher ineffective: %d vs %d misses", mWith, mWithout)
	}
	if withPf.Stats().PrefetchFills == 0 {
		t.Fatal("no prefetch fills recorded")
	}
	if withPf.Prefetcher() == nil || withoutPf.Prefetcher() != nil {
		t.Fatal("prefetcher wiring wrong")
	}
}

func TestWarmLine(t *testing.T) {
	s := newSystem(t, false)
	s.WarmLine(0xdead40, true)
	r := s.Access(10, 0x100, 0xdead44, KindLoad)
	if !r.L1Hit {
		t.Fatalf("warmed line should L1-hit: %+v", r)
	}
	if len(s.Misses()) != 0 {
		t.Fatal("warming must not create miss records")
	}
}

func TestRegionStamping(t *testing.T) {
	s := newSystem(t, false)
	s.CurrentRegion = 7
	s.Access(100, 0x100, 0x40000, KindLoad)
	if s.Misses()[0].Region != 7 {
		t.Fatalf("miss region %d, want 7", s.Misses()[0].Region)
	}
}

func TestAccessKindString(t *testing.T) {
	if KindInst.String() != "inst" || KindLoad.String() != "load" || KindStore.String() != "store" {
		t.Fatal("access kind names wrong")
	}
}
