package mem

import "testing"

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Lookup(1) {
		t.Fatal("cold TLB must miss")
	}
	if !tlb.Lookup(1) {
		t.Fatal("second access must hit")
	}
	s := tlb.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Lookup(1)
	tlb.Lookup(2)
	tlb.Lookup(1) // 2 is now LRU
	tlb.Lookup(3) // evicts 2
	if !tlb.Lookup(1) {
		t.Fatal("1 must survive")
	}
	if tlb.Lookup(2) {
		t.Fatal("2 must have been evicted")
	}
}

func TestTLBInsert(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(9)
	if tlb.Stats().Accesses != 0 {
		t.Fatal("Insert must not count as an access")
	}
	if !tlb.Lookup(9) {
		t.Fatal("inserted translation must hit")
	}
}

func TestNewTLBDisabled(t *testing.T) {
	if NewTLB(0) != nil {
		t.Fatal("zero entries must return nil")
	}
}

func TestSystemTLBPenalty(t *testing.T) {
	cfg := testConfig(false)
	cfg.TLBEntries = 4
	cfg.TLBPenalty = 30
	s := buildSystem(t, cfg)

	// First access to a page: TLB miss adds the page-walk penalty.
	r1 := s.Access(1000, 0x100, 0x8000, KindLoad)
	// Same page again after warming L1: only the L1 latency.
	r2 := s.Access(50000, 0x100, 0x8000, KindLoad)
	if r2.Ready != 50000+2 {
		t.Fatalf("warm access ready %d, want %d", r2.Ready, 50002)
	}
	// The first access paid the penalty before its miss path.
	if r1.Ready < 1000+30+2+10+200 {
		t.Fatalf("cold access ready %d did not include the page walk", r1.Ready)
	}
	if s.Stats().TLBMisses != 1 {
		t.Fatalf("TLB misses %d, want 1", s.Stats().TLBMisses)
	}
}

func TestSystemTLBWarmLineInstalls(t *testing.T) {
	cfg := testConfig(false)
	cfg.TLBEntries = 4
	cfg.TLBPenalty = 30
	s := buildSystem(t, cfg)
	s.WarmLine(0x8000, false)
	s.Access(1000, 0x100, 0x8040, KindLoad) // same page
	if s.Stats().TLBMisses != 0 {
		t.Fatal("warmed page must not TLB-miss")
	}
}

func TestSystemInstFetchSkipsTLB(t *testing.T) {
	cfg := testConfig(false)
	cfg.TLBEntries = 2
	cfg.TLBPenalty = 30
	s := buildSystem(t, cfg)
	s.Access(1000, 0x4000, 0x4000, KindInst)
	if s.Stats().TLBMisses != 0 {
		t.Fatal("instruction fetches use the (unmodelled) ITLB, not the DTLB")
	}
}
