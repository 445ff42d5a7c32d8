// Package mem composes the cache hierarchy and DRAM into the memory system
// seen by the processor model: split L1 caches over a unified LLC, a miss
// status holding register (MSHR) file bounding miss-level parallelism, an
// optional stride prefetcher, and ground-truth recording of every LLC miss
// (the paper validates EMPROF against exactly this information: in which
// cycle each miss is detected and when the resulting stall begins and
// ends).
package mem

import (
	"fmt"
	"math/bits"

	"emprof/internal/mem/cache"
	"emprof/internal/mem/dram"
	"emprof/internal/sim"
)

// Config assembles a complete memory system.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	LLC cache.Config
	// MSHRs bounds the number of outstanding LLC misses (MLP). The paper's
	// IoT-class cores "send more than one memory request on multiple read
	// channels to multi-banked LLC".
	MSHRs int
	// TLBEntries sizes the data TLB (0 disables translation modelling);
	// TLBPenalty is the page-walk cost in cycles charged per TLB miss.
	// The microbenchmark's page-touch pass exists to pre-warm exactly
	// this state.
	TLBEntries int
	TLBPenalty int
	// PageBytes is the translation granule (default 4096 when TLB on).
	PageBytes int
	// LLCFillLatency is the extra latency from DRAM completion to the data
	// reaching the core, in cycles.
	LLCFillLatency int
	// Prefetch enables the stride prefetcher (Samsung device).
	Prefetch bool
	// PrefetchDegree is the number of lines fetched ahead when a stride is
	// confirmed.
	PrefetchDegree int
	DRAM           dram.Config
}

// Validate checks the composed configuration.
func (c Config) Validate() error {
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.LLC} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.L1I.LineBytes != c.LLC.LineBytes || c.L1D.LineBytes != c.LLC.LineBytes {
		return fmt.Errorf("mem: L1/LLC line sizes must match")
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("mem: MSHRs %d < 1", c.MSHRs)
	}
	if c.TLBEntries < 0 || c.TLBPenalty < 0 {
		return fmt.Errorf("mem: negative TLB parameters")
	}
	if c.TLBEntries > 0 && c.PageBytes != 0 && (c.PageBytes < 1024 || c.PageBytes&(c.PageBytes-1) != 0) {
		return fmt.Errorf("mem: page size %d not a power of two >= 1024", c.PageBytes)
	}
	if c.LLCFillLatency < 0 {
		return fmt.Errorf("mem: negative fill latency")
	}
	return c.DRAM.Validate()
}

// AccessKind labels the requester of a memory access.
type AccessKind uint8

const (
	// KindInst is an instruction fetch.
	KindInst AccessKind = iota
	// KindLoad is a data load.
	KindLoad
	// KindStore is a data store.
	KindStore
)

// String returns the access kind name.
func (k AccessKind) String() string {
	switch k {
	case KindInst:
		return "inst"
	case KindLoad:
		return "load"
	default:
		return "store"
	}
}

// MissRecord is the ground truth for one LLC miss. StallStart/StallEnd are
// filled in by the processor model when (and only when) the miss produces
// fully-stalled cycles; Stalled distinguishes misses whose latency was
// entirely hidden by ILP/MLP (paper Fig. 3a).
type MissRecord struct {
	// Detect is the cycle in which the access that missed was issued.
	Detect uint64
	// Complete is the cycle in which the line reached the core.
	Complete uint64
	// PC and Addr identify the access.
	PC, Addr uint64
	// Kind is the requester type.
	Kind AccessKind
	// RefreshHit is true when DRAM refresh delayed this miss (Fig. 5).
	RefreshHit bool
	// Region is the workload region executing at detect time.
	Region uint16
	// Stalled, StallStart, StallEnd are written by the processor model.
	Stalled    bool
	StallStart uint64
	StallEnd   uint64
}

// Result describes the outcome of one access.
type Result struct {
	// Ready is the cycle at which the data is available to the core.
	Ready uint64
	// L1Hit, LLCHit report where the access was satisfied.
	L1Hit  bool
	LLCHit bool
	// LLCMiss is true for a *new* LLC miss (one MSHR allocation).
	LLCMiss bool
	// Coalesced is true when the access attached to an already
	// outstanding miss for the same line (overlapped misses, Fig. 3b).
	Coalesced bool
	// RefreshHit mirrors the DRAM refresh collision for new misses.
	RefreshHit bool
	// MissID indexes Misses() for new LLC misses; -1 otherwise.
	MissID int
}

type mshr struct {
	lineAddr uint64
	complete uint64
	busy     bool
}

// System is the composed memory system.
type System struct {
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	llc  *cache.Cache
	dram *dram.DRAM
	pf   *cache.Prefetcher

	mshrs []mshr
	// mshrMaxComplete is a high-water mark over every completion time an
	// MSHR was ever assigned; once now reaches it, no entry can satisfy
	// busy && complete > now, so the scans below exit on one compare.
	mshrMaxComplete uint64
	misses          []MissRecord
	dtlb            *TLB
	pageShift       uint

	// Hot-path hoists: per-level hit latencies, the shared line geometry
	// and the TLB penalty, so Access never copies a cache.Config (it
	// carries a string name) just to read a latency.
	l1iLat     uint64
	l1dLat     uint64
	llcLat     uint64
	llcFillLat uint64
	lineBytes  int
	lineMask   uint64
	tlbPenalty uint64

	// CurrentRegion is stamped into miss records; the CPU model updates it
	// as region markers flow through.
	CurrentRegion uint16

	stats SystemStats
}

// SystemStats aggregates hierarchy-level counters.
type SystemStats struct {
	InstAccesses  uint64
	DataAccesses  uint64
	LLCMisses     uint64
	Coalesced     uint64
	MSHRStalls    uint64 // allocations that had to wait for a free MSHR
	PrefetchFills uint64
	TLBMisses     uint64
}

// NewSystem builds a memory system; rng drives random replacement.
func NewSystem(cfg Config, rng *sim.RNG, recordBursts bool) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := cache.New(cfg.L1I, rng.Fork())
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D, rng.Fork())
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLC, rng.Fork())
	if err != nil {
		return nil, err
	}
	d, err := dram.New(cfg.DRAM, recordBursts)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:        cfg,
		l1i:        l1i,
		l1d:        l1d,
		llc:        llc,
		dram:       d,
		mshrs:      make([]mshr, cfg.MSHRs),
		l1iLat:     uint64(cfg.L1I.HitLatency),
		l1dLat:     uint64(cfg.L1D.HitLatency),
		llcLat:     uint64(cfg.LLC.HitLatency),
		llcFillLat: uint64(cfg.LLCFillLatency),
		lineBytes:  cfg.LLC.LineBytes,
		lineMask:   uint64(cfg.LLC.LineBytes - 1),
		tlbPenalty: uint64(cfg.TLBPenalty),
	}
	if cfg.TLBEntries > 0 {
		s.dtlb = NewTLB(cfg.TLBEntries)
		pb := cfg.PageBytes
		if pb == 0 {
			pb = 4096
		}
		s.pageShift = uint(bits.TrailingZeros(uint(pb)))
	}
	if cfg.Prefetch {
		deg := cfg.PrefetchDegree
		if deg < 1 {
			deg = 2
		}
		s.pf = cache.NewPrefetcher(256, deg)
	}
	return s, nil
}

// Misses returns the ground-truth miss records. The slice is owned by the
// system; the processor model writes stall attribution into it.
func (s *System) Misses() []MissRecord { return s.misses }

// Stats returns hierarchy-level counters.
func (s *System) Stats() SystemStats { return s.stats }

// DRAM exposes the DRAM model (for burst traces and refresh queries).
func (s *System) DRAM() *dram.DRAM { return s.dram }

// L1I, L1D and LLC expose the individual cache levels.
func (s *System) L1I() *cache.Cache { return s.l1i }

// L1D returns the L1 data cache.
func (s *System) L1D() *cache.Cache { return s.l1d }

// LLC returns the last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// Prefetcher returns the stride prefetcher, or nil when disabled.
func (s *System) Prefetcher() *cache.Prefetcher { return s.pf }

// OutstandingMisses returns the number of MSHRs busy at cycle now.
func (s *System) OutstandingMisses(now uint64) int {
	if now >= s.mshrMaxComplete {
		return 0
	}
	n := 0
	for i := range s.mshrs {
		if s.mshrs[i].busy && s.mshrs[i].complete > now {
			n++
		}
	}
	return n
}

// OldestOutstanding returns the earliest completion among busy MSHRs.
func (s *System) OldestOutstanding(now uint64) (complete uint64, ok bool) {
	if now >= s.mshrMaxComplete {
		return 0, false
	}
	for i := range s.mshrs {
		m := &s.mshrs[i]
		if m.busy && m.complete > now {
			if !ok || m.complete < complete {
				complete, ok = m.complete, true
			}
		}
	}
	return complete, ok
}

// lookupMSHR returns the completion cycle when lineAddr is outstanding.
func (s *System) lookupMSHR(now, lineAddr uint64) (uint64, bool) {
	if now >= s.mshrMaxComplete {
		return 0, false
	}
	for i := range s.mshrs {
		m := &s.mshrs[i]
		if m.busy && m.complete > now && m.lineAddr == lineAddr {
			return m.complete, true
		}
	}
	return 0, false
}

// allocMSHR reserves an MSHR from cycle `when`, waiting for the earliest
// completion when all are busy. It returns the entry and the (possibly
// delayed) start cycle.
func (s *System) allocMSHR(when, lineAddr uint64) (*mshr, uint64) {
	var free *mshr
	var earliest *mshr
	for i := range s.mshrs {
		m := &s.mshrs[i]
		if !m.busy || m.complete <= when {
			free = m
			break
		}
		if earliest == nil || m.complete < earliest.complete {
			earliest = m
		}
	}
	start := when
	if free == nil {
		// All MSHRs busy: the request waits for the earliest completion.
		s.stats.MSHRStalls++
		start = earliest.complete
		free = earliest
	}
	free.busy = true
	free.lineAddr = lineAddr
	return free, start
}

// Access services one memory request issued at cycle now.
func (s *System) Access(now uint64, pc, addr uint64, kind AccessKind) Result {
	var l1 *cache.Cache
	var l1Lat uint64
	if kind == KindInst {
		l1 = s.l1i
		l1Lat = s.l1iLat
		s.stats.InstAccesses++
	} else {
		l1 = s.l1d
		l1Lat = s.l1dLat
		s.stats.DataAccesses++
	}
	write := kind == KindStore
	lineAddr := addr &^ s.lineMask

	// Address translation: a data-side TLB miss pays the page-walk
	// penalty before the cache access proceeds.
	if s.dtlb != nil && kind != KindInst {
		if !s.dtlb.Lookup(addr >> s.pageShift) {
			now += s.tlbPenalty
			s.stats.TLBMisses++
		}
	}

	// Hit-under-miss: an access to a line already being fetched attaches
	// to the outstanding MSHR.
	if complete, ok := s.lookupMSHR(now, lineAddr); ok {
		s.stats.Coalesced++
		return Result{Ready: complete, Coalesced: true, MissID: -1}
	}

	if l1.Lookup(addr, write) {
		return Result{Ready: now + l1Lat, L1Hit: true, MissID: -1}
	}

	llcLat := s.llcLat
	// Stride prefetch trains on L1D demand misses, like the A5's unit.
	if s.pf != nil && kind != KindInst {
		for _, cand := range s.pf.Observe(pc, addr, s.lineBytes) {
			s.issuePrefetch(now, cand)
		}
	}

	if s.llc.Lookup(addr, false) {
		s.fillL1(l1, addr, write)
		return Result{Ready: now + l1Lat + llcLat, LLCHit: true, MissID: -1}
	}

	// New LLC miss: allocate an MSHR and go to DRAM.
	entry, start := s.allocMSHR(now+l1Lat+llcLat, lineAddr)
	done, refreshHit := s.dram.Access(start, lineAddr, dram.BurstRead)
	complete := done + s.llcFillLat
	entry.complete = complete
	if complete > s.mshrMaxComplete {
		s.mshrMaxComplete = complete
	}
	s.stats.LLCMisses++

	// Fill state immediately; timing is carried by the MSHR entry.
	s.fillLLC(lineAddr, complete)
	s.fillL1(l1, addr, write)

	s.misses = append(s.misses, MissRecord{
		Detect:     now,
		Complete:   complete,
		PC:         pc,
		Addr:       addr,
		Kind:       kind,
		RefreshHit: refreshHit,
		Region:     s.CurrentRegion,
	})
	return Result{
		Ready:      complete,
		LLCMiss:    true,
		RefreshHit: refreshHit,
		MissID:     len(s.misses) - 1,
	}
}

// fillL1 inserts addr into the given L1, spilling dirty victims into the
// LLC (or to memory as non-stalling background writes when absent).
func (s *System) fillL1(l1 *cache.Cache, addr uint64, dirty bool) {
	ev := l1.Fill(addr, dirty)
	if ev.Valid && ev.Dirty {
		if !s.llc.MarkDirty(ev.Addr) {
			// Victim not in LLC (e.g. already evicted): background
			// writeback straight to DRAM; does not stall the core.
			s.dram.Access(0, ev.Addr, dram.BurstWrite)
		}
	}
}

// fillLLC inserts a line into the LLC, issuing writebacks for dirty
// victims as background traffic at the fill time.
func (s *System) fillLLC(lineAddr, when uint64) {
	ev := s.llc.Fill(lineAddr, false)
	if ev.Valid && ev.Dirty {
		s.dram.Access(when, ev.Addr, dram.BurstWrite)
	}
}

// issuePrefetch fetches cand into the LLC without blocking the core.
func (s *System) issuePrefetch(now, cand uint64) {
	lineAddr := s.llc.LineAddr(cand)
	if s.llc.Contains(lineAddr) {
		s.pf.NoteRedundant()
		return
	}
	if _, ok := s.lookupMSHR(now, lineAddr); ok {
		s.pf.NoteRedundant()
		return
	}
	done, _ := s.dram.Access(now, lineAddr, dram.BurstPrefetch)
	s.fillLLC(lineAddr, done)
	s.stats.PrefetchFills++
}

// WarmLine installs a line in LLC (and optionally L1D) without timing or
// ground-truth side effects. Workload page-touch phases and the perf
// baseline use it.
func (s *System) WarmLine(addr uint64, alsoL1 bool) {
	lineAddr := s.llc.LineAddr(addr)
	s.llc.Fill(lineAddr, false)
	if alsoL1 {
		s.l1d.Fill(addr, false)
	}
	if s.dtlb != nil {
		s.dtlb.Insert(addr >> s.pageShift)
	}
}
