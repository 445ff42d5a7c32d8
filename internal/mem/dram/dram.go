// Package dram models the main memory of the profiled device: banked DRAM
// with open-row timing, a bounded activity trace of column accesses (the
// source of the memory-probe EM signal in the paper's Fig. 10), and the
// periodic refresh behaviour responsible for the paper's Fig. 5
// observation — an LLC miss that collides with refresh stalls for 2–3 µs,
// and such collisions recur at least every ~70 µs on the Olimex board's
// H5TQ2G63BFR SDRAM.
package dram

import (
	"fmt"
	"math/bits"
)

// Config describes the DRAM timing in CPU cycles (the simulator runs a
// single clock domain; device configs convert from nanoseconds using the
// core clock).
type Config struct {
	// Banks is the number of independent banks (power of two).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// RowHit is the latency of a column access to an open row (tCAS +
	// transfer), in cycles.
	RowHit int
	// RowMiss is the latency when the row must be opened (tRP + tRCD +
	// tCAS + transfer), in cycles.
	RowMiss int
	// BusOccupancy is how long a request occupies its bank, in cycles.
	BusOccupancy int
	// RefreshInterval is the period between refresh windows, in cycles
	// (≈70 µs worth of cycles for the Olimex device, per the paper).
	RefreshInterval int
	// RefreshDuration is how long a refresh window blocks the device, in
	// cycles (≈2–3 µs worth).
	RefreshDuration int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks %d not a power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row bytes %d not a power of two", c.RowBytes)
	}
	if c.RowHit <= 0 || c.RowMiss < c.RowHit {
		return fmt.Errorf("dram: invalid row latencies hit=%d miss=%d", c.RowHit, c.RowMiss)
	}
	if c.BusOccupancy <= 0 {
		return fmt.Errorf("dram: bus occupancy %d <= 0", c.BusOccupancy)
	}
	if c.RefreshInterval > 0 && c.RefreshDuration <= 0 {
		return fmt.Errorf("dram: refresh interval set but duration %d <= 0", c.RefreshDuration)
	}
	return nil
}

// Burst records one period of memory activity, used to synthesize the
// memory-side EM signal.
type Burst struct {
	Start uint64
	End   uint64
	// Kind distinguishes demand reads, writebacks, prefetches, and
	// refresh windows.
	Kind BurstKind
}

// BurstKind labels the cause of memory activity.
type BurstKind uint8

const (
	// BurstRead is a demand line fill.
	BurstRead BurstKind = iota
	// BurstWrite is a writeback.
	BurstWrite
	// BurstPrefetch is a prefetcher-initiated fill.
	BurstPrefetch
	// BurstRefresh is a refresh window.
	BurstRefresh
)

// String returns the burst kind name.
func (k BurstKind) String() string {
	switch k {
	case BurstRead:
		return "read"
	case BurstWrite:
		return "write"
	case BurstPrefetch:
		return "prefetch"
	case BurstRefresh:
		return "refresh"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Stats counts DRAM events.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Prefetches   uint64
	RowHits      uint64
	RowMisses    uint64
	RefreshHits  uint64 // requests delayed by a refresh window
	RefreshSpans uint64 // refresh windows recorded in the burst trace
}

// DRAM is the main-memory model. Bank and row extraction are pure
// shift/mask (Validate requires Banks and RowBytes to be powers of two),
// precomputed at construction.
type DRAM struct {
	cfg       Config
	rowShift  uint
	bankShift uint
	bankMask  uint64
	bankFree  []uint64
	openRow   []uint64
	hasRow    []bool
	stats     Stats
	bursts    []Burst
	// lastRefreshRecorded tracks which refresh windows were already
	// appended to the burst trace.
	lastRefreshRecorded uint64
	recordBursts        bool
}

// New builds a DRAM model. recordBursts enables the activity trace needed
// for memory-probe experiments (it costs memory proportional to traffic,
// so bulk profiling runs disable it).
func New(cfg Config, recordBursts bool) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{
		cfg:          cfg,
		rowShift:     uint(bits.TrailingZeros(uint(cfg.RowBytes))),
		bankShift:    uint(bits.TrailingZeros(uint(cfg.Banks))),
		bankMask:     uint64(cfg.Banks - 1),
		bankFree:     make([]uint64, cfg.Banks),
		openRow:      make([]uint64, cfg.Banks),
		hasRow:       make([]bool, cfg.Banks),
		recordBursts: recordBursts,
	}, nil
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Bursts returns the recorded activity trace (nil unless enabled).
func (d *DRAM) Bursts() []Burst { return d.bursts }

// refreshWindow returns the start and end of the refresh window whose
// interval contains cycle, or ok=false when refresh is disabled.
func (d *DRAM) refreshWindow(cycle uint64) (start, end uint64, ok bool) {
	if d.cfg.RefreshInterval <= 0 {
		return 0, 0, false
	}
	interval := uint64(d.cfg.RefreshInterval)
	n := cycle / interval
	if n == 0 {
		// No refresh is due before the first interval elapses; without
		// this, every cold-boot access would collide with a phantom
		// refresh window at cycle zero.
		return 0, 0, false
	}
	start = n * interval
	end = start + uint64(d.cfg.RefreshDuration)
	return start, end, true
}

// Access services a line read/write request issued at cycle `when` and
// returns the completion cycle and whether the request was delayed by a
// refresh window. Bank conflicts and row-buffer state are modelled; the
// caller (the memory system) is responsible for MSHR arbitration.
func (d *DRAM) Access(when uint64, addr uint64, kind BurstKind) (done uint64, refreshHit bool) {
	bank := int((addr >> d.rowShift) & d.bankMask)
	row := addr >> d.rowShift >> d.bankShift

	start := when
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	// Refresh: if the request would start inside a refresh window, it
	// waits for the window to end.
	if s, e, ok := d.refreshWindow(start); ok {
		d.maybeRecordRefresh(s, e)
		if start >= s && start < e {
			start = e
			refreshHit = true
			d.stats.RefreshHits++
		}
	}

	var lat int
	if d.hasRow[bank] && d.openRow[bank] == row {
		lat = d.cfg.RowHit
		d.stats.RowHits++
	} else {
		lat = d.cfg.RowMiss
		d.stats.RowMisses++
		d.openRow[bank] = row
		d.hasRow[bank] = true
	}
	done = start + uint64(lat)
	d.bankFree[bank] = start + uint64(d.cfg.BusOccupancy)

	switch kind {
	case BurstWrite:
		d.stats.Writes++
	case BurstPrefetch:
		d.stats.Prefetches++
	default:
		d.stats.Reads++
	}
	if d.recordBursts {
		d.bursts = append(d.bursts, Burst{Start: start, End: done, Kind: kind})
	}
	return done, refreshHit
}

func (d *DRAM) maybeRecordRefresh(start, end uint64) {
	if !d.recordBursts || start == 0 || start <= d.lastRefreshRecorded {
		return
	}
	d.lastRefreshRecorded = start
	d.bursts = append(d.bursts, Burst{Start: start, End: end, Kind: BurstRefresh})
	d.stats.RefreshSpans++
}

// ActivitySeries rasterizes the burst trace into a per-sample activity
// level: sample i covers cycles [i*cyclesPerSample, (i+1)*cyclesPerSample)
// and holds the fraction of that interval during which the device was
// active, weighted by burst kind (refresh is internally busy but draws a
// distinct signature; reads/writes toggle I/O pins and radiate strongest).
func ActivitySeries(bursts []Burst, totalCycles uint64, cyclesPerSample int) []float64 {
	if cyclesPerSample <= 0 {
		panic("dram: cyclesPerSample must be positive")
	}
	n := int(totalCycles)/cyclesPerSample + 1
	out := make([]float64, n)
	for _, b := range bursts {
		w := 1.0
		if b.Kind == BurstRefresh {
			w = 0.6
		}
		start, end := b.Start, b.End
		if end > totalCycles {
			end = totalCycles
		}
		for c := start; c < end; {
			i := int(c) / cyclesPerSample
			if i >= n {
				break
			}
			sampleEnd := uint64(i+1) * uint64(cyclesPerSample)
			seg := sampleEnd
			if end < seg {
				seg = end
			}
			out[i] += w * float64(seg-c) / float64(cyclesPerSample)
			c = seg
		}
	}
	// Clamp overlapping bursts to full-scale activity.
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}
