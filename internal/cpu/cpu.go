// Package cpu is the cycle-level processor model: an N-wide in-order
// superscalar core in the style of the paper's SESC configuration ("a
// 4-wide in-order processor, with two levels of caches with random
// replacement policies, which mimics the behavior of the processors
// encountered in many IoT and hand-held devices"). It executes a workload
// instruction stream against the memory system, emits a per-cycle power
// stream to registered sinks, and records the ground truth EMPROF is
// validated against: every LLC miss, and the begin/end of every
// fully-stalled interval the misses cause.
//
// Execution is event-driven: on a fully-idle cycle nothing the core will
// decide next cycle can change until some future timestamp is crossed (a
// register becomes ready, a load/store completes, the divider frees, the
// front-end redirect resolves, or an outstanding miss completes), so the
// core computes the earliest such wake time, emits the idle cycle's power
// for the whole gap in one batch, and jumps `now` straight to the event.
// The skip is bit-identical to ticking every cycle — see Run. Setting
// Exact forces the per-cycle reference path.
package cpu

import (
	"fmt"

	"emprof/internal/mem"
	"emprof/internal/power"
	"emprof/internal/sim"
)

// Config describes the core.
type Config struct {
	// Name labels the core in reports.
	Name string
	// ClockHz is the core clock; it converts cycles to wall time.
	ClockHz float64
	// Width is the in-order issue width.
	Width int
	// FetchQueue is the depth of the decoded-instruction buffer between
	// fetch and issue.
	FetchQueue int
	// LoadQueue and StoreQueue bound outstanding memory operations; they
	// determine how long the core can keep busy under a miss before it
	// fully stalls.
	LoadQueue  int
	StoreQueue int
	// Regs is the number of architectural registers tracked by the
	// scoreboard.
	Regs int
	// BranchPenalty is the fetch-redirect bubble of a taken branch.
	BranchPenalty int
	// OoOWindow, when > 1, enables scoreboard out-of-order issue: ready
	// instructions may issue from the first OoOWindow fetch-queue slots,
	// subject to WAW/WAR hazards, with memory and control instructions
	// kept in order. It models the paper's Section II-B observation that
	// "a sophisticated out-of-order processor" averts the full stall for
	// tens of cycles longer than the in-order cores of IoT devices.
	// 0 or 1 selects pure in-order issue (the default and the paper's
	// device class).
	OoOWindow int
	// Latencies per op class, in cycles.
	IntALULat, IntMulLat, IntDivLat int
	FPALULat, FPMulLat, FPDivLat    int
	// Power is the unit-level power model.
	Power power.Weights
}

// Validate checks the core configuration.
func (c Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("cpu %s: clock %v <= 0", c.Name, c.ClockHz)
	}
	if c.Width < 1 || c.Width > 8 {
		return fmt.Errorf("cpu %s: width %d out of [1,8]", c.Name, c.Width)
	}
	if c.FetchQueue < c.Width {
		return fmt.Errorf("cpu %s: fetch queue %d < width %d", c.Name, c.FetchQueue, c.Width)
	}
	if c.FetchQueue > 64 {
		return fmt.Errorf("cpu %s: fetch queue %d > 64", c.Name, c.FetchQueue)
	}
	if c.OoOWindow < 0 || c.OoOWindow > c.FetchQueue {
		return fmt.Errorf("cpu %s: OoO window %d out of [0, fetch queue]", c.Name, c.OoOWindow)
	}
	if c.LoadQueue < 1 || c.StoreQueue < 1 {
		return fmt.Errorf("cpu %s: load/store queues must be >= 1", c.Name)
	}
	if c.Regs < 8 {
		return fmt.Errorf("cpu %s: too few registers (%d)", c.Name, c.Regs)
	}
	if c.Regs > scoreboardSize {
		return fmt.Errorf("cpu %s: %d registers > scoreboard limit %d", c.Name, c.Regs, scoreboardSize)
	}
	for _, l := range []int{c.IntALULat, c.IntMulLat, c.IntDivLat, c.FPALULat, c.FPMulLat, c.FPDivLat} {
		if l < 1 {
			return fmt.Errorf("cpu %s: op latency %d < 1", c.Name, l)
		}
	}
	return nil
}

// StallInterval is one ground-truth fully-stalled interval caused by LLC
// miss(es): the unit the paper calls a "MISS" ("a sequence of stalled
// cycles that are all caused by one LLC miss or even by several
// highly-overlapped LLC misses").
type StallInterval struct {
	// Start is the first fully-stalled cycle, End is one past the last.
	Start, End uint64
	// Stalled is the number of actually fully-stalled cycles inside
	// [Start, End): equal to End-Start for raw intervals, possibly less
	// after merging across brief busy gaps (see MergeStalls).
	Stalled uint64
	// Misses is how many distinct LLC misses overlapped the interval.
	Misses int
	// RefreshHit is true when any contributing miss collided with DRAM
	// refresh.
	RefreshHit bool
	// Region is the workload region executing when the stall began.
	Region uint16
}

// Cycles returns the interval's length.
func (s StallInterval) Cycles() uint64 { return s.End - s.Start }

// Result summarises one simulated run.
type Result struct {
	// Cycles is the total execution time.
	Cycles uint64
	// Instructions is the dynamic instruction count.
	Instructions uint64
	// Stalls is the ground-truth list of LLC-miss-induced full stalls.
	Stalls []StallInterval
	// Misses is the ground-truth LLC miss list (shared with the memory
	// system, with stall attribution filled in).
	Misses []mem.MissRecord
	// RegionSpans records when each workload region executed.
	RegionSpans []sim.RegionSpan
	// FullStallCycles counts all fully-stalled cycles attributed to LLC
	// misses.
	FullStallCycles uint64
	// OtherStallCycles counts fully-idle cycles not attributable to LLC
	// misses (dependence chains, branch bubbles).
	OtherStallCycles uint64
	// Mem is a copy of the memory-system counters.
	Mem mem.SystemStats
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// StallFraction returns the fraction of cycles fully stalled on LLC
// misses — the paper's "Miss Latency (%Total Time)" metric of Table IV.
func (r *Result) StallFraction() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.FullStallCycles) / float64(r.Cycles)
}

// Core is the processor model bound to a memory system.
type Core struct {
	cfg Config
	ms  *mem.System

	sinks []power.Sink

	// BatchCycles and Exact are test hooks; neither changes what the
	// sinks or the Result see. BatchCycles is the block size of the
	// power fan-out: per-cycle values are buffered and handed to every
	// sink in one PushBlock call per this many cycles (0 selects the
	// default, 1 hands over one cycle at a time).
	BatchCycles int
	batch       []float64

	// Exact disables event-driven skip-ahead, ticking every cycle through
	// the full fetch/issue/stall pipeline. This is the reference
	// implementation the skip-ahead path is property-tested and fuzzed
	// against; results are bit-identical either way, Exact is only slower.
	Exact bool

	// MaxCycles aborts runaway simulations (0 = unlimited).
	MaxCycles uint64

	// stallScratch is the reused stall-attribution set: the distinct miss
	// IDs overlapping the current stall interval (bounded by the record
	// window scanned per stall cycle, so linear membership tests beat a
	// freshly allocated map).
	stallScratch []int
}

// defaultBatchCycles amortises sink interface calls, filter updates and
// noise draws without holding a meaningful amount of memory (32 KiB).
const defaultBatchCycles = 4096

// scoreboardSize bounds Config.Regs so the run-time scoreboard can be a
// fixed array indexed with a mask (no per-operand bounds check in the
// issue path). Register numbers in valid traces are < Config.Regs.
const (
	scoreboardSize = 256
	scoreboardMask = scoreboardSize - 1
)

// New builds a core over the given memory system.
func New(cfg Config, ms *mem.System) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg, ms: ms}, nil
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Mem returns the attached memory system.
func (c *Core) Mem() *mem.System { return c.ms }

// AddSink registers a power consumer. It receives the per-cycle power
// stream in blocks of BatchCycles cycles, the last block short.
func (c *Core) AddSink(s power.Sink) { c.sinks = append(c.sinks, s) }

// fetchRing is the decoded-instruction buffer as a fixed-capacity ring
// (power-of-two sized, masked indexing). The previous slice
// representation (`fq = append(fq, ...)` paired with `fq = fq[1:]`)
// shrank the backing array's usable capacity on every pop, so append
// reallocated roughly once per fetched instruction — the single largest
// allocation source in the simulator. Out-of-order issue marks entries
// done via a per-slot bitmask rather than a field, keeping push a plain
// struct copy.
type fetchRing struct {
	buf  []sim.Inst
	mask int
	head int
	n    int
	done uint64 // bit per buffer slot: issued out of order
}

// newFetchRing sizes the ring for depth queued instructions.
func newFetchRing(depth int) fetchRing {
	size := 1
	for size < depth {
		size <<= 1
	}
	return fetchRing{buf: make([]sim.Inst, size), mask: size - 1}
}

// at returns slot i (0 = oldest).
func (r *fetchRing) at(i int) *sim.Inst {
	return &r.buf[(r.head+i)&r.mask]
}

// isDone reports whether slot i was already issued out of order.
func (r *fetchRing) isDone(i int) bool {
	return r.done&(1<<uint((r.head+i)&r.mask)) != 0
}

// markDone flags slot i as issued out of order.
func (r *fetchRing) markDone(i int) {
	r.done |= 1 << uint((r.head+i)&r.mask)
}

// push appends a newly fetched instruction.
func (r *fetchRing) push(in *sim.Inst) {
	idx := (r.head + r.n) & r.mask
	r.buf[idx] = *in
	r.done &^= 1 << uint(idx)
	r.n++
}

// pop removes the oldest entry.
func (r *fetchRing) pop() {
	r.head = (r.head + 1) & r.mask
	r.n--
}

// noWake means no future wake event was discovered this cycle.
const noWake = ^uint64(0)

// Run executes the workload stream to completion and returns the run
// summary with ground truth.
//
// Skip-ahead exactness: when a cycle is fully idle (nothing fetched,
// nothing issued), every decision the per-cycle loop would make on the
// following cycles is a pure function of unchanged state and the cycle
// number, and each comparison against the cycle number flips exactly when
// one of a small set of future timestamps is crossed: a blocking
// register's ready time, the head of the (sorted) load/store completion
// queues, the divider-free time, the front-end's fetchReady, or the
// earliest outstanding-miss completion. The loop collects every such
// timestamp it actually compared against while deciding this cycle was
// idle, takes the minimum, and replays the idle cycle analytically for the
// whole gap: stall/idle counters advance by the gap length, stall
// attribution is applied over the cycle range in closed form, and the
// (constant — no miss completes strictly inside the gap, so even the
// outstanding-miss count is frozen) idle power is emitted for every
// skipped cycle through the same batch boundaries one append per cycle
// would produce.
func (c *Core) Run(stream sim.Stream) (*Result, error) {
	cfg := &c.cfg
	pw := &c.cfg.Power
	// stallPower is what Weights.CycleRef returns for a fully-stalled cycle:
	// only Base and MissWait contribute, and the zero activity terms are
	// exact floating-point no-ops, so hoisting the sum out of the loop is
	// bit-identical.
	stallPower := pw.Base + pw.MissWait
	maxCycles := c.MaxCycles
	exact := c.Exact
	bs := c.BatchCycles
	if bs <= 0 {
		bs = defaultBatchCycles
	}
	if cap(c.batch) != bs || len(c.batch) != 0 {
		c.batch = make([]float64, 0, bs)
	}

	r := &runState{
		c:          c,
		ms:         c.ms,
		fq:         newFetchRing(cfg.FetchQueue),
		loadDone:   make([]uint64, 0, cfg.LoadQueue),
		storeDone:  make([]uint64, 0, cfg.StoreQueue),
		lastILine:  ^uint64(0),
		lineMask:   uint64(c.ms.L1I().Config().LineBytes - 1),
		missesLive: true,
		stallIDs:   c.stallScratch[:0],

		width:         cfg.Width,
		fqDepth:       cfg.FetchQueue,
		oooWindow:     cfg.OoOWindow,
		loadQ:         cfg.LoadQueue,
		storeQ:        cfg.StoreQueue,
		branchPenalty: uint64(cfg.BranchPenalty),
		latIntDiv:     uint64(cfg.IntDivLat),
		latFPDiv:      uint64(cfg.FPDivLat),
	}
	r.initOpTables(cfg)
	// The final partial batch must reach the sinks on every exit path —
	// normal termination and the MaxCycles abort alike — and the stall
	// scratch goes back to the core for reuse either way.
	defer r.finish()
	res := &Result{}

	// inp points at the next not-yet-decoded instruction: into the
	// stream's current block when it supports BlockStream (no per
	// instruction interface call or copy), or at next otherwise. nil
	// means nothing is buffered.
	//
	// With an in-order core over a BlockStream the fetch queue itself is
	// virtual: queued instructions are the window pending[vstart:pidx] of
	// the current block, so a fetch is a bounds check and an index
	// increment, not a struct copy into the ring. Entries still queued
	// when the block runs out are spilled into the ring (they are older
	// than anything fetched later, so ring-then-window preserves program
	// order); qn tracks the total queue length across both parts.
	// Out-of-order issue needs per-slot done bits, so it keeps copying
	// through the ring (virtualQ false, window always empty, qn == fq.n).
	var (
		inp     *sim.Inst
		next    sim.Inst
		pending []sim.Inst
		pidx    int
		vstart  int
		qn      int
	)
	bstream, blockOK := stream.(sim.BlockStream)
	virtualQ := blockOK && r.oooWindow <= 1

	for {
		r.wake = noWake
		now := r.now
		// --- Fetch ---
		r.fetchedThisCycle = false
		if !r.streamDone && r.fetchReady <= now {
			for qn < r.fqDepth {
				if inp == nil {
					if blockOK {
						if pidx >= len(pending) {
							// Spill still-queued window entries before
							// the block's memory is invalidated.
							for i := vstart; i < pidx; i++ {
								r.fq.push(&pending[i])
							}
							pending = bstream.NextBlock()
							pidx, vstart = 0, 0
							if len(pending) == 0 {
								r.streamDone = true
								break
							}
						}
						inp = &pending[pidx]
					} else {
						if !stream.Next(&next) {
							r.streamDone = true
							break
						}
						inp = &next
					}
				}
				line := inp.PC &^ r.lineMask
				if line != r.lastILine {
					rr := r.ms.Access(now, inp.PC, inp.PC, mem.KindInst)
					r.lastILine = line
					if !rr.L1Hit {
						r.missesLive = true
						// Fetch bubbles until the line arrives; L1I
						// contents were updated, so the next attempt hits.
						r.fetchReady = rr.Ready
						r.fetchWaitIsMiss = rr.LLCMiss || rr.Coalesced
						if r.fetchReady > now {
							break
						}
					}
				}
				if virtualQ {
					pidx++
				} else {
					r.fq.push(inp)
					if blockOK {
						pidx++
						vstart++
					}
				}
				qn++
				redirect := inp.Taken && inp.Op.IsCtl()
				inp = nil
				r.fetchedThisCycle = true
				if redirect {
					// Redirect: bubble the front-end.
					r.fetchReady = now + r.branchPenalty
					r.fetchWaitIsMiss = false
					r.lastILine = ^uint64(0)
					break
				}
				if qn >= r.fqDepth {
					break
				}
			}
		}
		if !r.streamDone && r.fetchReady > now {
			r.noteWake(r.fetchReady)
		}

		// --- Issue (up to Width; in order, or scoreboard-OoO within a
		// window when configured) ---
		r.act = power.Activity{FetchActive: r.fetchedThisCycle}
		r.issued = 0
		r.blockedByMiss = false

		if r.oooWindow <= 1 {
			// Pure in-order issue from the queue head (ring first — its
			// entries predate the window). The body below duplicates
			// tryIssue's operand checks and its simple-op default so the
			// common case issues without a call; ops with side effects
			// beyond the scoreboard (simpleLat 0) fall through to
			// tryIssue.
			for r.issued < r.width && qn > 0 {
				var in *sim.Inst
				if r.fq.n > 0 {
					in = r.fq.at(0)
				} else {
					in = &pending[vstart]
				}
				if in.Region != r.curRegion {
					r.enterRegion(in)
				}
				if t := r.regReady[in.Src1&scoreboardMask]; in.Src1 >= 0 && t > now {
					r.blockedByMiss = r.blockedByMiss || r.missReg[in.Src1&scoreboardMask]
					r.noteWake(t)
					break
				}
				if t := r.regReady[in.Src2&scoreboardMask]; in.Src2 >= 0 && t > now {
					r.blockedByMiss = r.blockedByMiss || r.missReg[in.Src2&scoreboardMask]
					r.noteWake(t)
					break
				}
				if lat := r.simpleLat[in.Op]; lat != 0 {
					switch r.simpleCnt[in.Op] {
					case cntIntALU:
						r.act.IntALU++
					case cntIntMulDiv:
						r.act.IntMulDiv++
					case cntFPALU:
						r.act.FPALU++
					case cntFPMulDiv:
						r.act.FPMulDiv++
					}
					if in.Dst >= 0 {
						r.regReady[in.Dst&scoreboardMask] = now + lat
						r.missReg[in.Dst&scoreboardMask] = false
					}
					r.issued++
					r.instructions++
					if r.fq.n > 0 {
						r.fq.pop()
					} else {
						vstart++
					}
					qn--
					continue
				}
				if !r.tryIssue(in) {
					break
				}
				if r.fq.n > 0 {
					r.fq.pop()
				} else {
					vstart++
				}
				qn--
			}
		} else {
			r.issueOoO()
			// Retire issued entries from the head.
			for r.fq.n > 0 && r.fq.isDone(0) {
				r.fq.pop()
				qn--
			}
		}
		if qn == 0 && r.fetchReady > now {
			// Front-end bubble: memory-attributable only for I-side
			// LLC misses.
			r.blockedByMiss = r.fetchWaitIsMiss
		}

		// --- Stall accounting & power ---
		outMisses := 0
		if r.missesLive {
			outMisses = r.ms.OutstandingMisses(now)
			if outMisses == 0 {
				r.missesLive = false
			}
		}
		r.act.Issued = float64(r.issued)
		r.act.MissesOut = float64(outMisses)

		fullyIdle := r.issued == 0 && !r.fetchedThisCycle
		memStall := fullyIdle && outMisses > 0 && r.blockedByMiss
		var cyclePower float64
		if memStall {
			r.fullStall++
			if !r.inStall {
				r.inStall = true
				r.curStall = StallInterval{Start: now, Region: r.curRegion}
				r.stallIDs = r.stallIDs[:0]
			}
			// Attribute every outstanding miss to this interval. Records
			// are detect-ordered; outstanding ones are always among the
			// most recent, so a bounded backward scan suffices.
			r.attributeStall(now, now+1)
			// Power: fully stalled core draws only its baseline.
			cyclePower = stallPower
		} else {
			if fullyIdle {
				r.otherStall++
			}
			r.closeStall()
			// An active unpipelined divider keeps switching even when no
			// instruction issues, so dependence stalls on a divide do not
			// look like memory stalls in the signal.
			if r.divFreeAt > now {
				r.act.IntMulDiv++
			}
			cyclePower = pw.CycleRef(&r.act)
		}
		// The append is inline: a method call (it would carry the flush
		// call) costs more than the append on this, the hottest line in
		// the loop.
		c.batch = append(c.batch, cyclePower)
		if len(c.batch) == cap(c.batch) {
			c.flushBatch()
		}

		// terminating mirrors the end-of-cycle termination condition; it
		// is hoisted above the skip because an idle-but-finished core
		// (e.g. a divider still draining with nothing waiting on it) must
		// stop now, not sleep until its wake event.
		terminating := false
		if r.streamDone && inp == nil && qn == 0 && outMisses == 0 {
			r.loadDone = popCompleted(r.loadDone, now)
			r.storeDone = popCompleted(r.storeDone, now)
			terminating = len(r.loadDone) == 0 && len(r.storeDone) == 0
		}

		// --- Event-driven skip-ahead ---
		if fullyIdle && !terminating && !exact {
			r.loadDone = popCompleted(r.loadDone, now)
			r.storeDone = popCompleted(r.storeDone, now)
			if len(r.loadDone) > 0 {
				r.noteWake(r.loadDone[0])
			}
			if len(r.storeDone) > 0 {
				r.noteWake(r.storeDone[0])
			}
			if r.divFreeAt > now {
				r.noteWake(r.divFreeAt)
			}
			if comp, ok := r.ms.OldestOutstanding(now); ok {
				r.noteWake(comp)
			}
			gapEnd := r.wake
			if maxCycles > 0 && gapEnd > maxCycles {
				// Clamp (also the no-event case: an idle core with no
				// wake event spins identically until the abort).
				gapEnd = maxCycles
			}
			if gapEnd != noWake && gapEnd > now+1 {
				gap := gapEnd - now - 1
				if memStall {
					r.fullStall += gap
					r.attributeStall(now+1, gapEnd)
				} else {
					r.otherStall += gap
				}
				c.pushN(cyclePower, gap)
				now = gapEnd - 1
			}
		}

		now++
		r.now = now
		if maxCycles > 0 && now >= maxCycles {
			return nil, fmt.Errorf("cpu %s: exceeded MaxCycles=%d", cfg.Name, c.MaxCycles)
		}

		// --- Termination ---
		if terminating {
			break
		}
	}

	r.closeStall()
	r.closeRegion()

	res.Cycles = r.now
	res.Instructions = r.instructions
	res.Stalls = r.stalls
	res.Misses = c.ms.Misses()
	res.RegionSpans = r.spans
	res.FullStallCycles = r.fullStall
	res.OtherStallCycles = r.otherStall
	res.Mem = c.ms.Stats()
	return res, nil
}

// cntNone and friends select which Activity counter a simple op bumps
// (see runState.initOpTables).
const (
	cntNone = iota
	cntIntALU
	cntIntMulDiv
	cntFPALU
	cntFPMulDiv
)

// runState is the flat hot-loop state of one Run. Earlier revisions kept
// this state in closure-captured locals; the compiler then boxed every
// captured variable in its own heap cell and each touch in the per-cycle
// loop paid an extra pointer chase. One struct keeps the fields
// contiguous and lets the helpers be ordinary methods.
type runState struct {
	c  *Core
	ms *mem.System

	// Scoreboard and queues. Fixed-size arrays (Validate bounds Regs by
	// scoreboardSize) let operand reads index with a mask and no bounds
	// check.
	regReady [scoreboardSize]uint64
	// missReg marks registers whose pending value comes from an LLC miss,
	// so idle cycles can be attributed to the memory system only when the
	// miss is actually what blocks progress.
	missReg [scoreboardSize]bool
	fq      fetchRing
	// loadDone/storeDone are kept sorted ascending, so completed entries
	// are a prefix and the earliest completion is the head.
	loadDone  []uint64
	storeDone []uint64

	now          uint64
	instructions uint64
	fetchReady   uint64
	divFreeAt    uint64
	lastILine    uint64
	lineMask     uint64
	// wake is the earliest future timestamp the current cycle's
	// decisions compared now against; the skip-ahead gap ends there.
	wake       uint64
	streamDone bool
	// fetchWaitIsMiss records whether the current front-end bubble is
	// due to an instruction-side LLC miss (as opposed to an LLC-hit
	// refill or a branch redirect).
	fetchWaitIsMiss bool
	// missesLive is false only when the memory system provably has no
	// outstanding misses: an L1 hit can never allocate or extend an MSHR,
	// so once OutstandingMisses reports zero the scan can be skipped
	// until some access misses L1 again.
	missesLive bool

	// Per-cycle issue state.
	act              power.Activity
	issued           int
	fetchedThisCycle bool
	// blockedByMiss records whether the reason issue stopped this
	// cycle is an outstanding LLC miss (dependence on a missing load,
	// or a memory queue clogged by one); idle cycles are attributed
	// to the memory system only then.
	blockedByMiss bool

	// Stall ground truth.
	inStall    bool
	curStall   StallInterval
	stallIDs   []int
	stalls     []StallInterval
	fullStall  uint64
	otherStall uint64

	// Region tracking.
	curRegion   uint16
	regionStart uint64
	spans       []sim.RegionSpan

	// Hoisted configuration.
	width         int
	fqDepth       int
	oooWindow     int
	loadQ         int
	storeQ        int
	branchPenalty uint64
	latIntDiv     uint64
	latFPDiv      uint64
	// simpleLat is the issue latency per op class for ops whose issue
	// touches only the scoreboard; 0 (never a real latency) marks ops
	// with side effects that must take tryIssue's explicit cases.
	// simpleCnt is the Activity counter the op bumps.
	simpleLat [256]uint64
	simpleCnt [256]uint8
}

// initOpTables fills the per-op issue tables. The entries mirror
// tryIssue's default branch (unknown classes execute as single-cycle ALU
// ops with no unit activity).
func (r *runState) initOpTables(cfg *Config) {
	for op := range r.simpleLat {
		r.simpleLat[op] = uint64(cfg.IntALULat)
		r.simpleCnt[op] = cntNone
	}
	set := func(op sim.Op, lat int, cnt uint8) {
		r.simpleLat[op] = uint64(lat)
		r.simpleCnt[op] = cnt
	}
	set(sim.OpIntALU, cfg.IntALULat, cntIntALU)
	set(sim.OpBranch, cfg.IntALULat, cntIntALU)
	set(sim.OpCall, cfg.IntALULat, cntIntALU)
	set(sim.OpReturn, cfg.IntALULat, cntIntALU)
	set(sim.OpIntMul, cfg.IntMulLat, cntIntMulDiv)
	set(sim.OpFPALU, cfg.FPALULat, cntFPALU)
	set(sim.OpFPMul, cfg.FPMulLat, cntFPMulDiv)
	r.simpleLat[sim.OpLoad] = 0
	r.simpleLat[sim.OpStore] = 0
	r.simpleLat[sim.OpIntDiv] = 0
	r.simpleLat[sim.OpFPDiv] = 0
	r.simpleLat[sim.OpTouch] = 0
}

// finish returns the stall scratch to the core and flushes the last
// partial power batch; deferred in Run so both happen on every exit path.
func (r *runState) finish() {
	r.c.stallScratch = r.stallIDs[:0]
	r.c.flushBatch()
}

// noteWake records a future timestamp the current cycle compared now
// against; the earliest one bounds the skip-ahead gap.
func (r *runState) noteWake(t uint64) {
	if t > r.now && t < r.wake {
		r.wake = t
	}
}

// closeStall finalises the open stall interval, if any.
func (r *runState) closeStall() {
	if !r.inStall {
		return
	}
	r.curStall.End = r.now
	r.curStall.Stalled = r.now - r.curStall.Start
	r.curStall.Misses = len(r.stallIDs)
	r.stalls = append(r.stalls, r.curStall)
	r.inStall = false
}

// closeRegion finalises the current region span, if non-empty.
func (r *runState) closeRegion() {
	if r.now > r.regionStart {
		r.spans = append(r.spans, sim.RegionSpan{Region: r.curRegion, StartCycle: r.regionStart, EndCycle: r.now})
	}
}

// enterRegion switches region bookkeeping to in's region; callers guard
// on in.Region != r.curRegion.
func (r *runState) enterRegion(in *sim.Inst) {
	r.closeRegion()
	r.curRegion = in.Region
	r.regionStart = r.now
	r.ms.CurrentRegion = in.Region
}

// attributeStall applies the per-cycle stall attribution over the
// whole cycle range [from, to) in closed form: a miss record overlaps
// cycle t iff Detect <= t < Complete, so over the range its
// contribution is the clamp [max(Detect,from), min(Complete,to)).
// Running it per cycle (from+1 == to) reproduces the reference loop
// exactly; running it once per gap is equivalent because the record
// window (len(misses)) cannot change while the core is idle.
func (r *runState) attributeStall(from, to uint64) {
	misses := r.ms.Misses()
	lo := len(misses) - 64
	if lo < 0 {
		lo = 0
	}
	for id := len(misses) - 1; id >= lo; id-- {
		m := &misses[id]
		s, e := m.Detect, m.Complete
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if s >= e {
			continue
		}
		seen := false
		for _, sid := range r.stallIDs {
			if sid == id {
				seen = true
				break
			}
		}
		if !seen {
			r.stallIDs = append(r.stallIDs, id)
			if !m.Stalled {
				m.Stalled = true
				m.StallStart = s
			}
			if m.RefreshHit {
				r.curStall.RefreshHit = true
			}
		}
		m.StallEnd = e
	}
}

// tryIssue attempts to issue one instruction and reports whether it
// issued; an operand or a structural resource (queue, divider) can block
// it. Every comparison against a future timestamp notes it as a
// wake event for skip-ahead. The in-order loop in Run inlines the
// operand checks and the default branch; this full version serves
// out-of-order issue and the side-effecting op classes.
func (r *runState) tryIssue(in *sim.Inst) bool {
	now := r.now
	if t := r.regReady[in.Src1&scoreboardMask]; in.Src1 >= 0 && t > now {
		r.blockedByMiss = r.blockedByMiss || r.missReg[in.Src1&scoreboardMask]
		r.noteWake(t)
		return false
	}
	if t := r.regReady[in.Src2&scoreboardMask]; in.Src2 >= 0 && t > now {
		r.blockedByMiss = r.blockedByMiss || r.missReg[in.Src2&scoreboardMask]
		r.noteWake(t)
		return false
	}
	switch in.Op {
	case sim.OpTouch:
		// Warm install: no timing, no miss record.
		r.ms.WarmLine(in.Addr, false)
	case sim.OpLoad:
		if len(r.loadDone) >= r.loadQ {
			r.loadDone = popCompleted(r.loadDone, now)
		}
		if len(r.loadDone) >= r.loadQ {
			r.blockedByMiss = r.blockedByMiss || r.ms.OutstandingMisses(now) > 0
			r.noteWake(r.loadDone[0])
			return false
		}
		rr := r.ms.Access(now, in.PC, in.Addr, mem.KindLoad)
		if !rr.L1Hit {
			r.missesLive = true
		}
		if in.Dst >= 0 {
			r.regReady[in.Dst&scoreboardMask] = rr.Ready
			r.missReg[in.Dst&scoreboardMask] = rr.LLCMiss || rr.Coalesced
		}
		r.loadDone = insertDone(r.loadDone, rr.Ready)
		r.act.MemAccesses++
	case sim.OpStore:
		if len(r.storeDone) >= r.storeQ {
			r.storeDone = popCompleted(r.storeDone, now)
		}
		if len(r.storeDone) >= r.storeQ {
			r.blockedByMiss = r.blockedByMiss || r.ms.OutstandingMisses(now) > 0
			r.noteWake(r.storeDone[0])
			return false
		}
		rr := r.ms.Access(now, in.PC, in.Addr, mem.KindStore)
		if !rr.L1Hit {
			r.missesLive = true
		}
		r.storeDone = insertDone(r.storeDone, rr.Ready)
		r.act.MemAccesses++
	case sim.OpIntDiv, sim.OpFPDiv:
		// Unpipelined divider.
		if r.divFreeAt > now {
			r.noteWake(r.divFreeAt)
			return false
		}
		lat := r.latIntDiv
		if in.Op == sim.OpFPDiv {
			lat = r.latFPDiv
		}
		r.divFreeAt = now + lat
		if in.Dst >= 0 {
			r.regReady[in.Dst&scoreboardMask] = now + lat
			r.missReg[in.Dst&scoreboardMask] = false
		}
		if in.Op == sim.OpIntDiv {
			r.act.IntMulDiv++
		} else {
			r.act.FPMulDiv++
		}
	default:
		lat := r.simpleLat[in.Op]
		switch r.simpleCnt[in.Op] {
		case cntIntALU:
			r.act.IntALU++
		case cntIntMulDiv:
			r.act.IntMulDiv++
		case cntFPALU:
			r.act.FPALU++
		case cntFPMulDiv:
			r.act.FPMulDiv++
		}
		if in.Dst >= 0 {
			r.regReady[in.Dst&scoreboardMask] = now + lat
			r.missReg[in.Dst&scoreboardMask] = false
		}
	}
	r.issued++
	r.instructions++
	return true
}

// issueOoO performs scoreboard out-of-order issue within the configured
// window: any ready instruction in the first OoOWindow slots may issue,
// except that (a) memory operations stay in program order relative to
// each other, (b) control transfers issue only from the oldest unissued
// slot, and (c) WAW/WAR hazards against older unissued instructions block
// a younger one.
func (r *runState) issueOoO() {
	window := r.oooWindow
	if window > r.fq.n {
		window = r.fq.n
	}
	memBlocked := false
	for slot := 0; slot < window && r.issued < r.width; slot++ {
		if r.fq.isDone(slot) {
			continue
		}
		in := r.fq.at(slot)
		// Memory order: a younger memory op waits for all older ones.
		if in.Op.IsMem() && memBlocked {
			continue
		}
		// Control transfers only issue from the oldest unissued slot.
		oldest := true
		for k := 0; k < slot; k++ {
			if !r.fq.isDone(k) {
				oldest = false
				break
			}
		}
		if in.Op.IsCtl() && !oldest {
			if in.Op.IsMem() {
				memBlocked = true
			}
			continue
		}
		// WAW/WAR against older unissued instructions.
		hazard := false
		for k := 0; k < slot && !hazard; k++ {
			if r.fq.isDone(k) {
				continue
			}
			old := r.fq.at(k)
			if in.Dst >= 0 && (old.Dst == in.Dst || old.Src1 == in.Dst || old.Src2 == in.Dst) {
				hazard = true
			}
		}
		if hazard {
			if in.Op.IsMem() {
				memBlocked = true
			}
			continue
		}
		if oldest && in.Region != r.curRegion {
			r.enterRegion(in)
		}
		if r.tryIssue(in) {
			r.fq.markDone(slot)
		} else if in.Op.IsMem() {
			memBlocked = true
		}
	}
}

// pushN buffers n consecutive cycles of the same power value; every full
// batch fans out to the sinks as one block. The buffer is sized in Run, so
// a full batch is cap(c.batch), and the block boundaries fall on multiples
// of it however the cycles arrive.
func (c *Core) pushN(p float64, n uint64) {
	for n > 0 {
		room := uint64(cap(c.batch) - len(c.batch))
		if room > n {
			room = n
		}
		base := len(c.batch)
		c.batch = c.batch[:base+int(room)]
		fill := c.batch[base:]
		for i := range fill {
			fill[i] = p
		}
		if len(c.batch) == cap(c.batch) {
			c.flushBatch()
		}
		n -= room
	}
}

// flushBatch delivers any buffered cycles to the sinks.
func (c *Core) flushBatch() {
	if len(c.batch) > 0 {
		for _, s := range c.sinks {
			s.PushBlock(c.batch)
		}
		c.batch = c.batch[:0]
	}
}

// popCompleted removes the completed prefix (done <= now) of a sorted
// completion queue.
func popCompleted(q []uint64, now uint64) []uint64 {
	k := 0
	for k < len(q) && q[k] <= now {
		k++
	}
	if k == 0 {
		return q
	}
	return q[:copy(q, q[k:])]
}

// insertDone inserts v into the sorted completion queue.
func insertDone(q []uint64, v uint64) []uint64 {
	q = append(q, v)
	i := len(q) - 1
	for i > 0 && q[i-1] > v {
		q[i] = q[i-1]
		i--
	}
	q[i] = v
	return q
}
