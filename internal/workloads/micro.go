// Package workloads generates the instruction traces the paper profiles:
// the engineered microbenchmark of Fig. 6 with its TM (total misses) and
// CM (consecutive misses) parameters, small kernels reproducing the
// signal-shape studies of Figs. 1–5, statistical generators reproducing
// the memory character of the ten SPEC CPU2000 integer benchmarks of
// Tables III/IV, and a phased boot-sequence workload for Fig. 13.
package workloads

import (
	"fmt"

	"emprof/internal/sim"
)

// Region identifiers shared by the microbenchmark workloads, used as
// ground truth for slicing the signal.
const (
	RegionPageTouch uint16 = 1
	RegionMarkerA   uint16 = 2 // blank loop before the miss section
	RegionMisses    uint16 = 3
	RegionMarkerB   uint16 = 4 // blank loop after the miss section
)

// Register conventions for generated code.
const (
	regChain   = 1 // serial PRNG/address chain
	regAddr    = 2
	regLoadDst = 8  // 8..15 rotate as load destinations
	regCounter = 16 // 16..23 loop counters
	regScratch = 24 // 24..39 scratch
)

// MicroParams configures the Fig. 6 microbenchmark.
type MicroParams struct {
	// TM is the total number of LLC misses the benchmark engineers.
	TM int
	// CM is the number of consecutive misses per group; a
	// micro-function call separates groups.
	CM int
	// Pages is the number of pages in the array; the working set
	// Pages×PageBytes must far exceed the LLC so every randomized access
	// misses.
	Pages int
	// PageBytes and LineBytes describe the layout (defaults 4096/64).
	PageBytes, LineBytes int
	// BlankIters is the iteration count of each marker loop.
	BlankIters int
	// CallWork is the ALU instruction count of the micro-function call.
	CallWork int
	// IterWork is the ALU instruction count of each miss-loop iteration's
	// address computation, modelling the two library rand() calls plus
	// address arithmetic of Fig. 6 (the paper's Fig. 7b shows misses
	// spaced on the order of a microsecond apart, i.e. the per-iteration
	// compute dominates the loop).
	IterWork int
	// TouchWork is the ALU instruction count modelling the kernel's
	// page-fault handling per touched page.
	TouchWork int
	// Seed drives address randomization.
	Seed uint64
}

// DefaultMicroParams returns parameters matching the paper's setup: a
// working set far larger than any device's LLC and marker loops long
// enough to be unambiguous in the signal.
func DefaultMicroParams(tm, cm int) MicroParams {
	return MicroParams{
		TM:         tm,
		CM:         cm,
		Pages:      4096, // 16 MB working set at 4 KB pages
		PageBytes:  4096,
		LineBytes:  64,
		BlankIters: 20000,
		CallWork:   200,
		IterWork:   3600,
		TouchWork:  60,
		Seed:       0x1234,
	}
}

// Validate checks the parameters.
func (p MicroParams) Validate() error {
	if p.TM <= 0 || p.CM <= 0 {
		return fmt.Errorf("workloads: TM=%d CM=%d must be positive", p.TM, p.CM)
	}
	if p.PageBytes <= 0 || p.LineBytes <= 0 || p.PageBytes%p.LineBytes != 0 {
		return fmt.Errorf("workloads: bad page/line geometry %d/%d", p.PageBytes, p.LineBytes)
	}
	linesPerPage := p.PageBytes / p.LineBytes
	if linesPerPage < 2 {
		return fmt.Errorf("workloads: need at least 2 lines per page")
	}
	// Line 0 of each page is used by the page touch; random accesses use
	// the rest.
	if p.TM > p.Pages*(linesPerPage-1)/2 {
		return fmt.Errorf("workloads: TM=%d too large for %d pages", p.TM, p.Pages)
	}
	if p.BlankIters < 1 || p.CallWork < 1 || p.IterWork < 1 || p.TouchWork < 0 {
		return fmt.Errorf("workloads: blank iters and work counts must be >= 1")
	}
	return nil
}

// arrayBase is where the microbenchmark's array lives; code lives lower.
const arrayBase = 0x1000_0000

// Microbenchmark builds the Fig. 6 trace:
//
//	// perform page touch
//	for (# pages_to_be_used) load(page(cache_line_0))
//	exec_blank_loop()
//	while (num_accesses != TM) {
//	    page = rand(); cache_line = rand()
//	    load(page*PAGE_SIZE + cache_line*CACHE_LINE_SIZE)
//	    if (num_accesses % CM == 0) micro_function_call()
//	    num_accesses++
//	}
//	exec_blank_loop()
//
// Every randomized access is to a distinct cache line (never line 0 of a
// page, which the page touch may have left cached), and consecutive
// addresses are serialized through the value-dependent chain register so
// each miss produces its own stall — the randomization that "defeats any
// stride-based pre-fetching".
//
// The returned stream generates the trace lazily, a loop iteration at a
// time into a reused buffer: the default-parameter trace is ~900k
// instructions (~40 MB materialized), which used to dominate simulate-e2e
// allocation. The tests keep the one-shot builder (materializeMicro) as
// the reference the stream is checked element for element against.
func Microbenchmark(p MicroParams) (*MicroStream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newMicroStream(p), nil
}

// Microbenchmark phases, in emission order.
const (
	microPhaseTouch = iota
	microPhaseMarkerA
	microPhaseMisses
	microPhaseMarkerB
	microPhaseDone
)

// microRefillTarget is the minimum buffered instruction count per refill;
// a refill always completes whole loop iterations, so the buffer tops out
// at roughly one miss-loop iteration (~IterWork instructions) regardless
// of TM.
const microRefillTarget = 2048

// MicroStream is the Fig. 6 microbenchmark as an incrementally generated
// instruction stream. It emits exactly the sequence materializeMicro
// builds, one loop iteration at a time, so the working set is a few
// kilobytes instead of the whole trace. Because every loop iteration of a
// phase emits the same instruction sequence up to a handful of fields
// (load addresses, the loop-exit branch), each phase is generated by
// copying a prebuilt iteration template and patching those fields.
type MicroStream struct {
	p            MicroParams
	linesPerPage int

	rng  *sim.RNG
	used map[uint64]struct{}

	phase int
	// iter is the next loop iteration of the current phase: the page
	// index, blank-loop iteration, or miss index.
	iter int
	// pc is the next instruction address; loopPC is the current phase's
	// loop head (touchPC / blank loopPC / missPC).
	pc, loopPC uint64

	// tmpl is the current phase's per-iteration instruction template
	// (PCs baked in — loop bodies reuse their PCs); callTmpl is the
	// micro-function-call block appended after every CM-th miss.
	tmpl      []sim.Inst
	callTmpl  []sim.Inst
	tmplPhase int

	buf []sim.Inst
	pos int
}

// newMicroStream assumes p is validated.
func newMicroStream(p MicroParams) *MicroStream {
	s := &MicroStream{p: p, linesPerPage: p.PageBytes / p.LineBytes}
	s.Reset()
	return s
}

// Reset rewinds the stream to the first instruction.
func (s *MicroStream) Reset() {
	s.rng = sim.NewRNG(s.p.Seed)
	s.used = make(map[uint64]struct{}, s.p.TM)
	s.phase = microPhaseTouch
	s.iter = 0
	s.pc = 0x8000
	s.loopPC = s.pc
	s.tmplPhase = -1
	s.buf = s.buf[:0]
	s.pos = 0
}

// Len returns the total trace length in instructions.
func (s *MicroStream) Len() int {
	p := s.p
	prngIters := p.IterWork / 37
	if prngIters < 1 {
		prngIters = 1
	}
	calls := p.TM / p.CM
	if p.TM%p.CM == 0 {
		// The group ending at the last miss emits no trailing call.
		calls--
	}
	return p.Pages*(p.TouchWork+3) +
		2*p.BlankIters*4 +
		p.TM*(prngIters*37+4) +
		calls*(p.CallWork+2)
}

// Next implements sim.Stream.
func (s *MicroStream) Next(in *sim.Inst) bool {
	if s.pos >= len(s.buf) {
		if !s.refill() {
			return false
		}
	}
	*in = s.buf[s.pos]
	s.pos++
	return true
}

// NextBlock implements sim.BlockStream: the unread remainder of the
// current generation buffer, refilled when empty.
func (s *MicroStream) NextBlock() []sim.Inst {
	if s.pos >= len(s.buf) {
		if !s.refill() {
			return nil
		}
	}
	out := s.buf[s.pos:]
	s.pos = len(s.buf)
	return out
}

// refill regenerates the buffer with at least microRefillTarget
// instructions (whole iterations only).
func (s *MicroStream) refill() bool {
	s.buf = s.buf[:0]
	s.pos = 0
	for len(s.buf) < microRefillTarget && s.phase != microPhaseDone {
		s.emitIteration()
	}
	return len(s.buf) > 0
}

// buildTemplate constructs the current phase's per-iteration template at
// s.loopPC, using the same emission code paths as materializeMicro (with
// the loop-continuing branch shape; the final iteration's exit branch is
// patched in emitIteration).
func (s *MicroStream) buildTemplate() {
	p := s.p
	s.tmpl = s.tmpl[:0]
	s.callTmpl = s.callTmpl[:0]
	s.tmplPhase = s.phase
	pc := s.loopPC
	emit := func(in sim.Inst) {
		in.PC = pc
		pc += 4
		s.tmpl = append(s.tmpl, in)
	}
	switch s.phase {
	case microPhaseTouch:
		for w := 0; w < p.TouchWork; w++ {
			emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + int16(w%6), Src1: regScratch + int16(w%6), Region: RegionPageTouch})
		}
		emit(sim.Inst{Op: sim.OpTouch, Region: RegionPageTouch})
		emit(sim.Inst{Op: sim.OpLoad, Dst: regLoadDst, Src1: sim.RegNone, Size: 4, Region: RegionPageTouch})
		emit(sim.Inst{Op: sim.OpBranch, Src1: regCounter, Taken: true, Target: s.loopPC, Region: RegionPageTouch})
	case microPhaseMarkerA, microPhaseMarkerB:
		region := RegionMarkerA
		if s.phase == microPhaseMarkerB {
			region = RegionMarkerB
		}
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch, Src1: regScratch, Region: region})
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + 1, Src1: regScratch + 1, Region: region})
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regCounter, Src1: regCounter, Region: region})
		emit(sim.Inst{Op: sim.OpBranch, Src1: regCounter, Taken: true, Target: s.loopPC, Region: region})
	case microPhaseMisses:
		const prngBody = 36
		prngIters := p.IterWork / (prngBody + 1)
		if prngIters < 1 {
			prngIters = 1
		}
		prngPC := s.loopPC
		for it := 0; it < prngIters; it++ {
			pc = prngPC
			for w := 0; w < prngBody; w++ {
				in := sim.Inst{Op: sim.OpIntALU, Dst: regScratch + int16(w%6), Src1: regScratch + int16(w%6), Region: RegionMisses}
				if w%3 == 0 {
					in.Dst = regChain
					in.Src1 = regChain
				}
				if w%23 == 0 {
					in.Op = sim.OpIntMul
				}
				emit(in)
			}
			emit(sim.Inst{Op: sim.OpBranch, Src1: regChain, Taken: it != prngIters-1, Target: prngPC, Region: RegionMisses})
		}
		pc = prngPC + uint64(4*(prngBody+1))
		dst := int16(regLoadDst)
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regAddr, Src1: regChain, Region: RegionMisses})
		emit(sim.Inst{Op: sim.OpLoad, Dst: dst, Src1: regAddr, Size: 4, Region: RegionMisses})
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regChain, Src1: regChain, Src2: dst, Region: RegionMisses})
		emit(sim.Inst{Op: sim.OpBranch, Src1: regChain, Taken: true, Target: s.loopPC, Region: RegionMisses})
		// micro_function_call() block (appended after every CM-th miss).
		callPC := pc + 4
		call := func(in sim.Inst) {
			in.PC = pc
			pc += 4
			s.callTmpl = append(s.callTmpl, in)
		}
		call(sim.Inst{Op: sim.OpCall, Taken: true, Target: callPC, Region: RegionMisses})
		for w := 0; w < p.CallWork; w++ {
			call(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + int16(w%8), Src1: regScratch + int16(w%8), Region: RegionMisses})
		}
		call(sim.Inst{Op: sim.OpReturn, Taken: true, Target: s.loopPC, Region: RegionMisses})
	}
}

// emitIteration appends the current phase's next loop iteration (template
// copy plus per-iteration patches) and advances the phase state machine,
// producing exactly materializeMicro's sequence.
func (s *MicroStream) emitIteration() {
	p := s.p
	if s.tmplPhase != s.phase {
		s.buildTemplate()
	}
	base := len(s.buf)
	s.buf = append(s.buf, s.tmpl...)
	switch s.phase {
	case microPhaseTouch:
		addr := uint64(arrayBase + s.iter*p.PageBytes)
		s.buf[base+p.TouchWork].Addr = addr   // OpTouch
		s.buf[base+p.TouchWork+1].Addr = addr // OpLoad
		s.iter++
		if s.iter == p.Pages {
			s.buf[len(s.buf)-1].Taken = false // loop exit
			s.pc = s.loopPC + uint64(4*(p.TouchWork+3))
			s.phase = microPhaseMarkerA
			s.iter = 0
			s.loopPC = s.pc
		}
	case microPhaseMarkerA, microPhaseMarkerB:
		s.iter++
		if s.iter == p.BlankIters {
			s.buf[len(s.buf)-1].Taken = false // loop exit
			s.pc = s.loopPC + 16
			s.iter = 0
			if s.phase == microPhaseMarkerA {
				s.phase = microPhaseMisses
			} else {
				s.phase = microPhaseDone
			}
			s.loopPC = s.pc
		}
	case microPhaseMisses:
		i := s.iter
		var addr uint64
		for {
			pg := s.rng.Intn(p.Pages)
			ln := 1 + s.rng.Intn(s.linesPerPage-1)
			addr = uint64(arrayBase + pg*p.PageBytes + ln*p.LineBytes)
			if _, ok := s.used[addr]; !ok {
				s.used[addr] = struct{}{}
				break
			}
		}
		s.buf[len(s.buf)-3].Addr = addr // the chained OpLoad
		if (i+1)%p.CM == 0 && i != p.TM-1 {
			s.buf = append(s.buf, s.callTmpl...)
		}
		s.iter++
		if s.iter == p.TM {
			s.pc = s.loopPC + uint64(4*(p.IterWork+p.CallWork+16))
			s.phase = microPhaseMarkerB
			s.iter = 0
			s.loopPC = s.pc
		}
	}
}

// MicroTMCMGrid returns the paper's Table II/III parameter grid:
// (TM, CM) ∈ {(256,1), (256,5), (1024,10), (4096,50)}.
func MicroTMCMGrid() []MicroParams {
	return []MicroParams{
		DefaultMicroParams(256, 1),
		DefaultMicroParams(256, 5),
		DefaultMicroParams(1024, 10),
		DefaultMicroParams(4096, 50),
	}
}
