package workloads

import (
	"fmt"

	"emprof/internal/sim"
)

// Phase is one execution phase of a statistical workload. The generator
// draws an instruction mix and an address stream with the phase's
// locality character; because EMPROF observes only the signal, matching a
// benchmark's *memory behaviour* (miss volume, grouping, overlap, and the
// compute between misses) reproduces what the paper measured without the
// original binaries.
type Phase struct {
	// Name and Region label the phase for attribution experiments.
	Name   string
	Region uint16
	// Insts is the dynamic instruction budget of the phase.
	Insts int64
	// LoadFrac and StoreFrac are the fractions of loads and stores.
	LoadFrac, StoreFrac float64
	// FPFrac is the fraction of non-memory instructions that are FP.
	FPFrac float64
	// LoopLen is the instruction count of the phase's dominant loop; the
	// generator emits a backward taken branch with this period, which
	// sets the code's spectral signature.
	LoopLen int
	// CodeBytes is the code footprint; larger-than-L1I footprints cause
	// instruction misses (vortex, crafty).
	CodeBytes int
	// WSBytes is the total data working set. Most accesses go to a hot
	// subset of HotBytes with strong spatial locality (L1-friendly);
	// StreamFrac of accesses walk the working set sequentially with
	// StrideBytes (cheap, row-buffer-friendly, prefetchable misses —
	// bzip2/gzip/equake); ColdFrac of accesses hit a random line in the
	// full working set (expensive, row-missing LLC misses — mcf/ammp/
	// parser). The remainder (1 − StreamFrac − ColdFrac) is hot.
	WSBytes  int64
	HotBytes int64
	ColdFrac float64
	// WarmBytes/WarmFrac define a middle locality tier: random lines in a
	// region of WarmBytes accessed with probability WarmFrac. Sized
	// between the small and large LLCs, this tier produces the capacity
	// misses that differentiate the devices: it thrashes a 256 KB LLC but
	// becomes resident in 1 MB.
	WarmBytes int64
	WarmFrac  float64
	// PointerChase serializes cold loads (each address depends on the
	// previous loaded value), the mcf pattern: no MLP, full-latency
	// stalls.
	PointerChase bool
	StrideBytes  int64
	StreamFrac   float64
	// DepFrac is the probability an ALU instruction depends on the
	// previous instruction's result (limits ILP).
	DepFrac float64
}

// Validate checks the phase.
func (p Phase) Validate() error {
	if p.Insts <= 0 {
		return fmt.Errorf("workloads: phase %s: no instructions", p.Name)
	}
	if p.LoadFrac < 0 || p.StoreFrac < 0 || p.LoadFrac+p.StoreFrac > 0.9 {
		return fmt.Errorf("workloads: phase %s: bad memory fractions", p.Name)
	}
	if p.LoopLen < 4 {
		return fmt.Errorf("workloads: phase %s: loop length %d < 4", p.Name, p.LoopLen)
	}
	if p.WSBytes < 4096 {
		return fmt.Errorf("workloads: phase %s: working set too small", p.Name)
	}
	if p.HotBytes <= 0 || p.HotBytes > p.WSBytes {
		return fmt.Errorf("workloads: phase %s: bad hot-set size", p.Name)
	}
	if p.StreamFrac < 0 || p.ColdFrac < 0 || p.WarmFrac < 0 ||
		p.StreamFrac+p.ColdFrac+p.WarmFrac > 1 {
		return fmt.Errorf("workloads: phase %s: bad stream/cold/warm fractions", p.Name)
	}
	if p.WarmFrac > 0 && (p.WarmBytes <= 0 || p.WarmBytes > p.WSBytes) {
		return fmt.Errorf("workloads: phase %s: bad warm-set size", p.Name)
	}
	if p.StreamFrac > 0 && p.StrideBytes <= 0 {
		return fmt.Errorf("workloads: phase %s: stream fraction without stride", p.Name)
	}
	if p.CodeBytes < 64 {
		return fmt.Errorf("workloads: phase %s: code footprint too small", p.Name)
	}
	return nil
}

// Program is a named multi-phase workload.
type Program struct {
	Name   string
	Phases []Phase
	Seed   uint64
}

// Validate checks all phases.
func (p *Program) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("workloads: program %s has no phases", p.Name)
	}
	for _, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stream returns a fresh generator stream over the program. Each call
// restarts from the seed, so repeated runs are identical.
func (p *Program) Stream() sim.Stream {
	return &programStream{prog: p, rng: sim.NewRNG(p.Seed)}
}

// programStream generates instructions lazily.
type programStream struct {
	prog    *Program
	rng     *sim.RNG
	phase   int
	emitted int64

	// per-phase state
	pcBase    uint64
	pcOff     uint64
	loopStart uint64
	loopPos   int
	streamPos uint64
	streamRun int
	hotPos    uint64
	lastDst   int16
	dstRot    int16
	chainReg  int16
	// warm-up touch emission at phase entry
	warmAddr uint64
	warmEnd  uint64
	warmCode bool
}

const specArrayBase = 0x4000_0000
const specCodeBase = 0x0010_0000

func (s *programStream) Next(inst *sim.Inst) bool {
	for {
		if s.phase >= len(s.prog.Phases) {
			return false
		}
		ph := &s.prog.Phases[s.phase]
		if s.emitted >= ph.Insts {
			s.phase++
			s.emitted = 0
			s.loopPos = 0
			s.streamPos = 0
			continue
		}
		if s.emitted == 0 {
			// Phase entry: place code at a phase-specific base and start
			// warming the hot set (a real program has been running before
			// the profiled window: its hot data and code are resident, so
			// cold-start compulsory misses must not swamp the phase's
			// steady-state behaviour).
			s.pcBase = specCodeBase + uint64(s.phase)<<20
			s.pcOff = 0
			s.loopStart = s.pcBase
			s.chainReg = regChain
			s.lastDst = sim.RegNone
			s.warmAddr = uint64(specArrayBase) + uint64(ph.Region)<<32
			s.warmEnd = s.warmAddr + uint64(ph.HotBytes)
			s.warmCode = true
		}
		if s.warmCode {
			// Warm the code footprint into the LLC first.
			*inst = sim.Inst{PC: s.pcBase, Op: sim.OpTouch, Addr: s.pcBase + s.pcOff, Region: ph.Region}
			s.pcOff += 64
			if s.pcOff >= uint64(ph.CodeBytes) {
				s.warmCode = false
				s.pcOff = 0
			}
			s.emitted++
			return true
		}
		if s.warmAddr < s.warmEnd {
			*inst = sim.Inst{PC: s.pcBase, Op: sim.OpTouch, Addr: s.warmAddr, Region: ph.Region}
			s.warmAddr += 64
			s.emitted++
			return true
		}
		s.generate(ph, inst)
		s.emitted++
		return true
	}
}

func (s *programStream) nextPC(ph *Phase) uint64 {
	pc := s.pcBase + s.pcOff%uint64(ph.CodeBytes)
	s.pcOff += 4
	return pc
}

func (s *programStream) generate(ph *Phase, inst *sim.Inst) {
	*inst = sim.Inst{Region: ph.Region, Dst: sim.RegNone, Src1: sim.RegNone, Src2: sim.RegNone}
	r := s.rng

	// Loop-closing branch with the phase's period.
	s.loopPos++
	if s.loopPos >= ph.LoopLen {
		s.loopPos = 0
		inst.PC = s.nextPC(ph)
		inst.Op = sim.OpBranch
		inst.Taken = true
		// Mostly iterate the same loop; occasionally move to another code
		// block, exercising the code footprint.
		if r.Float64() < 0.08 {
			s.loopStart = s.pcBase + uint64(r.Intn(ph.CodeBytes/4))*4
		}
		inst.Target = s.loopStart
		s.pcOff = s.loopStart - s.pcBase
		return
	}

	inst.PC = s.nextPC(ph)
	// Real loop bodies have structure: address arithmetic and loads up
	// front, dependent compute at the back. Concentrating the memory ops
	// in the first part of the loop and the serial compute in the rest
	// modulates the core's activity at the loop frequency, giving each
	// phase the spectral signature that Spectral Profiling-style
	// attribution recognises (paper Fig. 14).
	frontHalf := s.loopPos*2 < ph.LoopLen
	loadFrac, storeFrac := ph.LoadFrac, ph.StoreFrac
	if frontHalf {
		loadFrac, storeFrac = loadFrac*1.7, storeFrac*1.7
	} else {
		loadFrac, storeFrac = loadFrac*0.3, storeFrac*0.3
	}
	u := r.Float64()
	switch {
	case u < loadFrac:
		inst.Op = sim.OpLoad
		var cold bool
		var stream bool
		inst.Addr, cold, stream = s.dataAddr(ph, r)
		// Loads execute from a small set of static sites (real code has a
		// handful of load instructions per loop); stride prefetchers can
		// only train on per-site patterns, so stable sites matter. The
		// streaming load always uses site 0.
		if stream {
			inst.PC = s.pcBase + 8
		} else {
			inst.PC = s.pcBase + 8 + uint64(1+r.Intn(11))*4
		}
		inst.Size = 4
		inst.Dst = regLoadDst + s.dstRot
		s.dstRot = (s.dstRot + 1) % 8
		if ph.PointerChase && cold {
			// Next cold address will depend on this load's value.
			inst.Src1 = s.chainReg
			s.chainReg = inst.Dst
		}
		s.lastDst = inst.Dst
	case u < loadFrac+storeFrac:
		inst.Op = sim.OpStore
		inst.Addr, _, _ = s.dataAddr(ph, r)
		inst.PC = s.pcBase + 8 + uint64(12+r.Intn(6))*4
		inst.Size = 4
		if s.lastDst >= 0 {
			inst.Src1 = s.lastDst
		}
	default:
		if r.Float64() < ph.FPFrac {
			if r.Float64() < 0.3 {
				inst.Op = sim.OpFPMul
			} else {
				inst.Op = sim.OpFPALU
			}
		} else {
			if r.Float64() < 0.05 {
				inst.Op = sim.OpIntMul
			} else {
				inst.Op = sim.OpIntALU
			}
		}
		inst.Dst = regScratch + int16(r.Intn(12))
		dep := ph.DepFrac
		if frontHalf {
			dep *= 0.4 // front of the loop is address arithmetic: parallel
		} else {
			dep = dep*1.5 + 0.2 // back of the loop is the serial reduction
			if dep > 1 {
				dep = 1
			}
		}
		if s.lastDst >= 0 && r.Float64() < dep {
			inst.Src1 = s.lastDst
		} else {
			inst.Src1 = regScratch + int16(r.Intn(12))
		}
		s.lastDst = inst.Dst
	}
}

// dataAddr draws the next data address with the phase's locality; cold
// reports whether the access targets a random (likely-missing) line and
// stream whether it is part of the sequential walk.
func (s *programStream) dataAddr(ph *Phase, r *sim.RNG) (addr uint64, cold, stream bool) {
	base := uint64(specArrayBase) + uint64(ph.Region)<<32
	// Streaming comes in bursts, like the scan/copy loops it models: once
	// a burst starts, the next ~48 memory accesses continue the walk.
	// Burst misses arrive back to back, overlap in the MSHRs and hit open
	// DRAM rows — the cheap, prefetchable misses of bzip2/gzip/equake —
	// whereas isolated random misses pay the full latency.
	const streamBurst = 48
	u := r.Float64()
	if s.streamRun > 0 || u < ph.StreamFrac/streamBurst {
		if s.streamRun <= 0 {
			s.streamRun = streamBurst/2 + r.Intn(streamBurst)
		}
		s.streamRun--
		s.streamPos += uint64(ph.StrideBytes)
		if s.streamPos >= uint64(ph.WSBytes) {
			s.streamPos = 0
		}
		return base + s.streamPos, false, true
	}
	switch {
	case u < ph.ColdFrac:
		// Random line in the full working set: mostly compulsory misses.
		return base + uint64(r.Int63())%uint64(ph.WSBytes), true, false
	case u < ph.ColdFrac+ph.WarmFrac:
		// Random line in the warm region: capacity misses on small LLCs,
		// hits once an LLC is large enough to hold the region.
		return base + uint64(r.Int63())%uint64(ph.WarmBytes), true, false
	default:
		// Hot set with spatial locality: short walks near the previous
		// hot address, occasional jumps within the hot set.
		if r.Float64() < 0.05 {
			s.hotPos = uint64(r.Int63()) % uint64(ph.HotBytes)
		} else {
			s.hotPos = (s.hotPos + uint64(4+r.Intn(7)*4)) % uint64(ph.HotBytes)
		}
		return base + s.hotPos, false, false
	}
}
