package sim

import "fmt"

// Op is the operation class of an instruction. The processor model does not
// interpret program semantics; it only needs each instruction's resource
// usage (which functional unit, for how many cycles) and its memory
// behaviour (address and size for loads/stores), so a small set of classes
// is sufficient for cycle-level timing.
type Op uint8

const (
	// OpNop consumes a slot without using a functional unit.
	OpNop Op = iota
	// OpIntALU is a single-cycle integer operation.
	OpIntALU
	// OpIntMul is a pipelined multi-cycle integer multiply.
	OpIntMul
	// OpIntDiv is an unpipelined long-latency integer divide.
	OpIntDiv
	// OpFPALU is a pipelined floating-point add/sub/convert.
	OpFPALU
	// OpFPMul is a pipelined floating-point multiply.
	OpFPMul
	// OpFPDiv is an unpipelined floating-point divide.
	OpFPDiv
	// OpLoad reads Size bytes from Addr through the data cache.
	OpLoad
	// OpStore writes Size bytes to Addr through the data cache.
	OpStore
	// OpBranch is a conditional or unconditional control transfer. Taken
	// branches redirect fetch to Target.
	OpBranch
	// OpCall and OpReturn behave like taken branches and additionally mark
	// call boundaries for attribution.
	OpCall
	OpReturn
	// OpTouch installs Addr's line into the cache hierarchy with no
	// timing cost. It models lines a first-touch page fault leaves warm
	// (the OS zeroes fresh pages through the cache), so engineered
	// workloads can reproduce the paper's observation that the
	// microbenchmark's page-touch pass does not itself contribute stalls.
	OpTouch
	numOps
)

var opNames = [numOps]string{
	"nop", "ialu", "imul", "idiv", "falu", "fmul", "fdiv",
	"load", "store", "branch", "call", "ret", "touch",
}

// String returns the mnemonic class name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses the data cache.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsCtl reports whether the op can redirect fetch.
func (o Op) IsCtl() bool { return o == OpBranch || o == OpCall || o == OpReturn }

// RegNone marks an unused register operand.
const RegNone = -1

// Inst is one dynamic instruction in a workload trace. Register numbers are
// abstract names used only for dependence tracking; the generators allocate
// them to model realistic dependence chains.
type Inst struct {
	// PC is the instruction's address, used for instruction-cache fetch.
	PC uint64
	// Op is the resource/behaviour class.
	Op Op
	// Dst is the destination register, or RegNone.
	Dst int16
	// Src1, Src2 are source registers, or RegNone.
	Src1, Src2 int16
	// Addr and Size describe the memory access for loads and stores.
	Addr uint64
	Size uint8
	// Taken and Target describe control flow for branch-class ops.
	Taken  bool
	Target uint64
	// Region tags the instruction with the workload region (function/loop)
	// it belongs to, for attribution ground truth. Zero means unattributed.
	Region uint16
}

// Stream supplies a workload's dynamic instruction trace one instruction at
// a time, so that multi-million-instruction runs never materialise a full
// trace in memory. Next returns false when the trace is exhausted.
type Stream interface {
	Next(inst *Inst) bool
}

// BlockStream is implemented by streams that can expose whole contiguous
// runs of instructions without a per-instruction interface call or copy.
// NextBlock returns the next non-empty run, or an empty slice at end of
// stream; the returned memory is only valid until the next NextBlock or
// Next call. Consumers must behave identically whether they read via
// NextBlock or Next — it is purely a fast path.
type BlockStream interface {
	Stream
	NextBlock() []Inst
}

// SliceStream adapts a pre-built instruction slice to the Stream interface.
// It is mainly used by tests and by small engineered kernels.
type SliceStream struct {
	insts []Inst
	pos   int
}

// NewSliceStream returns a Stream reading from insts.
func NewSliceStream(insts []Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// Next implements Stream.
func (s *SliceStream) Next(inst *Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*inst = s.insts[s.pos]
	s.pos++
	return true
}

// NextBlock implements BlockStream: the whole remaining trace in one run.
func (s *SliceStream) NextBlock() []Inst {
	out := s.insts[s.pos:]
	s.pos = len(s.insts)
	return out
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the underlying slice.
func (s *SliceStream) Len() int { return len(s.insts) }

// FuncStream adapts a generator function to the Stream interface.
type FuncStream func(inst *Inst) bool

// Next implements Stream.
func (f FuncStream) Next(inst *Inst) bool { return f(inst) }

// RegionSpan records, in the ground-truth trace, the cycle range during
// which a given workload region was executing. Spans are produced by the
// processor model as region tags change.
type RegionSpan struct {
	Region     uint16
	StartCycle uint64
	EndCycle   uint64
}
