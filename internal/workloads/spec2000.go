package workloads

import "fmt"

// Region identifiers for the parser attribution experiment (Table V).
const (
	RegionReadDictionary uint16 = 10
	RegionInitRandtable  uint16 = 11
	RegionBatchProcess   uint16 = 12
)

// kib/mib improve the readability of the parameter tables below.
const (
	kib = 1 << 10
	mib = 1 << 20
)

// SPECNames lists the ten SPEC CPU2000 benchmarks of Tables III/IV in the
// paper's row order.
var SPECNames = []string{
	"ammp", "bzip2", "crafty", "equake", "gzip",
	"mcf", "parser", "twolf", "vortex", "vpr",
}

// SPECProgram returns the statistical reproduction of one SPEC CPU2000
// benchmark, scaled so the dynamic instruction count is about
// scale × 1e6. The parameters encode each benchmark's published memory
// character: mcf pointer-chases a large sparse structure, bzip2/gzip/
// equake stream (and therefore prefetch well), crafty/vpr are mostly
// cache-resident, vortex stresses the instruction cache, parser
// alternates a dictionary-build phase with a miss-heavy batch phase.
func SPECProgram(name string, scale float64) (*Program, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workloads: scale %v <= 0", scale)
	}
	n := func(millions float64) int64 { return int64(millions * scale * 1e6) }
	var phases []Phase
	switch name {
	case "ammp":
		phases = []Phase{{
			Name: "main", Region: 20, Insts: n(1.0),
			LoadFrac: 0.24, StoreFrac: 0.08, FPFrac: 0.55,
			LoopLen: 64, CodeBytes: 16 * kib,
			WSBytes: 3 * mib, HotBytes: 24 * kib, ColdFrac: 0.0007,
			WarmBytes: 1536 * kib, WarmFrac: 0.0016,
			DepFrac: 0.55,
		}}
	case "bzip2":
		phases = []Phase{{
			Name: "compress", Region: 21, Insts: n(1.0),
			LoadFrac: 0.30, StoreFrac: 0.12, FPFrac: 0,
			LoopLen: 48, CodeBytes: 12 * kib,
			WSBytes: 8 * mib, HotBytes: 24 * kib, ColdFrac: 0.00005,
			WarmBytes: 1536 * kib, WarmFrac: 0.0008,
			StrideBytes: 8, StreamFrac: 0.014,
			DepFrac: 0.35,
		}}
	case "crafty":
		phases = []Phase{{
			Name: "search", Region: 22, Insts: n(1.0),
			LoadFrac: 0.27, StoreFrac: 0.07, FPFrac: 0,
			LoopLen: 90, CodeBytes: 56 * kib,
			WSBytes: 640 * kib, HotBytes: 24 * kib, ColdFrac: 0.00002,
			WarmBytes: 600 * kib, WarmFrac: 0.0004,
			DepFrac: 0.30,
		}}
	case "equake":
		phases = []Phase{{
			Name: "smvp", Region: 23, Insts: n(1.0),
			LoadFrac: 0.33, StoreFrac: 0.09, FPFrac: 0.6,
			LoopLen: 40, CodeBytes: 10 * kib,
			WSBytes: 8 * mib, HotBytes: 24 * kib, ColdFrac: 0.00008,
			WarmBytes: 1536 * kib, WarmFrac: 0.0006,
			StrideBytes: 16, StreamFrac: 0.012,
			DepFrac: 0.45,
		}}
	case "gzip":
		phases = []Phase{{
			Name: "deflate", Region: 24, Insts: n(1.0),
			LoadFrac: 0.26, StoreFrac: 0.10, FPFrac: 0,
			LoopLen: 44, CodeBytes: 14 * kib,
			WSBytes: 1536 * kib, HotBytes: 24 * kib, ColdFrac: 0.00002,
			WarmBytes: 1200 * kib, WarmFrac: 0.0004,
			StrideBytes: 4, StreamFrac: 0.010,
			DepFrac: 0.35,
		}}
	case "mcf":
		phases = []Phase{{
			Name: "simplex", Region: 25, Insts: n(1.0),
			LoadFrac: 0.31, StoreFrac: 0.06, FPFrac: 0,
			LoopLen: 36, CodeBytes: 8 * kib,
			WSBytes: 12 * mib, HotBytes: 24 * kib, ColdFrac: 0.00025,
			WarmBytes: 2 * mib, WarmFrac: 0.0002,
			PointerChase: true,
			DepFrac:      0.55,
		}}
	case "parser":
		phases = []Phase{
			{
				Name: "read_dictionary", Region: RegionReadDictionary, Insts: n(0.22),
				LoadFrac: 0.27, StoreFrac: 0.10, FPFrac: 0,
				LoopLen: 36, CodeBytes: 12 * kib,
				WSBytes: 4 * mib, HotBytes: 24 * kib, ColdFrac: 0.0001,
				WarmBytes: 1 * mib, WarmFrac: 0.0002,
				StrideBytes: 8, StreamFrac: 0.004,
				DepFrac: 0.40,
			},
			{
				Name: "init_randtable", Region: RegionInitRandtable, Insts: n(0.10),
				LoadFrac: 0.12, StoreFrac: 0.14, FPFrac: 0,
				LoopLen: 88, CodeBytes: 4 * kib,
				WSBytes: 384 * kib, HotBytes: 24 * kib, ColdFrac: 0.0001,
				StrideBytes: 4, StreamFrac: 0.02,
				DepFrac: 0.30,
			},
			{
				Name: "batch_process", Region: RegionBatchProcess, Insts: n(0.68),
				LoadFrac: 0.30, StoreFrac: 0.09, FPFrac: 0,
				LoopLen: 56, CodeBytes: 20 * kib,
				WSBytes: 8 * mib, HotBytes: 24 * kib, ColdFrac: 0.0013,
				WarmBytes: 3 * mib, WarmFrac: 0.0008,
				DepFrac: 0.50,
			},
		}
	case "twolf":
		phases = []Phase{{
			Name: "place", Region: 27, Insts: n(1.0),
			LoadFrac: 0.25, StoreFrac: 0.08, FPFrac: 0.1,
			LoopLen: 70, CodeBytes: 24 * kib,
			WSBytes: 1200 * kib, HotBytes: 24 * kib, ColdFrac: 0.00003,
			WarmBytes: 1 * mib, WarmFrac: 0.0006,
			DepFrac: 0.40,
		}}
	case "vortex":
		phases = []Phase{{
			Name: "oodb", Region: 28, Insts: n(1.0),
			LoadFrac: 0.28, StoreFrac: 0.11, FPFrac: 0,
			LoopLen: 120, CodeBytes: 96 * kib,
			WSBytes: 2 * mib, HotBytes: 24 * kib, ColdFrac: 0.00004,
			WarmBytes: 1800 * kib, WarmFrac: 0.0005,
			DepFrac: 0.30,
		}}
	case "vpr":
		phases = []Phase{{
			Name: "route", Region: 29, Insts: n(1.0),
			LoadFrac: 0.24, StoreFrac: 0.07, FPFrac: 0.25,
			LoopLen: 52, CodeBytes: 18 * kib,
			WSBytes: 448 * kib, HotBytes: 24 * kib, ColdFrac: 0.00001,
			WarmBytes: 448 * kib, WarmFrac: 0.00012,
			DepFrac: 0.40,
		}}
	default:
		return nil, fmt.Errorf("workloads: unknown SPEC benchmark %q", name)
	}
	p := &Program{Name: name, Phases: phases, Seed: hashName(name)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// hashName derives a stable per-benchmark seed.
func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
