package workloads

import (
	"testing"

	"emprof/internal/sim"
)

func drain(s sim.Stream) []sim.Inst {
	var out []sim.Inst
	var in sim.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestMicroParamsValidation(t *testing.T) {
	good := DefaultMicroParams(256, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	muts := []func(*MicroParams){
		func(p *MicroParams) { p.TM = 0 },
		func(p *MicroParams) { p.CM = 0 },
		func(p *MicroParams) { p.LineBytes = 48 },
		func(p *MicroParams) { p.TM = p.Pages * 64 },
		func(p *MicroParams) { p.BlankIters = 0 },
		func(p *MicroParams) { p.IterWork = 0 },
	}
	for i, mut := range muts {
		p := DefaultMicroParams(256, 4)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestMicrobenchmarkStructure(t *testing.T) {
	p := DefaultMicroParams(64, 8)
	p.BlankIters = 100
	p.Pages = 512
	st, err := Microbenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	insts := drain(st)

	var loads, touches, calls, rets int
	lines := make(map[uint64]bool)
	regionSeen := map[uint16]bool{}
	for _, in := range insts {
		regionSeen[in.Region] = true
		switch in.Op {
		case sim.OpTouch:
			touches++
		case sim.OpLoad:
			if in.Region == RegionMisses {
				loads++
				line := in.Addr &^ 63
				if lines[line] {
					t.Fatalf("repeated cache line %#x", line)
				}
				lines[line] = true
				if in.Addr%64 == 0 && (in.Addr/4096)%1 == 0 && (in.Addr%4096) == 0 {
					t.Fatalf("miss access hit page line 0: %#x", in.Addr)
				}
			}
		case sim.OpCall:
			calls++
		case sim.OpReturn:
			rets++
		}
	}
	if loads != p.TM {
		t.Fatalf("miss-section loads %d, want TM=%d", loads, p.TM)
	}
	if touches != p.Pages {
		t.Fatalf("touches %d, want %d pages", touches, p.Pages)
	}
	// One micro-function call per full CM group except after the last.
	wantCalls := p.TM/p.CM - 1
	if calls != wantCalls || rets != wantCalls {
		t.Fatalf("calls/rets %d/%d, want %d", calls, rets, wantCalls)
	}
	for _, r := range []uint16{RegionPageTouch, RegionMarkerA, RegionMisses, RegionMarkerB} {
		if !regionSeen[r] {
			t.Fatalf("region %d missing", r)
		}
	}
}

func TestMicrobenchmarkDeterministic(t *testing.T) {
	p := DefaultMicroParams(32, 4)
	p.BlankIters = 10
	p.Pages = 256
	a, _ := Microbenchmark(p)
	b, _ := Microbenchmark(p)
	ia, ib := drain(a), drain(b)
	if len(ia) != len(ib) {
		t.Fatal("lengths differ")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestMicroTMCMGrid(t *testing.T) {
	grid := MicroTMCMGrid()
	if len(grid) != 4 {
		t.Fatalf("grid size %d, want 4", len(grid))
	}
	wantTM := []int{256, 256, 1024, 4096}
	wantCM := []int{1, 5, 10, 50}
	for i, mp := range grid {
		if mp.TM != wantTM[i] || mp.CM != wantCM[i] {
			t.Fatalf("grid[%d] = TM=%d CM=%d", i, mp.TM, mp.CM)
		}
	}
}

func TestSPECProgramsBuild(t *testing.T) {
	if len(SPECNames) != 10 {
		t.Fatalf("%d programs, want 10", len(SPECNames))
	}
	for _, name := range SPECNames {
		p, err := SPECProgram(name, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		var insts int64
		for _, ph := range p.Phases {
			insts += ph.Insts
		}
		if insts <= 0 {
			t.Errorf("%s has no instruction budget", p.Name)
		}
	}
	if _, err := SPECProgram("doom", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := SPECProgram("mcf", 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestSPECStreamMix(t *testing.T) {
	p, err := SPECProgram("bzip2", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	insts := drain(p.Stream())
	var loads, stores, branches, total int
	for _, in := range insts {
		if in.Op == sim.OpTouch {
			continue // warm-up prefix
		}
		total++
		switch in.Op {
		case sim.OpLoad:
			loads++
		case sim.OpStore:
			stores++
		case sim.OpBranch:
			branches++
		}
	}
	ph := p.Phases[0]
	lf := float64(loads) / float64(total)
	sf := float64(stores) / float64(total)
	if lf < ph.LoadFrac*0.7 || lf > ph.LoadFrac*1.3 {
		t.Fatalf("load fraction %v, want ~%v", lf, ph.LoadFrac)
	}
	if sf < ph.StoreFrac*0.7 || sf > ph.StoreFrac*1.3 {
		t.Fatalf("store fraction %v, want ~%v", sf, ph.StoreFrac)
	}
	// Branches close loops of LoopLen instructions.
	wantBF := 1.0 / float64(ph.LoopLen)
	if bf := float64(branches) / float64(total); bf < wantBF*0.6 || bf > wantBF*1.6 {
		t.Fatalf("branch fraction %v, want ~%v", bf, wantBF)
	}
}

func TestSPECStreamDeterministic(t *testing.T) {
	p1, _ := SPECProgram("mcf", 0.02)
	p2, _ := SPECProgram("mcf", 0.02)
	a, b := drain(p1.Stream()), drain(p2.Stream())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestSPECWarmupPrefix(t *testing.T) {
	p, _ := SPECProgram("vpr", 0.02)
	insts := drain(p.Stream())
	if insts[0].Op != sim.OpTouch {
		t.Fatal("stream must start with warm-up touches")
	}
	// Warm-up covers code + hot set.
	var touches int
	for _, in := range insts {
		if in.Op == sim.OpTouch {
			touches++
		}
	}
	ph := p.Phases[0]
	want := ph.CodeBytes/64 + int(ph.HotBytes/64)
	if touches != want {
		t.Fatalf("touches %d, want %d", touches, want)
	}
}

func TestParserHasThreeRegions(t *testing.T) {
	p, _ := SPECProgram("parser", 0.05)
	insts := drain(p.Stream())
	seen := map[uint16]int{}
	for _, in := range insts {
		seen[in.Region]++
	}
	for _, r := range []uint16{RegionReadDictionary, RegionInitRandtable, RegionBatchProcess} {
		if seen[r] == 0 {
			t.Fatalf("parser region %d empty", r)
		}
	}
	if seen[RegionBatchProcess] < seen[RegionInitRandtable] {
		t.Fatal("batch_process must dominate parser's instruction count")
	}
}

func TestBootProgramPhases(t *testing.T) {
	p := BootProgram(0.2, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 6 {
		t.Fatalf("boot phases %d, want 6", len(p.Phases))
	}
	// Distinct seeds produce different streams (two boots differ).
	a := drain(BootProgram(0.05, 1).Stream())
	b := drain(BootProgram(0.05, 2).Stream())
	diff := false
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different boot seeds gave identical traces")
	}
}

func TestAccessKernelLevels(t *testing.T) {
	for _, lvl := range []MissLevel{MissNone, MissL1, MissLLC} {
		p := DefaultAccessKernelParams(lvl, 32<<10, 256<<10)
		p.BlankIters = 10
		st, err := AccessKernel(p)
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		insts := drain(st)
		var accessLoads int
		for _, in := range insts {
			if in.Op == sim.OpLoad && in.Region == RegionKernelAccess {
				accessLoads++
			}
		}
		if accessLoads != p.Accesses {
			t.Fatalf("level %d: %d access loads, want %d", lvl, accessLoads, p.Accesses)
		}
	}
	bad := DefaultAccessKernelParams(MissLLC, 32<<10, 256<<10)
	bad.Accesses = 0
	if _, err := AccessKernel(bad); err == nil {
		t.Fatal("zero accesses accepted")
	}
}

func TestOverlapKernel(t *testing.T) {
	st, err := OverlapKernel(OverlapKernelParams{
		Groups: 4, GroupSize: 6, GapWork: 50, LineBytes: 64, LLCBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	insts := drain(st)
	var loads int
	addrs := map[uint64]bool{}
	for _, in := range insts {
		if in.Op == sim.OpLoad {
			loads++
			if addrs[in.Addr] {
				t.Fatalf("repeated address %#x", in.Addr)
			}
			addrs[in.Addr] = true
		}
	}
	if loads != 24 {
		t.Fatalf("loads %d, want 24", loads)
	}
	if _, err := OverlapKernel(OverlapKernelParams{}); err == nil {
		t.Fatal("empty params accepted")
	}
}

func TestDualMissKernel(t *testing.T) {
	st, err := DualMissKernel(5, 20, 64, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	insts := drain(st)
	var jumps, loads int
	for _, in := range insts {
		if in.Op == sim.OpBranch && in.Taken {
			jumps++
		}
		if in.Op == sim.OpLoad {
			loads++
		}
	}
	if jumps != 5 || loads != 5 {
		t.Fatalf("jumps=%d loads=%d, want 5/5", jumps, loads)
	}
}

func TestRefreshKernel(t *testing.T) {
	st, err := RefreshKernel(10, 5, 64, 256<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	insts := drain(st)
	var loads int
	for _, in := range insts {
		if in.Op == sim.OpLoad {
			loads++
		}
	}
	if loads != 10 {
		t.Fatalf("loads %d, want 10", loads)
	}
	if _, err := RefreshKernel(0, 5, 64, 1024, 1); err == nil {
		t.Fatal("zero misses accepted")
	}
}
