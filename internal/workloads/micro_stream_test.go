package workloads

import (
	"testing"

	"emprof/internal/sim"
)

// microStreamParamGrid exercises the phase boundaries: tiny and default
// geometries, TM divisible and non-divisible by CM, IterWork below one
// PRNG-loop body, and TM < CM (no calls at all).
func microStreamParamGrid() []MicroParams {
	small := MicroParams{TM: 16, CM: 4, Pages: 64, PageBytes: 4096, LineBytes: 64,
		BlankIters: 7, CallWork: 5, IterWork: 36, TouchWork: 2, Seed: 99}
	odd := small
	odd.TM = 17
	odd.CM = 5
	odd.IterWork = 1 // below one PRNG body: prngIters clamps to 1
	nocall := small
	nocall.TM = 3
	nocall.CM = 8
	return []MicroParams{
		small,
		odd,
		nocall,
		DefaultMicroParams(32, 8),
		DefaultMicroParams(64, 1),
	}
}

// TestMicroStreamMatchesReference proves the incremental generator emits
// exactly the reference trace, element for element, and that Len agrees.
func TestMicroStreamMatchesReference(t *testing.T) {
	for _, p := range microStreamParamGrid() {
		if err := p.Validate(); err != nil {
			t.Fatalf("grid params invalid: %v", err)
		}
		want := materializeMicro(p)
		st, err := Microbenchmark(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(want) {
			t.Fatalf("TM=%d CM=%d IterWork=%d: Len()=%d, reference has %d",
				p.TM, p.CM, p.IterWork, st.Len(), len(want))
		}
		var in sim.Inst
		for i := 0; ; i++ {
			if !st.Next(&in) {
				if i != len(want) {
					t.Fatalf("TM=%d CM=%d: stream ended at %d, want %d", p.TM, p.CM, i, len(want))
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("TM=%d CM=%d: stream longer than reference (%d)", p.TM, p.CM, len(want))
			}
			if in != want[i] {
				t.Fatalf("TM=%d CM=%d inst %d: got %+v want %+v", p.TM, p.CM, i, in, want[i])
			}
		}
	}
}

// TestMicroStreamReset proves Reset rewinds to an identical replay
// (including the RNG-drawn addresses and the used-line set).
func TestMicroStreamReset(t *testing.T) {
	p := DefaultMicroParams(32, 8)
	st, err := Microbenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(st)
	st.Reset()
	second := drain(st)
	if len(first) != len(second) {
		t.Fatalf("replay length %d != %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("inst %d differs after Reset: %+v vs %+v", i, second[i], first[i])
		}
	}
}

// materializeMicro is the reference one-shot trace builder; MicroStream
// must produce exactly this sequence. p must be validated.
func materializeMicro(p MicroParams) []sim.Inst {
	rng := sim.NewRNG(p.Seed)
	linesPerPage := p.PageBytes / p.LineBytes

	var insts []sim.Inst
	pc := uint64(0x8000)
	emit := func(in sim.Inst) {
		in.PC = pc
		pc += 4
		insts = append(insts, in)
	}

	// --- Page touch: the first access to each page faults, and the
	// kernel's fault handling zeroes the page through the cache, so the
	// touch itself costs compute (TouchWork) but leaves the line warm —
	// which is why the paper's devices show ≈TM total misses rather than
	// TM + Pages (Table IV's microbenchmark rows).
	touchPC := pc
	for pg := 0; pg < p.Pages; pg++ {
		addr := uint64(arrayBase + pg*p.PageBytes)
		for w := 0; w < p.TouchWork; w++ {
			emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + int16(w%6), Src1: regScratch + int16(w%6), Region: RegionPageTouch})
		}
		emit(sim.Inst{Op: sim.OpTouch, Addr: addr, Region: RegionPageTouch})
		emit(sim.Inst{Op: sim.OpLoad, Dst: regLoadDst, Src1: sim.RegNone, Addr: addr, Size: 4, Region: RegionPageTouch})
		emit(sim.Inst{Op: sim.OpBranch, Src1: regCounter, Taken: pg != p.Pages-1, Target: touchPC, Region: RegionPageTouch})
		pc = touchPC // loop body reuses its PCs (I$ resident)
		if pg == p.Pages-1 {
			pc = touchPC + uint64(4*(p.TouchWork+3))
		}
	}

	blankLoop := func(region uint16) {
		loopPC := pc
		for i := 0; i < p.BlankIters; i++ {
			emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch, Src1: regScratch, Region: region})
			emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + 1, Src1: regScratch + 1, Region: region})
			emit(sim.Inst{Op: sim.OpIntALU, Dst: regCounter, Src1: regCounter, Region: region})
			emit(sim.Inst{Op: sim.OpBranch, Src1: regCounter, Taken: i != p.BlankIters-1, Target: loopPC, Region: region})
			pc = loopPC
			if i == p.BlankIters-1 {
				pc = loopPC + 16
			}
		}
	}

	// --- Marker loop A.
	blankLoop(RegionMarkerA)

	// --- Miss section: TM unique random lines, serialized.
	used := make(map[uint64]struct{}, p.TM)
	missPC := pc
	dst := int16(regLoadDst)
	for i := 0; i < p.TM; i++ {
		var addr uint64
		for {
			pg := rng.Intn(p.Pages)
			ln := 1 + rng.Intn(linesPerPage-1)
			addr = uint64(arrayBase + pg*p.PageBytes + ln*p.LineBytes)
			if _, ok := used[addr]; !ok {
				used[addr] = struct{}{}
				break
			}
		}
		pc = missPC
		// PRNG/address computation: rand(), rand(), multiply/add — a
		// partially serial chain of IterWork instructions executed as a
		// small loop (the real rand() is warm library code, so its
		// instruction-cache footprint is tiny).
		const prngBody = 36 // instructions per inner-loop iteration
		prngIters := p.IterWork / (prngBody + 1)
		if prngIters < 1 {
			prngIters = 1
		}
		prngPC := pc
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
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regAddr, Src1: regChain, Region: RegionMisses})
		emit(sim.Inst{Op: sim.OpLoad, Dst: dst, Src1: regAddr, Addr: addr, Size: 4, Region: RegionMisses})
		// Fold the loaded value into the chain: the next address depends
		// on this load, so consecutive misses cannot overlap.
		emit(sim.Inst{Op: sim.OpIntALU, Dst: regChain, Src1: regChain, Src2: dst, Region: RegionMisses})
		emit(sim.Inst{Op: sim.OpBranch, Src1: regChain, Taken: true, Target: missPC, Region: RegionMisses})

		if (i+1)%p.CM == 0 && i != p.TM-1 {
			// micro_function_call(): non-memory work separating groups.
			callPC := pc + 4
			emit(sim.Inst{Op: sim.OpCall, Taken: true, Target: callPC, Region: RegionMisses})
			for w := 0; w < p.CallWork; w++ {
				emit(sim.Inst{Op: sim.OpIntALU, Dst: regScratch + int16(w%8), Src1: regScratch + int16(w%8), Region: RegionMisses})
			}
			emit(sim.Inst{Op: sim.OpReturn, Taken: true, Target: missPC, Region: RegionMisses})
		}
	}
	pc = missPC + uint64(4*(p.IterWork+p.CallWork+16))

	// --- Marker loop B.
	blankLoop(RegionMarkerB)

	return insts
}
