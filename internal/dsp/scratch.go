package dsp

import "sync"

// scratchPool recycles float64 work buffers across block-kernel calls so the
// hot synthesis path (FIR blocks arriving every few thousand cycles)
// settles to zero steady-state allocations. Buffers are pooled via
// pointer-to-slice to avoid the allocation sync.Pool would otherwise do for
// the slice header itself.
var scratchPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 4096)
		return &s
	},
}

// getScratch returns a pooled buffer of length n. The contents are
// unspecified; callers must fully overwrite the range they read.
func getScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer obtained from getScratch to the pool.
func putScratch(p *[]float64) {
	scratchPool.Put(p)
}
