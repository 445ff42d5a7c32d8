package dsp

import (
	"fmt"
	"math"
	"slices"
)

// MovingExtremum tracks the minimum or maximum over a sliding window of
// the last w samples. EMPROF's normalisation stage (Section IV of the
// paper) runs one moving minimum and one moving maximum over the signal
// magnitude, and the quality monitor's busy tracker runs a moving
// maximum; at receiver rates of tens of MHz a naive O(w) rescan per
// sample would dominate profiling cost (see BenchmarkMovingMinMaxNaive).
//
// The kernel is the van Herk/Gil-Werman block decomposition. Positions
// since the last Reset are cut into blocks of w; the window ending at
// offset p of a block is the previous block's offsets (p, w) followed by
// the current block's [0, p]. So each output is the extreme of two
// numbers: suf[p+1], the previous block's suffix extreme, and pre, the
// current block's running prefix extreme. One backward pass at each
// block end refills suf from the block's raw values. Every loop runs a
// fixed number of times, where a monotonic deque pops a data-dependent
// number of candidates per sample and mispredicts that pop loop.
//
// Every comparison keeps the newer sample unless the older one is
// strictly beyond it, which is a monotonic deque's rule, so outputs
// equal a deque's bit for bit on any input without NaN (±0 and ±Inf
// included), warm-up (count < w) and Reset included; the tests hold a
// reference deque for that reason. The output at a position therefore
// depends only on the samples in its window, never on where the blocks
// fall, which lets the parallel analyzer restart a shard one window
// early and still match the batch analyzer. A NaN never wins a
// comparison, so it is skipped; the monitor feeds none.
//
// The comparisons are plain compare-and-select branches rather than the
// builtin min and max. Their outcome changes only when a new prefix or
// suffix extreme appears, a few times per block on a noisy signal, so
// they predict well; the builtins lower to a NaN- and ±0-safe sequence
// of two MINSD on amd64, which sits on the prefix's loop-carried chain
// and measured more than twice as slow in the engine.
type MovingExtremum struct {
	w     int
	isMin bool
	// cur[:pos] holds the current block's raw values; cur[pos:] still
	// holds the previous block's tail, the rest of the window.
	cur []float64
	// suf[k] is the extreme of the previous block's offsets [k, w).
	// suf[w] — and all of suf in the first block after a Reset, when
	// there is no previous block — is the identity, so the first block
	// needs no special case.
	suf   []float64
	pre   float64 // extreme of cur[:pos]; the identity at pos 0
	pos   int
	count int64 // samples since Reset
}

// NewMovingMin returns a sliding-window minimum over w samples.
func NewMovingMin(w int) *MovingExtremum { return newMovingExtremum(w, true) }

// NewMovingMax returns a sliding-window maximum over w samples.
func NewMovingMax(w int) *MovingExtremum { return newMovingExtremum(w, false) }

func newMovingExtremum(w int, isMin bool) *MovingExtremum {
	if w <= 0 {
		panic("dsp: moving extremum window must be positive")
	}
	m := &MovingExtremum{
		w:     w,
		isMin: isMin,
		cur:   make([]float64, w),
		suf:   make([]float64, w+1),
	}
	m.Reset()
	return m
}

// identity is the extreme of no samples: +Inf for a minimum, -Inf for a
// maximum.
func (m *MovingExtremum) identity() float64 {
	if m.isMin {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// beyond reports whether a is strictly more extreme than b.
func (m *MovingExtremum) beyond(a, b float64) bool {
	if m.isMin {
		return a < b
	}
	return a > b
}

// Process pushes x and returns the extremum of the last min(count, w)
// samples. It is the reference form of the per-sample step that
// ProcessBlockMinMax and the quality monitor's busy tracker run inline:
// x becomes the prefix unless the prefix is strictly beyond it (a NaN
// never does), and the output is the prefix unless the older suffix is
// strictly beyond it.
func (m *MovingExtremum) Process(x float64) float64 {
	p := m.pos
	m.cur[p] = x
	if !math.IsNaN(x) && !m.beyond(m.pre, x) {
		m.pre = x
	}
	y := m.pre
	if v := m.suf[p+1]; m.beyond(v, y) {
		y = v
	}
	m.count++
	if m.pos = p + 1; m.pos == m.w {
		m.EndBlock()
	}
	return y
}

// EndBlock closes a full block: the suffix extremes of its raw values
// become the previous-block lane, and the next block starts at position
// 0 with the identity as its prefix.
func (m *MovingExtremum) EndBlock() {
	cur, suf := m.cur, m.suf[:len(m.cur)]
	acc := m.identity()
	if m.isMin {
		for k := len(cur) - 1; k >= 0; k-- {
			if v := cur[k]; v < acc {
				acc = v
			}
			suf[k] = acc
		}
	} else {
		for k := len(cur) - 1; k >= 0; k-- {
			if v := cur[k]; v > acc {
				acc = v
			}
			suf[k] = acc
		}
	}
	m.pos, m.pre = 0, m.identity()
}

// Reset clears the window. It costs one pass over the suffix lane, which
// the analyzer pays only at resyncs and shard starts.
func (m *MovingExtremum) Reset() {
	id := m.identity()
	for k := range m.suf {
		m.suf[k] = id
	}
	m.pos, m.pre, m.count = 0, id, 0
}

// Block is a view of the kernel's state for callers that inline the
// per-sample step into their own loops — the quality monitor's busy
// tracker interleaves a moving max with branchy per-sample state, where a
// call per sample costs more than the step. The step at position Pos
// writes x to Cur[Pos], folds x into Pre and outputs the extreme of Pre
// and Suf[Pos+1], with Process's tie rule; when Pos reaches len(Cur) the
// caller calls EndBlock and continues at Pos 0 with Pre the identity
// (+Inf for a minimum, -Inf for a maximum).
type Block struct {
	Cur, Suf []float64
	Pos      int
	Pre      float64
}

// Block returns the kernel's current block view. The caller owns the
// kernel until it calls SetBlock; only EndBlock may run in between.
func (m *MovingExtremum) Block() Block {
	return Block{Cur: m.cur, Suf: m.suf, Pos: m.pos, Pre: m.pre}
}

// SetBlock commits n samples stepped by an inlined loop that left the
// kernel at position pos with running prefix pre.
func (m *MovingExtremum) SetBlock(pos int, pre float64, n int) {
	m.pos, m.pre = pos, pre
	m.count += int64(n)
}

// ProcessBlockMinMax advances a moving minimum and a moving maximum of
// the same width, in lock-step, over one block: lo[j] and hi[j] receive
// what Process would return for in[j]. The normalisation stage always
// runs the two over identical input; fusing them reads the block once.
func ProcessBlockMinMax(mn, mx *MovingExtremum, in, lo, hi []float64) {
	if !mn.isMin || mx.isMin || mn.w != mx.w || mn.count != mx.count {
		panic("dsp: ProcessBlockMinMax wants a minimum and a maximum of one width in lock-step")
	}
	lo = lo[:len(in)]
	hi = hi[:len(in)]
	w := mn.w
	for len(in) > 0 {
		p := mn.pos
		n := min(len(in), w-p)
		xs := in[:n]
		nCur, xCur := mn.cur[p:p+n], mx.cur[p:p+n]
		nSuf, xSuf := mn.suf[p+1:p+1+n], mx.suf[p+1:p+1+n]
		l, h := lo[:n], hi[:n]
		nPre, xPre := mn.pre, mx.pre
		for j, x := range xs {
			nCur[j] = x
			xCur[j] = x
			if x <= nPre {
				nPre = x
			}
			if x >= xPre {
				xPre = x
			}
			a, b := nPre, xPre
			if v := nSuf[j]; v < a {
				a = v
			}
			if v := xSuf[j]; v > b {
				b = v
			}
			l[j], h[j] = a, b
		}
		mn.pre, mx.pre = nPre, xPre
		mn.pos, mx.pos = p+n, p+n
		mn.count += int64(n)
		mx.count += int64(n)
		if p+n == w {
			mn.EndBlock()
			mx.EndBlock()
		}
		in, lo, hi = in[n:], lo[n:], hi[n:]
	}
}

// MovingExtremumState is a serializable snapshot of a MovingExtremum, for
// streaming hand-off (core.StreamAnalyzer state export). The min/max
// polarity is not part of the state: it is a structural parameter the
// restoring side re-derives from its own configuration.
//
// The state keeps the shape of the monotonic deque the kernel replaced,
// so hand-off stays small and works across versions: the live
// candidates, i.e. the positions in the window whose value is strictly
// beyond every later one, front (oldest) first. Over a noisy signal they
// number a few dozen whatever the window width. W carries the window
// width for validation; states from builds that predate it (W == 0) ship
// the deque's full ring of w+1 slots, whose capacity implies the window.
type MovingExtremumState struct {
	W     int       `json:"w,omitempty"`
	Idx   []int64   `json:"idx"`
	Val   []float64 `json:"val"`
	Head  int       `json:"head"`
	Tail  int       `json:"tail"`
	Count int64     `json:"count"`
}

// State derives the live candidates of the window ending at the newest
// sample.
func (m *MovingExtremum) State() MovingExtremumState {
	// The window, oldest first: the previous block's tail (once a full
	// block has passed since Reset), then the current block.
	win := m.cur[:m.pos]
	if m.count >= int64(m.w) {
		win = append(slices.Clone(m.cur[m.pos:]), win...)
	}
	first := m.count - int64(len(win))
	// Newest to oldest, keeping each sample strictly beyond all later
	// ones; the newest sample is always a candidate.
	var idx []int64
	var val []float64
	for k := len(win) - 1; k >= 0; k-- {
		if len(val) == 0 || m.beyond(win[k], val[len(val)-1]) {
			idx = append(idx, first+int64(k))
			val = append(val, win[k])
		}
	}
	slices.Reverse(idx)
	slices.Reverse(val)
	// A ring of the candidates plus one spare slot, head at 0.
	return MovingExtremumState{W: m.w, Idx: append(idx, 0), Val: append(val, 0), Tail: len(idx), Count: m.count}
}

// Restore overwrites the kernel with a state captured by State on an
// extremum of the same window width — by this kernel or by the deque of
// earlier builds. The candidates must be what such a state holds:
// strictly ascending positions inside the last W samples [Count−W,
// Count), ending at the newest one (Count−1), with finite values strictly
// monotone in the polarity (each beyond every later one). A state that
// breaks any of these is rejected and the kernel is left untouched.
//
// The block state is rebuilt by giving every window position the value
// of the first candidate at or after it. A non-candidate value is
// dominated by a later sample in every window that holds it, so it never
// reaches an output, and the rebuilt window has exactly the same
// candidates: processing after Restore continues bit-identically to the
// exporting instance, and State stays equal to its.
func (m *MovingExtremum) Restore(st MovingExtremumState) error {
	n := len(st.Idx)
	if len(st.Val) != n || n == 0 {
		return fmt.Errorf("dsp: extremum state buffers inconsistent (%d idx, %d val)", n, len(st.Val))
	}
	if st.W != 0 && st.W != m.w {
		return fmt.Errorf("dsp: extremum state for window %d, have %d", st.W, m.w)
	}
	if st.W == 0 && n != m.w+1 {
		// Legacy full-ring states carry no window tag; their ring
		// capacity is the window check.
		return fmt.Errorf("dsp: extremum state for window %d, have %d", n-1, m.w)
	}
	if st.Head < 0 || st.Head >= n || st.Tail < 0 || st.Tail >= n || st.Count < 0 {
		return fmt.Errorf("dsp: extremum state out of range (head=%d tail=%d count=%d)", st.Head, st.Tail, st.Count)
	}
	cnt := st.Tail - st.Head
	if cnt < 0 {
		cnt += n
	}
	if cnt > m.w {
		return fmt.Errorf("dsp: extremum state holds %d candidates for window %d", cnt, m.w)
	}
	if (cnt == 0) != (st.Count == 0) {
		return fmt.Errorf("dsp: extremum state holds %d candidates after %d samples", cnt, st.Count)
	}
	lo := max(st.Count-int64(m.w), 0)
	idx := make([]int64, cnt)
	val := make([]float64, cnt)
	for k, p := 0, st.Head; k < cnt; k++ {
		idx[k], val[k] = st.Idx[p], st.Val[p]
		if p++; p == n {
			p = 0
		}
		switch i, x := idx[k], val[k]; {
		case i < lo || i >= st.Count:
			return fmt.Errorf("dsp: extremum candidate at %d outside the window [%d, %d)", i, lo, st.Count)
		case k > 0 && i <= idx[k-1]:
			return fmt.Errorf("dsp: extremum candidate positions not ascending (%d after %d)", i, idx[k-1])
		case math.IsNaN(x) || math.IsInf(x, 0):
			return fmt.Errorf("dsp: extremum candidate value %v not finite", x)
		case k > 0 && !m.beyond(val[k-1], x):
			return fmt.Errorf("dsp: extremum candidate values not strictly monotone (%v before %v)", val[k-1], x)
		}
	}
	if cnt > 0 && idx[cnt-1] != st.Count-1 {
		return fmt.Errorf("dsp: extremum state lacks its newest sample %d", st.Count-1)
	}

	m.Reset()
	w := int64(m.w)
	m.count = st.Count
	m.pos = int(st.Count % w)
	c := 0
	for q := lo; q < st.Count; q++ {
		for idx[c] < q {
			c++
		}
		m.cur[q%w] = val[c]
	}
	for _, x := range m.cur[:m.pos] {
		if !m.beyond(m.pre, x) {
			m.pre = x
		}
	}
	if st.Count >= w {
		acc := m.identity()
		for k := m.w - 1; k >= m.pos; k-- {
			if m.beyond(m.cur[k], acc) {
				acc = m.cur[k]
			}
			m.suf[k] = acc
		}
	}
	return nil
}

// NaiveMovingExtremum recomputes the window extremum by rescanning the full
// window on every sample. It exists solely as the baseline for the
// moving-min/max ablation benchmark; the profiler never uses it.
type NaiveMovingExtremum struct {
	w     int
	isMin bool
	buf   []float64
	pos   int
	n     int
}

// NewNaiveMovingMin returns the O(w)-per-sample baseline minimum.
func NewNaiveMovingMin(w int) *NaiveMovingExtremum {
	return &NaiveMovingExtremum{w: w, isMin: true, buf: make([]float64, w)}
}

// NewNaiveMovingMax returns the O(w)-per-sample baseline maximum.
func NewNaiveMovingMax(w int) *NaiveMovingExtremum {
	return &NaiveMovingExtremum{w: w, isMin: false, buf: make([]float64, w)}
}

// Process pushes x and rescans the whole window.
func (m *NaiveMovingExtremum) Process(x float64) float64 {
	m.buf[m.pos] = x
	m.pos++
	if m.pos == m.w {
		m.pos = 0
	}
	if m.n < m.w {
		m.n++
	}
	// Scan the n valid entries.
	best := x
	seen := 0
	for i := 0; i < m.w && seen < m.n; i++ {
		v := m.buf[i]
		if i >= m.n && m.n < m.w {
			break
		}
		seen++
		if m.isMin && v < best {
			best = v
		}
		if !m.isMin && v > best {
			best = v
		}
	}
	return best
}
