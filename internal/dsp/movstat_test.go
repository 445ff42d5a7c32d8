package dsp

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"emprof/internal/sim"
)

func TestMovingMinBasic(t *testing.T) {
	m := NewMovingMin(3)
	in := []float64{5, 3, 4, 1, 6, 7, 8}
	want := []float64{5, 3, 3, 1, 1, 1, 6}
	for i, x := range in {
		if y := m.Process(x); y != want[i] {
			t.Fatalf("sample %d: got %v, want %v", i, y, want[i])
		}
	}
}

func TestMovingMaxBasic(t *testing.T) {
	m := NewMovingMax(2)
	in := []float64{1, 3, 2, 0, -1}
	want := []float64{1, 3, 3, 2, 0}
	for i, x := range in {
		if y := m.Process(x); y != want[i] {
			t.Fatalf("sample %d: got %v, want %v", i, y, want[i])
		}
	}
}

// TestMovingExtremumMatchesNaive is the central correctness property: the
// block kernel must agree with the O(w) rescan baseline
// on arbitrary inputs and window sizes.
func TestMovingExtremumMatchesNaive(t *testing.T) {
	f := func(seed int64, wRaw uint8, isMin bool) bool {
		w := int(wRaw%32) + 1
		var fast *MovingExtremum
		var slow *NaiveMovingExtremum
		if isMin {
			fast, slow = NewMovingMin(w), NewNaiveMovingMin(w)
		} else {
			fast, slow = NewMovingMax(w), NewNaiveMovingMax(w)
		}
		s := uint64(seed)
		for i := 0; i < 300; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			x := float64(int32(s >> 33))
			if fast.Process(x) != slow.Process(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingExtremumWindowExpiry(t *testing.T) {
	m := NewMovingMin(2)
	m.Process(1) // window {1}
	m.Process(5) // window {1,5} -> 1
	// 1 must expire now.
	if y := m.Process(7); y != 5 {
		t.Fatalf("got %v, want 5 after expiry", y)
	}
}

func TestMovingExtremumReset(t *testing.T) {
	m := NewMovingMax(4)
	m.Process(100)
	m.Reset()
	if y := m.Process(3); y != 3 {
		t.Fatalf("after reset got %v, want 3", y)
	}
}

func TestMovingExtremumMonotoneInput(t *testing.T) {
	// Strictly increasing input: min lags by w-1 samples, max tracks.
	const w = 5
	min, max := NewMovingMin(w), NewMovingMax(w)
	for i := 0; i < 50; i++ {
		x := float64(i)
		gotMin, gotMax := min.Process(x), max.Process(x)
		wantMin := x - (w - 1)
		if wantMin < 0 {
			wantMin = 0
		}
		if gotMin != wantMin || gotMax != x {
			t.Fatalf("i=%d: min=%v (want %v) max=%v (want %v)", i, gotMin, wantMin, gotMax, x)
		}
	}
}

func TestMovingExtremumPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for window 0")
		}
	}()
	NewMovingMin(0)
}

func TestProcessBlock(t *testing.T) {
	mn, mx := NewMovingMin(2), NewMovingMax(2)
	in := []float64{3, 1, 2, 0}
	lo, hi := make([]float64, len(in)), make([]float64, len(in))
	ProcessBlockMinMax(mn, mx, in, lo, hi)
	wantLo := []float64{3, 1, 1, 0}
	wantHi := []float64{3, 3, 2, 2}
	if !reflect.DeepEqual(lo, wantLo) || !reflect.DeepEqual(hi, wantHi) {
		t.Fatalf("block outputs lo=%v hi=%v, want %v %v", lo, hi, wantLo, wantHi)
	}
}

// refDeque is the textbook monotonic deque: the reference the block
// kernel is checked against, and the data structure whose shape the
// hand-off state keeps. It holds the live candidates, oldest first; each
// is strictly beyond every later sample of the window. (The analyzer's
// oracle in internal/core keeps its own copy.)
type refDeque struct {
	w     int
	isMin bool
	idx   []int64
	val   []float64
	count int64
}

func (d *refDeque) beyond(a, b float64) bool {
	if d.isMin {
		return a < b
	}
	return a > b
}

func (d *refDeque) Process(x float64) float64 {
	for n := len(d.val); n > 0 && !d.beyond(d.val[n-1], x); n-- {
		d.idx, d.val = d.idx[:n-1], d.val[:n-1]
	}
	d.idx, d.val = append(d.idx, d.count), append(d.val, x)
	if d.idx[0] <= d.count-int64(d.w) {
		d.idx, d.val = d.idx[1:], d.val[1:]
	}
	d.count++
	return d.val[0]
}

func (d *refDeque) Reset() { d.idx, d.val, d.count = nil, nil, 0 }

// State is the deque in the wire shape: the candidates plus one spare
// slot, head at 0.
func (d *refDeque) State() MovingExtremumState {
	return MovingExtremumState{
		W:     d.w,
		Idx:   append(append([]int64(nil), d.idx...), 0),
		Val:   append(append([]float64(nil), d.val...), 0),
		Tail:  len(d.idx),
		Count: d.count,
	}
}

// legacyState is the deque as builds before the window tag exported it:
// the full ring of w+1 slots, with the candidates starting at head and
// wrapping, and stale values in the free slots.
func (d *refDeque) legacyState(head int, rng *sim.RNG) MovingExtremumState {
	n := d.w + 1
	st := MovingExtremumState{Idx: make([]int64, n), Val: make([]float64, n), Head: head, Count: d.count}
	for k := range st.Idx {
		st.Idx[k], st.Val[k] = int64(rng.Uint64()%1000), rng.Float64()
	}
	p := head
	for k := range d.idx {
		st.Idx[p], st.Val[p] = d.idx[k], d.val[k]
		p = (p + 1) % n
	}
	st.Tail = p
	return st
}

// propertySignal mixes the inputs that stress a sliding extremum: noise,
// plateaus (ties), long monotone runs in both directions, and signed
// zeros.
func propertySignal(rng *sim.RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := 0; i < n; {
		run := 1 + int(rng.Uint64()%400)
		kind := rng.Uint64() % 4
		base := rng.Float64()
		for j := 0; j < run && i < n; j, i = j+1, i+1 {
			switch kind {
			case 0:
				xs[i] = rng.Float64()
			case 1:
				xs[i] = base // plateau: every sample ties
			case 2:
				xs[i] = base + float64(j)/8 // rising
			default:
				xs[i] = base - float64(j)/8 // falling
			}
			if rng.Uint64()%16 == 0 {
				// Coarse values tie across the window, and -0 ties +0
				// with different bits.
				xs[i] = [...]float64{math.Copysign(0, -1), 0, 1, 2}[rng.Uint64()%4]
			}
		}
	}
	return xs
}

// TestMovingExtremumMatchesDeque is the kernel's property test: over
// random windows (1–300 and the analyzer's 8,000), random block splits
// down to one sample, random Reset points, plateaus and monotone runs,
// the fused block kernel and the per-sample step are bit-identical to
// the reference deque, State equals the deque's after every block, and
// Restore from the deque's state — current or legacy full-ring form —
// continues bit-identically.
func TestMovingExtremumMatchesDeque(t *testing.T) {
	rng := sim.NewRNG(1)
	windows := []int{1, 2, 3, 8000}
	for len(windows) < 24 {
		windows = append(windows, 1+int(rng.Uint64()%300))
	}
	for _, w := range windows {
		n := 3*w + 2000
		xs := propertySignal(rng, n)
		dmn, dmx := &refDeque{w: w, isMin: true}, &refDeque{w: w}
		mn, mx := NewMovingMin(w), NewMovingMax(w)
		single := NewMovingMin(w)
		lo, hi := make([]float64, n), make([]float64, n)
		for i := 0; i < n; {
			if rng.Uint64()%8 == 0 {
				dmn.Reset()
				dmx.Reset()
				mn.Reset()
				mx.Reset()
				single.Reset()
			}
			var k int
			switch rng.Uint64() % 3 {
			case 0:
				k = 1
			case 1:
				k = 1 + int(rng.Uint64()%uint64(w+1))
			default:
				k = 1 + int(rng.Uint64()%uint64(2*w+64))
			}
			k = min(k, n-i)
			ProcessBlockMinMax(mn, mx, xs[i:i+k], lo[i:i+k], hi[i:i+k])
			for j := i; j < i+k; j++ {
				wl, wh := dmn.Process(xs[j]), dmx.Process(xs[j])
				if math.Float64bits(lo[j]) != math.Float64bits(wl) || math.Float64bits(hi[j]) != math.Float64bits(wh) {
					t.Fatalf("w=%d sample %d: block (%v, %v), deque (%v, %v)", w, j, lo[j], hi[j], wl, wh)
				}
				if got := single.Process(xs[j]); math.Float64bits(got) != math.Float64bits(wl) {
					t.Fatalf("w=%d sample %d: Process %v, deque %v", w, j, got, wl)
				}
			}
			i += k
			if !reflect.DeepEqual(mn.State(), dmn.State()) || !reflect.DeepEqual(mx.State(), dmx.State()) {
				t.Fatalf("w=%d after %d samples: State differs from the deque's\nmin %+v\n    %+v", w, i, mn.State(), dmn.State())
			}
			if rng.Uint64()%4 == 0 {
				checkRestoreContinues(t, w, dmn, dmx, xs[i:min(i+2*w+5, n)], rng)
			}
		}
	}
}

// checkRestoreContinues restores fresh kernels from the deques' states
// (current and legacy form) and requires them to continue exactly as
// copies of the deques do over tail.
func checkRestoreContinues(t *testing.T, w int, dmn, dmx *refDeque, tail []float64, rng *sim.RNG) {
	t.Helper()
	for _, legacy := range []bool{false, true} {
		smn, smx := dmn.State(), dmx.State()
		if legacy {
			smn, smx = dmn.legacyState(int(rng.Uint64()%uint64(w+1)), rng), dmx.legacyState(int(rng.Uint64()%uint64(w+1)), rng)
		}
		mn, mx := NewMovingMin(w), NewMovingMax(w)
		if err := mn.Restore(smn); err != nil {
			t.Fatalf("w=%d legacy=%v: restore min: %v", w, legacy, err)
		}
		if err := mx.Restore(smx); err != nil {
			t.Fatalf("w=%d legacy=%v: restore max: %v", w, legacy, err)
		}
		if !reflect.DeepEqual(mn.State(), dmn.State()) || !reflect.DeepEqual(mx.State(), dmx.State()) {
			t.Fatalf("w=%d legacy=%v: restored State differs from the deque's", w, legacy)
		}
		cmn := &refDeque{w: w, isMin: true, idx: append([]int64(nil), dmn.idx...), val: append([]float64(nil), dmn.val...), count: dmn.count}
		cmx := &refDeque{w: w, idx: append([]int64(nil), dmx.idx...), val: append([]float64(nil), dmx.val...), count: dmx.count}
		lo, hi := make([]float64, len(tail)), make([]float64, len(tail))
		ProcessBlockMinMax(mn, mx, tail, lo, hi)
		for j, x := range tail {
			wl, wh := cmn.Process(x), cmx.Process(x)
			if math.Float64bits(lo[j]) != math.Float64bits(wl) || math.Float64bits(hi[j]) != math.Float64bits(wh) {
				t.Fatalf("w=%d legacy=%v: restored kernel diverges %d samples on", w, legacy, j)
			}
		}
		if !reflect.DeepEqual(mn.State(), cmn.State()) || !reflect.DeepEqual(mx.State(), cmx.State()) {
			t.Fatalf("w=%d legacy=%v: State differs after the restored run", w, legacy)
		}
	}
}

// TestMovingExtremumRestoreRejects feeds Restore states no deque can hold
// and requires each to be refused without touching the kernel.
func TestMovingExtremumRestoreRejects(t *testing.T) {
	const w = 8
	good := func() MovingExtremumState {
		// Minimum after 12 samples: candidates at 5, 9, 11.
		return MovingExtremumState{W: w, Idx: []int64{5, 9, 11, 0}, Val: []float64{1, 2, 3, 0}, Tail: 3, Count: 12}
	}
	cases := map[string]func(*MovingExtremumState){
		"wrong window":       func(s *MovingExtremumState) { s.W = w + 1 },
		"legacy ring size":   func(s *MovingExtremumState) { s.W = 0 },
		"short val":          func(s *MovingExtremumState) { s.Val = s.Val[:2] },
		"head out of range":  func(s *MovingExtremumState) { s.Head = 4 },
		"negative count":     func(s *MovingExtremumState) { s.Count = -1 },
		"empty after input":  func(s *MovingExtremumState) { s.Tail = 0 },
		"input before start": func(s *MovingExtremumState) { s.Count = 0 },
		"not ascending":      func(s *MovingExtremumState) { s.Idx[1] = 5 },
		"expired candidate":  func(s *MovingExtremumState) { s.Idx[0] = 3 },
		"future candidate":   func(s *MovingExtremumState) { s.Idx[2] = 12; s.Count = 12 },
		"newest missing":     func(s *MovingExtremumState) { s.Count = 13 },
		"NaN value":          func(s *MovingExtremumState) { s.Val[1] = math.NaN() },
		"infinite value":     func(s *MovingExtremumState) { s.Val[2] = math.Inf(1) },
		"tie":                func(s *MovingExtremumState) { s.Val[1] = 1 },
		"wrong polarity":     func(s *MovingExtremumState) { s.Val[0], s.Val[2] = 3, 1 },
		"negative position":  func(s *MovingExtremumState) { s.Idx[0], s.Count = -1, 2; s.Idx[1], s.Idx[2] = 0, 1 },
	}
	m := NewMovingMin(w)
	if err := m.Restore(good()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	want := m.State()
	for name, mutate := range cases {
		st := good()
		mutate(&st)
		if err := m.Restore(st); err == nil {
			t.Errorf("%s: accepted %+v", name, st)
		}
		if !reflect.DeepEqual(m.State(), want) {
			t.Fatalf("%s: rejected state disturbed the kernel", name)
		}
	}
}

// NaiveMovingExtremum recomputes the window extremum by rescanning the full
// window on every sample: the O(w) baseline of BenchmarkMovingMinMaxNaive
// and a reference for the block kernel.
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

// BenchmarkMovingMinMaxNaive is the O(w) rescan baseline of one extremum,
// in ns per sample; the root package's BenchmarkMovingMinMaxBlock runs
// the block kernel as the analyzer does, at the same window.
func BenchmarkMovingMinMaxNaive(b *testing.B) {
	const w = 8192
	m := NewNaiveMovingMin(w)
	rng := sim.NewRNG(1)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Process(xs[i%len(xs)])
	}
}
