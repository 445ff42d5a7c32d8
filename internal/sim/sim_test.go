package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must give equal streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f := r.Fork()
	// Fork and parent streams must differ.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream matches parent %d/100 times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d/10 values seen in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

// TestRNGNormFloat64Tails checks the ziggurat generator's tail mass and
// symmetry against the standard normal: P(|X|>1), P(|X|>2) and P(|X|>3)
// must match Φ within sampling tolerance, and signs must be balanced.
// These are exactly the regions a mis-built ziggurat table distorts.
func TestRNGNormFloat64Tails(t *testing.T) {
	r := NewRNG(21)
	const n = 400000
	var over1, over2, over3, pos int
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		a := math.Abs(v)
		if a > 1 {
			over1++
		}
		if a > 2 {
			over2++
		}
		if a > 3 {
			over3++
		}
		if v > 0 {
			pos++
		}
	}
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"P(|X|>1)", float64(over1) / n, 0.31731, 0.005},
		{"P(|X|>2)", float64(over2) / n, 0.04550, 0.002},
		{"P(|X|>3)", float64(over3) / n, 0.00270, 0.0006},
		{"P(X>0)", float64(pos) / n, 0.5, 0.005},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, c.tol)
		}
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const p = 0.25
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p
	if mean := sum / n; math.Abs(mean-want) > 0.15 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
	if NewRNG(1).Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := NewRNG(uint64(seed)).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpHelpers(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpIntALU.IsMem() {
		t.Fatal("IsMem misclassifies")
	}
	if !OpBranch.IsCtl() || !OpCall.IsCtl() || !OpReturn.IsCtl() || OpLoad.IsCtl() {
		t.Fatal("IsCtl misclassifies")
	}
	if OpLoad.String() != "load" || OpTouch.String() != "touch" {
		t.Fatalf("op names wrong: %v %v", OpLoad, OpTouch)
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Fatalf("unknown op name %q", got)
	}
}

func TestSliceStream(t *testing.T) {
	insts := []Inst{{PC: 4}, {PC: 8}, {PC: 12}}
	s := NewSliceStream(insts)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	var in Inst
	var pcs []uint64
	for s.Next(&in) {
		pcs = append(pcs, in.PC)
	}
	if len(pcs) != 3 || pcs[0] != 4 || pcs[2] != 12 {
		t.Fatalf("pcs %v", pcs)
	}
	if s.Next(&in) {
		t.Fatal("exhausted stream must return false")
	}
	s.Reset()
	if !s.Next(&in) || in.PC != 4 {
		t.Fatal("reset must rewind")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	f := FuncStream(func(in *Inst) bool {
		if n >= 3 {
			return false
		}
		in.PC = uint64(n)
		n++
		return true
	})
	var in Inst
	count := 0
	for f.Next(&in) {
		count++
	}
	if count != 3 {
		t.Fatalf("func stream yielded %d", count)
	}
}
