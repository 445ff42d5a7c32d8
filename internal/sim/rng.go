// Package sim provides the shared simulation substrate: the instruction
// stream representation consumed by the cycle-level processor model, region
// markers used for attribution ground truth, and a small deterministic
// pseudo-random number generator so that every experiment in the repository
// is reproducible from a seed.
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64 seeding and xoshiro256** output. It is intentionally not
// math/rand so that traces are stable across Go releases and so that each
// component of the simulator can own an independent, cheaply-forkable
// stream.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded with seed via splitmix64, which
// guarantees a well-mixed internal state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro's all-zero state is absorbing; splitmix cannot produce it for
	// all four words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork returns a new generator whose stream is independent of r's
// continuation. It advances r once so successive forks differ.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Ziggurat tables for NormFloat64 (Marsaglia & Tsang 2000, 128 strips),
// built once at package init. znR is the start of the tail strip and znV
// the common strip area; the derived tables give, per strip i, the
// acceptance threshold znK[i] (scaled to 31 bits), the value scale znW[i]
// and the density znF[i] at the strip edge.
const (
	znR = 3.442619855899
	znV = 9.91256303526217e-3
	znM = 1 << 31
)

var (
	znK [128]uint32
	znW [128]float64
	znF [128]float64
)

func init() {
	f := math.Exp(-0.5 * znR * znR)
	q := znV / f
	znK[0] = uint32(znR / q * znM)
	znK[1] = 0
	znW[0] = q / znM
	znW[127] = znR / znM
	znF[0] = 1
	znF[127] = f
	dn := znR
	tn := znR
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(znV/dn+math.Exp(-0.5*dn*dn)))
		znK[i+1] = uint32(dn / tn * znM)
		tn = dn
		znF[i] = math.Exp(-0.5 * dn * dn)
		znW[i] = dn / znM
	}
}

// NormFloat64 returns a standard normal variate using the ziggurat method.
// The common case (≈98.5% of draws) costs a single Uint64 plus one table
// compare and one multiply — no logs or square roots — which matters
// because EM noise synthesis draws two variates per output sample.
func (r *RNG) NormFloat64() float64 {
	j := int32(r.Uint32())
	i := uint32(j) & 127
	m := j >> 31 // branchless |j|: random-sign branches mispredict half the time
	a := uint32((j ^ m) - m)
	if a < znK[i] {
		return float64(j) * znW[i]
	}
	return r.normSlow(j, i)
}

// normSlow resolves the rare draws that fail the ziggurat fast test: the
// tail strip beyond znR (Marsaglia's exponential wedge rejection) and the
// curved wedge of interior strips. It consumes the uniform stream exactly
// as the classic single-loop formulation would, so NormFloat64 and the
// batch NormFloat64s stay draw-for-draw equivalent.
func (r *RNG) normSlow(j int32, i uint32) float64 {
	for {
		if i == 0 {
			for {
				x := -math.Log(r.Float64()) / znR
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					if j > 0 {
						return znR + x
					}
					return -(znR + x)
				}
			}
		}
		x := float64(j) * znW[i]
		if znF[i]+r.Float64()*(znF[i-1]-znF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		j = int32(r.Uint32())
		i = uint32(j) & 127
		m := j >> 31
		a := uint32((j ^ m) - m)
		if a < znK[i] {
			return float64(j) * znW[i]
		}
	}
}

// NormFloat64s fills dst with standard normal variates. The stream is
// exactly the one len(dst) sequential NormFloat64 calls would produce (the
// polar method's rejection loop consumes the same underlying uniforms), so
// block-synthesis paths can pre-draw a batch of noise without perturbing
// determinism relative to the per-sample path.
func (r *RNG) NormFloat64s(dst []float64) {
	for n := range dst {
		j := int32(r.Uint32())
		i := uint32(j) & 127
		m := j >> 31
		a := uint32((j ^ m) - m)
		if a < znK[i] {
			dst[n] = float64(j) * znW[i]
			continue
		}
		dst[n] = r.normSlow(j, i)
	}
}

// Geometric returns a geometric variate: the number of failures before the
// first success for success probability p in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("sim: Geometric with non-positive p")
	}
	u := r.Float64()
	if u == 0 {
		return 0
	}
	return int(math.Floor(math.Log(1-u) / math.Log(1-p)))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
