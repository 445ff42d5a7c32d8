package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"
)

// Calibration. The 2-vCPU VM the baseline comes from changes speed by a
// factor of 1.4 to 2 for minutes at a time, as other tenants come and go:
// every timed phase of a run slows together and recovers together, so raw
// wall times of the same commit spread wider than any useful bound. The
// benchmark therefore times a fixed kernel, which is benchmark code and
// never changes with the program, on both cores between the rounds of
// every measured phase and around every set-up, and reports each timed
// quantity at the reference speed: scaled by calRefNs over the kernel's
// time measured beside it. A change to the program moves only the
// measured side of that ratio; the machine's speed moves both. The raw
// figures and the kernel's own times are in every row's extras.

// calRefNs is about the kernel's time on the baseline machine in its
// fast state, so that reported figures there read close to raw ones.
const calRefNs = 14e6

// calKeys is the kernel's fixed input, the same in every run.
var calKeys = func() []uint64 {
	r := rand.New(rand.NewPCG(0x5eed, 0xca1))
	keys := make([]uint64, 1<<15)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	return keys
}()

// calBuf is one core's working memory for the kernel, allocated once
// so that a sample allocates nothing and the program's garbage collection
// settings cannot reach it.
type calBuf struct {
	keys  []uint64
	table []uint32
	fs    []float64
	// sink keeps the kernel's results live, so the compiler cannot drop
	// the work.
	sink uint64
}

func newCalBuf() *calBuf {
	return &calBuf{
		keys:  make([]uint64, len(calKeys)),
		table: make([]uint32, 1<<16),
		fs:    make([]float64, 1<<15),
	}
}

// kernel is branchy sorting, data-dependent table walks and a
// floating-point recurrence: the mix of work the simulator, the analyzer
// and the service spend their time on.
func (s *calBuf) kernel() {
	copy(s.keys, calKeys)
	slices.Sort(s.keys)
	for i := range s.table {
		s.table[i] = uint32(s.keys[i%len(s.keys)] >> 32)
	}
	x, acc := uint64(0x9e3779b97f4a7c15), uint32(0)
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := s.table[x&0xffff]
		switch v & 7 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			acc -= v * 3
		case 3:
			acc = acc*31 + v
		case 4:
			s.table[(x>>16)&0xffff] = acc
		case 5:
			acc += uint32(x)
		case 6:
			acc |= v & 0xff
		default:
			acc = acc>>1 + v
		}
	}
	for i := range s.fs {
		s.fs[i] = float64(s.keys[i]>>40) * 1e-6
	}
	var y, m float64
	for rep := 0; rep < 12; rep++ {
		for i := 8; i < len(s.fs); i++ {
			m += s.fs[i] - s.fs[i-8]
			y = 0.9*y + 0.1*m*s.fs[i]
		}
	}
	s.sink += uint64(acc) + math.Float64bits(y)
}

// calibrator times the kernel on both cores at once.
type calibrator struct {
	// reps is how many times each core runs the kernel per sample.
	reps int
	bufs [2]*calBuf
	// tr, when set, receives each sample's factor for the spans that
	// follow it.
	tr *tracer
	// samples are every sample taken, in order.
	samples []time.Duration
}

func newCalibrator(reps int, tr *tracer) *calibrator {
	return &calibrator{reps: reps, bufs: [2]*calBuf{newCalBuf(), newCalBuf()}, tr: tr}
}

// sample runs the kernel reps times on each core and returns the median
// of the timings.
func (c *calibrator) sample() time.Duration {
	ds := make([]time.Duration, 2*c.reps)
	var wg sync.WaitGroup
	for i, s := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < c.reps; r++ {
				t0 := time.Now()
				s.kernel()
				ds[i*c.reps+r] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	d := (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
	c.samples = append(c.samples, d)
	if c.tr != nil {
		c.tr.setScale(scale(d, d))
	}
	return d
}

// scale is the factor that brings a time measured between two samples to
// the reference speed.
func scale(before, after time.Duration) float64 {
	return calRefNs / float64(before+after) * 2
}
