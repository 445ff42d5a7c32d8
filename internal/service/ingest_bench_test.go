package service

import (
	"fmt"
	"io"
	"testing"

	"emprof/internal/core"
	"emprof/internal/sim"
)

// BenchmarkIngestWindowed pins the continuous-profiling overhead at the
// registry layer: the same stall-bearing stream pushed through ingest
// with windowing off and on. Each timed push decodes and analyses its
// samples, seals its windows and appends them to the memory store. The
// windowed path's budget is <10% over windowless (gated end to end by
// CI's windowed fleet ingest run).
func BenchmarkIngestWindowed(b *testing.B) {
	for _, windowS := range []float64{0, 0.0005} {
		name := "off"
		if windowS > 0 {
			name = fmt.Sprintf("%gs", windowS)
		}
		b.Run(name, func(b *testing.B) {
			srv := New(Config{WindowS: windowS, MaxSessionBytes: 1 << 62})
			defer srv.Close()
			reg := srv.Registry()
			id, err := reg.CreateSession(CreateOpts{Device: "bench", SampleRate: 40e6, ClockHz: 1e9, Config: core.DefaultConfig()})
			if err != nil {
				b.Fatal(err)
			}
			sess, err := reg.get(id)
			if err != nil {
				b.Fatal(err)
			}
			samples := benchStallSeries(1 << 16)
			chunk := rawBytes(samples)
			served := false
			next := func() ([]byte, error) {
				if served {
					return nil, io.EOF
				}
				served = true
				return chunk, io.EOF
			}
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				served = false
				if _, err := reg.ingest(sess, int64(len(chunk)), -1, next); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// benchStallSeries is the busy/stall pattern the fleet ingest bench
// streams: frequent dips, so the windowed path actually observes and
// seals stalls rather than idling.
func benchStallSeries(n int) []float64 {
	rng := sim.NewRNG(1)
	s := make([]float64, n)
	busy, left := true, 50
	for i := range s {
		if left == 0 {
			busy = !busy
			if busy {
				left = 30 + rng.Intn(120)
			} else {
				left = 5 + rng.Intn(40)
			}
		}
		left--
		if busy {
			s[i] = 1 + 0.3*rng.Float64()
		} else {
			s[i] = 0.25
		}
	}
	return s
}
