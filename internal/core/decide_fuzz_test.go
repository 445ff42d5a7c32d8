package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"emprof/internal/sim"
	"emprof/internal/trace"
)

// FuzzDetectorRunMatchesStep decides positions decoded from the fuzz
// input three ways on fresh detectors: with run over spans cut at random
// split points, with one step per position, and with the fast run and
// step driven directly. All three must leave the same stalls (bitwise),
// Normalized series, aborted-dip count, detector state and observer
// events. The direct drive also requires every position the fast run
// declines to be eventful (flagged, or entering or leaving a dip): a fast
// run that declines more is still correct, since step decides the
// position, but the comparisons alone cannot see it.
//
// The first byte sets KeepNormalized (bit 0), an attached observer (bit
// 1), equal enter and exit thresholds (bit 2) and the largest span (the
// rest). Each position then takes two bytes: the first picks its
// normalised target, the second its stats and its flags.
func FuzzDetectorRunMatchesStep(f *testing.F) {
	// Dips accepted at exactly the exit threshold and one ulp above it,
	// entries one ulp below the enter threshold, NaN in and out of a dip,
	// a non-structural flag inside a dip, a gap flag blocking an entry, a
	// step flag aborting a dip, hi ≤ 0, NaN lo, an infinite range and an
	// open dip at the end.
	dips := []byte{0, 0, 9, 0, 4, 0, 4, 0, 5, 0, 1, 0, 12, 0, 10, 0, 15, 0, 2, 0, 15, 0, 4, 0x0d, 4, 0, 4, 0, 3, 0,
		2, 0x0c, 2, 0, 4, 0x0e, 2, 0x80, 2, 0xa0, 2, 0xc0, 4, 0, 4, 0}
	for _, opts := range []byte{0x3b, 0x06, 0x00, 0xf9} {
		f.Add(append([]byte{opts}, dips...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := DefaultConfig()
		if data[0]&4 != 0 {
			cfg.ExitThreshold = cfg.EnterThreshold
		}
		keep, observe := data[0]&1 != 0, data[0]&2 != 0
		maxSpan := 1 + int(data[0]>>3)
		xs, fl, lo, hi := decideFuzzPositions(cfg, data[1:])

		type pass struct {
			d      *detector
			p      *Profile
			q      *Quality
			events eventLog
		}
		newPass := func() *pass {
			ps := &pass{p: &Profile{}, q: &Quality{}}
			ps.d = newDetector(cfg, 40e6, 1e9, 64, ps.p, ps.q, nil)
			ps.d.keep = keep
			if observe {
				ps.d.obs = &ps.events
			}
			return ps
		}

		want := newPass()
		for i := range xs {
			want.d.step(int64(i), xs[i], fl[i], lo[i], hi[i])
		}

		spans := newPass()
		rng := sim.NewRNG(uint64(len(data)))
		for i := 0; i < len(xs); {
			e := min(i+1+rng.Intn(maxSpan), len(xs))
			spans.d.run(int64(i), xs[i:e], fl[i:e], lo[i:e], hi[i:e])
			i = e
		}

		direct := newPass()
		for i := 0; i < len(xs); {
			i += direct.d.fastRun(xs[i:], fl[i:], lo[i:], hi[i:])
			if i < len(xs) {
				was := direct.d.InDip
				direct.d.step(int64(i), xs[i], fl[i], lo[i], hi[i])
				if fl[i] == 0 && direct.d.InDip == was {
					t.Fatalf("fast run declined uneventful position %d: x=%g lo=%g hi=%g v=%g inDip=%v",
						i, xs[i], lo[i], hi[i], normValue(xs[i], lo[i], hi[i], cfg.MinRangeFrac), was)
				}
				i++
			}
		}

		for _, got := range []struct {
			name string
			*pass
		}{{"spans", spans}, {"direct", direct}} {
			ctx := fmt.Sprintf("%s (keep %v, observer %v, exit %g, spans<=%d, %d positions)",
				got.name, keep, observe, cfg.ExitThreshold, maxSpan, len(xs))
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"stalls", got.p.Stalls, want.p.Stalls},
				{"normalized", got.p.Normalized, want.p.Normalized},
				{"aborted dips", got.q.AbortedDips, want.q.AbortedDips},
				{"detector state", got.d.detectorState, want.d.detectorState},
				{"observer events", got.events.events, want.events.events},
			} {
				if !bitEqual(reflect.ValueOf(c.got), reflect.ValueOf(c.want)) {
					t.Fatalf("%s: %s differ\n got %v\nwant %v", ctx, c.what, c.got, c.want)
				}
			}
		}
	})
}

// decideFuzzPositions decodes fuzz bytes into at most 4096 positions, two
// bytes each. The first byte picks the normalised target t — a threshold
// exactly or one ulp either side of it, a clamp edge, a value beyond one,
// a dip floor, NaN or ±Inf — and the second the stats and flags. Under the
// exact stats lo = 0, hi = 1 (half the stat choices) the position's value
// is t itself, so v lands exactly on a threshold or clamp. The other stats
// cover hi ≤ 0, a range below MinRangeFrac·hi, NaN and ±Inf in lo and hi,
// and a scaled window. A quarter of the positions carry a structural, a
// non-structural or a mixed flag.
func decideFuzzPositions(cfg Config, data []byte) (xs []float64, fl []qflag, lo, hi []float64) {
	const maxPositions = 4096
	enter, exit := cfg.EnterThreshold, cfg.ExitThreshold
	nan, inf := math.NaN(), math.Inf(1)
	targets := [...]float64{
		enter, exit, 0, 1, 0.05, 0.15, 0.25, 0.6, 0.9,
		math.Nextafter(enter, 0), math.Nextafter(enter, 1),
		math.Nextafter(exit, 0), math.Nextafter(exit, 1),
		-0.5, 1.5, nan, inf, -inf,
	}
	for ; len(data) >= 2 && len(xs) < maxPositions; data = data[2:] {
		tv := targets[int(data[0])%len(targets)]
		l, h := 0.0, 1.0
		switch s := data[1] >> 4; s {
		case 8: // hi ≤ 0
			l, h = -1, 0
		case 9: // range below MinRangeFrac·hi
			l, h = 0.9, 1
		case 10:
			l = nan
		case 11:
			h = nan
		case 12: // infinite range: v is 0, or NaN for x = ±Inf
			h = inf
		case 13:
			l = -inf
		case 14, 15: // a scaled window
			l, h = 2, 2+float64(s)
		}
		x := tv
		if l != 0 || h != 1 {
			x = l + tv*(h-l)
		}
		var f qflag
		switch data[1] & 0x0f {
		case 12:
			f = qGap
		case 13:
			f = qBurst
		case 14:
			f = qStep
		case 15:
			f = qClip | qBurst
		}
		xs, fl, lo, hi = append(xs, x), append(fl, f), append(lo, l), append(hi, h)
	}
	return xs, fl, lo, hi
}

// eventLog records observer events in order.
type eventLog struct{ events []trace.Record }

func (e *eventLog) Observe(r trace.Record) { e.events = append(e.events, r) }
