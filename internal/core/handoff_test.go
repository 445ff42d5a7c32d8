package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"emprof/internal/dsp"
	"emprof/internal/em"
)

// handoffCapture builds a capture with genuine stalls plus (optionally)
// every impairment class the monitor knows, so a hand-off mid-fault
// exercises the full state machine.
func handoffCapture(faults bool) *em.Capture {
	c := synthCapture(40000, map[int]int{4000: 12, 12000: 12, 24500: 12, 32000: 100}, 0.1, 1, 0.02, 17)
	if faults {
		for i := 8000; i < 8600; i++ {
			c.Samples[i] = 0
		}
		for i := 14000; i < 14003; i++ {
			c.Samples[i] = 6.0
		}
		for i := 20000; i < len(c.Samples); i++ {
			c.Samples[i] *= 3.0
		}
		c.Samples[26000] = math.NaN()
	}
	return c
}

// splitProfile pushes the first k samples into one analyzer, exports its
// state through a JSON round trip (the hand-off wire encoding), resumes
// a second analyzer from it, pushes the rest, and finalizes. The resumed
// analyzer must export the same bytes the first one did. inDip reports
// whether the export caught the detector inside a dip.
func splitProfile(t *testing.T, c *em.Capture, cfg Config, k int) (p *Profile, inDip bool) {
	t.Helper()
	a, err := NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Samples[:k] {
		a.PushBlock(c.Samples[i : i+1])
	}
	st := a.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var wire StreamState
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	b, err := ResumeStreamAnalyzer(&wire)
	if err != nil {
		t.Fatalf("resume at k=%d: %v", k, err)
	}
	again, err := json.Marshal(b.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("resumed at k=%d, the analyzer exports\n%s\nwant\n%s", k, again, blob)
	}
	for i := k; i < len(c.Samples); i++ {
		b.PushBlock(c.Samples[i : i+1])
	}
	return b.Finalize(), a.det.InDip
}

// TestHandoffBitIdentical is the property behind fleet rebalance: export
// + resume at ANY split point yields a profile bit-identical to one
// analyzer seeing the whole stream — across configurations (smoothing
// on/off, probe-shift armed) and clean/faulted captures alike.
func TestHandoffBitIdentical(t *testing.T) {
	configs := map[string]Config{}
	configs["default"] = DefaultConfig()
	raw := DefaultConfig()
	raw.SmoothSamples = 1
	configs["raw"] = raw
	shift := DefaultConfig()
	shift.ProbeShiftRatio = 1.4
	configs["shift"] = shift

	for name, cfg := range configs {
		for _, faults := range []bool{false, true} {
			c := handoffCapture(faults)
			want, err := ProfileStream(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := len(c.Samples)
			// Split points cover: virgin analyzer, warm-up, mid-gap,
			// mid-burst, post-step, the detector inside the long stall's
			// dip (decided half a window after the stall), and the
			// degenerate full-stream export.
			dips := 0
			for _, k := range []int{0, 1, 7, 4005, 8300, 14001, 20500, n / 2, 26000, 36050, n - 1, n} {
				got, inDip := splitProfile(t, c, cfg, k)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s faults=%v: profile diverged after hand-off at %d/%d:\nwant %+v\ngot  %+v",
						name, faults, k, n, want, got)
				}
				if inDip {
					dips++
				}
			}
			if dips == 0 {
				t.Errorf("%s faults=%v: no split point exported a detector inside a dip", name, faults)
			}
		}
	}
}

// TestHandoffExportDoesNotDisturb proves ExportState is a pure snapshot:
// the exporting analyzer keeps producing its normal output afterwards
// (the fleet keeps a session live until the import is acknowledged).
func TestHandoffExportDoesNotDisturb(t *testing.T) {
	c := handoffCapture(true)
	cfg := DefaultConfig()
	want, err := ProfileStream(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewStreamAnalyzer(cfg, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Samples {
		if i%5000 == 0 {
			_ = a.ExportState()
		}
		a.PushBlock(c.Samples[i : i+1])
	}
	if got := a.Finalize(); !reflect.DeepEqual(want, got) {
		t.Fatalf("exports disturbed the exporting analyzer:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestHandoffRejectsMismatchedState: a state exported under one
// configuration must not resume into an analyzer built for another.
func TestHandoffRejectsMismatchedState(t *testing.T) {
	c := handoffCapture(false)
	a, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Samples[:1000] {
		a.PushBlock(c.Samples[i : i+1])
	}

	if _, err := ResumeStreamAnalyzer(nil); err == nil {
		t.Fatal("nil state accepted")
	}

	// Different normalisation window ⇒ different extremum ring size.
	st := a.ExportState()
	st.Config.NormWindowS *= 2
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with mismatched window accepted")
	}

	// Smoothing disabled but smoother state present.
	st = a.ExportState()
	st.Config.SmoothSamples = 1
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with orphaned smoother accepted")
	}

	// Inconsistent counters.
	st = a.ExportState()
	st.Decided = st.Pushed + 1
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with decided > pushed accepted")
	}

	// Monitor counts out of step with the samples pushed: every pushed
	// sample passes through the monitor and its busy tracker once.
	st = a.ExportState()
	st.Monitor.Quality.Samples = 0
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state whose monitor saw no samples accepted")
	}
	st = a.ExportState()
	st.Monitor.Quality.Samples++
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state whose monitor saw more samples than pushed accepted")
	}
	st = a.ExportState()
	st.Monitor.Quality.Resyncs = -1
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a negative resync count accepted")
	}
	st = a.ExportState()
	st.Monitor.Quality.DroppedSamples = -1
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a negative dropped-sample count accepted")
	}

	// A dip in progress must have opened at a decided position, at a
	// normalised depth: one opened long before the stream would flush as
	// a stall of hours.
	far, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	far.PushBlock(c.Samples[:15000])
	for _, d := range []detectorState{
		{InDip: true, Start: -1 << 40, Depth: 0.01},
		{InDip: true, Start: far.Decided(), Depth: 0.01},
		{InDip: true, Start: far.Decided() - 100, Depth: -5},
	} {
		st = far.ExportState()
		st.Detector = d
		if _, err := ResumeStreamAnalyzer(st); err == nil {
			t.Fatalf("state with detector %+v accepted", d)
		}
	}

	// Missing profile.
	st = a.ExportState()
	st.Profile = nil
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state without profile accepted")
	}

	// Normalisation windows out of lock-step: each state is valid on
	// its own (a maximum after one sample), but not with the other.
	st = a.ExportState()
	st.MMax = dsp.MovingExtremumState{W: st.MMax.W, Idx: []int64{0, 0}, Val: []float64{1, 0}, Tail: 1, Count: 1}
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with min/max windows out of lock-step accepted")
	}

	// A pending resync behind the positions already fed.
	st = a.ExportState()
	st.ResyncAt = []int64{st.Fed - 1}
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a consumed resync accepted")
	}

	// Queues out of step with the counters. A truncated flag queue would
	// decide its last positions unflagged, a short value queue would
	// decide every later position against the wrong stats, and fed must
	// trail pushed by exactly the smoother's lead.
	st = a.ExportState()
	st.FlagBuf = st.FlagBuf[:len(st.FlagBuf)-1]
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a truncated flag queue accepted")
	}
	st = a.ExportState()
	st.FlagBuf = append(st.FlagBuf, 0)
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with an extra flag accepted")
	}
	st = a.ExportState()
	st.Pending = st.Pending[1:]
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a short value queue accepted")
	}
	st = a.ExportState()
	st.Fed++
	st.Pending = append(st.Pending, st.Pending[len(st.Pending)-1])
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state fed past the smoother's lead accepted")
	}

	// A window whose buffers would exhaust memory.
	st = a.ExportState()
	st.SampleRate = 1e15
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with a 2e11-sample window accepted")
	}

	// Invalid config must be rejected by NewStreamAnalyzer's validation.
	st = a.ExportState()
	st.Config.EnterThreshold = 0
	if _, err := ResumeStreamAnalyzer(st); err == nil {
		t.Fatal("state with invalid config accepted")
	}
}

// TestDecoderHandoff: the wire decoder resumes mid-word.
func TestDecoderHandoff(t *testing.T) {
	c := &em.Capture{Samples: make([]float64, 257), SampleRate: 40e6, ClockHz: 1e9}
	for i := range c.Samples {
		c.Samples[i] = 1 + float64(i)/100
	}

	// Raw decoder split at awkward byte offsets (including mid-float64).
	raw := make([]byte, 0, len(c.Samples)*8)
	for _, v := range c.Samples {
		var w [8]byte
		for b, u := 0, math.Float64bits(v); b < 8; b++ {
			w[b] = byte(u >> (8 * b))
		}
		raw = append(raw, w[:]...)
	}
	for _, cut := range []int{0, 1, 3, 8, 13, 800, len(raw) - 5, len(raw)} {
		d := em.NewRawDecoder()
		var got []float64
		emit := func(xs []float64) { got = append(got, xs...) }
		if err := d.FeedBlock(raw[:cut], emit); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(d.State())
		if err != nil {
			t.Fatal(err)
		}
		var wire em.DecoderState
		if err := json.Unmarshal(blob, &wire); err != nil {
			t.Fatal(err)
		}
		d2, err := em.RestoreDecoder(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.FeedBlock(raw[cut:], emit); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.Samples) {
			t.Fatalf("raw decoder hand-off at byte %d corrupted the stream", cut)
		}
		if d2.Emitted() != int64(len(c.Samples)) || len(d2.State().Partial) != 0 {
			t.Fatalf("raw decoder incomplete after hand-off at byte %d", cut)
		}
	}

	if _, err := em.RestoreDecoder(em.DecoderState{Partial: make([]byte, 8)}); err == nil {
		t.Fatal("decoder state with full-word fragment accepted")
	}
	if _, err := em.RestoreDecoder(em.DecoderState{Emitted: -1}); err == nil {
		t.Fatal("decoder state with negative counter accepted")
	}
}
