package core

import (
	"encoding/json"
	"testing"
)

// FuzzStreamStateResume mutates real mid-stream hand-off states — a
// clean capture, an impaired one and a probe-shift run with
// ProbeShiftRatio 1.4 — and feeds them to ResumeStreamAnalyzer, which
// imports them from the network on a fleet rebalance. It must never
// panic, and any state it accepts must survive more input and Finalize
// with a self-consistent profile: a corrupt state is rejected, it does
// not poison the session.
func FuzzStreamStateResume(f *testing.F) {
	seeds := []struct {
		cfg   Config
		xs    []float64
		split int
	}{
		{DefaultConfig(), handoffCapture(false).Samples, 15001},
		{DefaultConfig(), handoffCapture(true).Samples, 27001},
		{shiftConfig(), shiftCapture(23).Samples, 21001},
	}
	for _, sd := range seeds {
		a, err := NewStreamAnalyzer(sd.cfg, 40e6, 1e9)
		if err != nil {
			f.Fatal(err)
		}
		a.PushBlock(sd.xs[:sd.split])
		blob, err := json.Marshal(a.ExportState())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// The rest of the impaired capture: a gap, a burst, a gain step and a
	// NaN, so the resumed monitor, windows and detector all move.
	tail := handoffCapture(true).Samples[7000:27000]

	f.Fuzz(func(t *testing.T, blob []byte) {
		var st StreamState
		if json.Unmarshal(blob, &st) != nil {
			return
		}
		s, err := ResumeStreamAnalyzer(&st)
		if err != nil {
			return
		}
		s.PushBlock(tail[:4999])
		s.PushBlock(tail[4999:])
		p := s.Finalize()
		if p.Misses+p.RefreshStalls != len(p.Stalls) {
			t.Fatalf("resumed profile counts %d misses + %d refreshes for %d stalls", p.Misses, p.RefreshStalls, len(p.Stalls))
		}
		if got, want := s.Pushed(), st.Pushed+int64(len(tail)); got != want {
			t.Fatalf("resumed analyzer pushed %d samples, want %d", got, want)
		}
	})
}
