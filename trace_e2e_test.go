package emprof_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"emprof"
	"emprof/internal/cpu"
	"emprof/internal/service"
)

// resolvableEvents reduces raw ground-truth stall intervals to the events
// a 40 MHz EM signal can actually separate: intervals merged at the
// signal's resolution, long enough to clear the minimum-stall criterion,
// and mostly-stalled (the same reduction integration_test.go applies).
func resolvableEvents(truth []cpu.StallInterval) []cpu.StallInterval {
	var out []cpu.StallInterval
	for _, iv := range cpu.MergeStalls(truth, 50) {
		if iv.StalledCycles() >= 90 && 2*iv.StalledCycles() >= iv.Cycles() {
			out = append(out, iv)
		}
	}
	return out
}

// matchAccepted counts the truth events overlapped by at least one
// stall_accepted trace record, mirroring Profile.ValidateAgainst's
// interval matching (one sample period of tolerance on each side).
func matchAccepted(records []emprof.TraceRecord, truth []cpu.StallInterval, cps float64) (matched, accepted int) {
	type span struct{ lo, hi float64 }
	var det []span
	for _, r := range records {
		if r.Type != "stall_accepted" {
			continue
		}
		accepted++
		lo := float64(r.Start) * cps
		det = append(det, span{lo - cps, lo + r.Cycles + cps})
	}
	sort.Slice(det, func(i, j int) bool { return det[i].lo < det[j].lo })
	for _, t := range truth {
		tlo, thi := float64(t.Start), float64(t.End)
		for _, d := range det {
			if d.lo > thi {
				break
			}
			if d.hi >= tlo {
				matched++
				break
			}
		}
	}
	return matched, accepted
}

// TestTraceEndToEnd is the acceptance test for the decision-trace layer:
// a simulated microbenchmark capture is replayed through both trace
// surfaces — the emprof -trace JSONL recorder and the daemon's
// /v1/sessions/{id}/trace ring behind httptest — and every resolvable
// ground-truth miss must be covered by at least one StallAccepted event.
func TestTraceEndToEnd(t *testing.T) {
	wl, err := emprof.Microbenchmark(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), wl, emprof.CaptureOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	capture := run.Capture
	truth := resolvableEvents(run.Truth.Stalls)
	if len(truth) < 50 {
		t.Fatalf("only %d resolvable ground-truth events; weak test", len(truth))
	}
	cps := capture.ClockHz / capture.SampleRate

	// Surface 1: the CLI recorder path — batch analysis with a JSONL
	// observer, exactly what `emprof -trace out.jsonl` wires up.
	var buf bytes.Buffer
	rec := emprof.NewTraceJSONL(&buf)
	an, err := emprof.NewAnalyzer(emprof.DefaultConfig(), emprof.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Run(context.Background(), capture); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	var jsonlRecords []emprof.TraceRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r emprof.TraceRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		jsonlRecords = append(jsonlRecords, r)
	}
	if matched, accepted := matchAccepted(jsonlRecords, truth, cps); matched != len(truth) {
		t.Errorf("JSONL trace: %d/%d ground-truth misses covered by a stall_accepted event (%d accepted total)",
			matched, len(truth), accepted)
	}

	// Surface 2: the service path — stream the capture to an in-process
	// daemon and pull the session's trace ring. The ring is causal, so
	// pad the stream with busy-level samples to push the detector's
	// lookahead past the last real stall before fetching.
	_, ts := startDaemon(t, service.Config{TraceRing: 1 << 15})
	client := emprof.NewClient(ts.URL)
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{
		SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Device: "olimex",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StreamCapture(ctx, id, capture); err != nil {
		t.Fatal(err)
	}
	level := busyLevel(capture.Samples)
	pad := make([]float64, 1<<14)
	for i := range pad {
		pad[i] = level
	}
	if _, err := client.PushSamplesAt(ctx, id, int64(len(capture.Samples)), pad); err != nil {
		t.Fatal(err)
	}
	tr, err := client.Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled || tr.Dropped != 0 {
		t.Fatalf("trace ring: enabled=%v dropped=%d; want enabled with no drops", tr.Enabled, tr.Dropped)
	}
	if matched, accepted := matchAccepted(tr.Records, truth, cps); matched != len(truth) {
		t.Errorf("session trace: %d/%d ground-truth misses covered by a stall_accepted event (%d accepted total)",
			matched, len(truth), accepted)
	}
	if _, err := client.Finalize(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// busyLevel estimates the capture's stall-free signal level (the 90th
// percentile of magnitudes), used to pad a stream without creating dips.
func busyLevel(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[len(s)*9/10]
}
