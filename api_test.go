package emprof

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// apiTestCapture simulates a small microbenchmark capture for the
// options-API tests.
func apiTestCapture(t *testing.T) *Capture {
	t.Helper()
	w, err := Microbenchmark(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return run.Capture
}

// runAnalyzer profiles c with NewAnalyzer(cfg, opts...).Run.
func runAnalyzer(c *Capture, cfg Config, opts ...Option) (*Profile, error) {
	a, err := NewAnalyzer(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return a.Run(context.Background(), c)
}

// TestAnalyzerPathsBitIdentical pins the unification contract: every
// NewAnalyzer execution path produces a profile bit-identical to the
// default batch path's.
func TestAnalyzerPathsBitIdentical(t *testing.T) {
	c := apiTestCapture(t)
	cfg := DefaultConfig()
	want, err := runAnalyzer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"parallel", []Option{WithWorkers(4)}},
		{"parallel-auto", []Option{WithWorkers(0)}},
		{"streaming", []Option{WithStreaming()}},
	} {
		got, err := runAnalyzer(c, cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: profile differs from NewAnalyzer(cfg).Run", tc.name)
		}
	}
}

// TestObserverGoldenEquivalence is the golden satellite test: attaching
// any observer (JSONL, ring, metrics, or all three) leaves the Profile
// bit-identical to the nil-observer run on the batch, streaming and
// parallel paths.
func TestObserverGoldenEquivalence(t *testing.T) {
	c := apiTestCapture(t)
	cfg := DefaultConfig()
	want, err := runAnalyzer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		opts []Option
	}{
		{"batch", nil},
		{"parallel", []Option{WithWorkers(4)}},
		{"stream", []Option{WithStreaming()}},
	}
	sinks := []struct {
		name string
		mk   func() Observer
	}{
		{"jsonl", func() Observer { return NewTraceJSONL(&bytes.Buffer{}) }},
		{"ring", func() Observer { return NewTraceRing(1 << 14) }},
		{"metrics", func() Observer { return NewTraceMetrics() }},
		{"all", func() Observer {
			return MultiObserver(NewTraceJSONL(&bytes.Buffer{}), NewTraceRing(1<<14), NewTraceMetrics())
		}},
	}
	for _, p := range paths {
		for _, s := range sinks {
			a, err := NewAnalyzer(cfg, append([]Option{WithObserver(s.mk())}, p.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.name, s.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: observer changed the profile", p.name, s.name)
			}
		}
	}
}

// TestRunTraceJSONL checks the JSONL sink end to end through the public
// API: the event stream is well-formed and reconciles with the profile.
func TestRunTraceJSONL(t *testing.T) {
	c := apiTestCapture(t)
	var buf bytes.Buffer
	rec := NewTraceJSONL(&buf)
	a, err := NewAnalyzer(DefaultConfig(), WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := a.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r TraceRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if r.Type == "stall_accepted" {
			accepted++
		}
	}
	if accepted != len(prof.Stalls) {
		t.Errorf("trace has %d stall_accepted events, profile has %d stalls", accepted, len(prof.Stalls))
	}
	if accepted == 0 {
		t.Error("no stalls traced on a miss-heavy microbenchmark")
	}
}

func TestRunValidatesCapture(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.Run(ctx, nil); !errors.Is(err, ErrBadCapture) {
		t.Errorf("nil capture: got %v, want ErrBadCapture", err)
	}
	if _, err := a.Run(ctx, &Capture{Samples: []float64{1, 2}, ClockHz: 1e9}); !errors.Is(err, ErrBadCapture) {
		t.Errorf("zero sample rate: got %v, want ErrBadCapture", err)
	}
	if _, err := a.Run(ctx, &Capture{Samples: []float64{1, 2}, SampleRate: 40e6}); !errors.Is(err, ErrBadCapture) {
		t.Errorf("zero clock: got %v, want ErrBadCapture", err)
	}
	// An empty capture is analysable: it profiles to an empty Profile.
	if p, err := a.Run(ctx, &Capture{}); err != nil || len(p.Stalls) != 0 {
		t.Errorf("empty capture: profile %v, err %v", p, err)
	}
}

func TestNewAnalyzerBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnterThreshold = 2
	if _, err := NewAnalyzer(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("got %v, want ErrBadConfig", err)
	}
}

func TestRunHonoursContext(t *testing.T) {
	c := apiTestCapture(t)
	for _, opts := range [][]Option{nil, {WithStreaming()}, {WithWorkers(4)}} {
		a, err := NewAnalyzer(DefaultConfig(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := a.Run(ctx, c); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled ctx: got %v, want context.Canceled", err)
		}
		// A nil context means Background.
		if _, err := a.Run(nil, c); err != nil {
			t.Errorf("nil ctx: %v", err)
		}
	}
}

func TestAPIErrorSentinels(t *testing.T) {
	notFound := &APIError{StatusCode: 404, Message: "unknown session"}
	if !errors.Is(notFound, ErrSessionNotFound) {
		t.Error("404 APIError should match ErrSessionNotFound")
	}
	if errors.Is(notFound, ErrBadCapture) {
		t.Error("404 APIError must not match ErrBadCapture")
	}
	bad := &APIError{StatusCode: 400, Message: "bad metadata"}
	if !errors.Is(bad, ErrBadCapture) {
		t.Error("400 APIError should match ErrBadCapture")
	}
	var ae *APIError
	if !errors.As(notFound, &ae) || ae.StatusCode != 404 {
		t.Error("errors.As should recover the *APIError")
	}
}

// TestAnalyzerStreamWithObserver covers the push-based Stream accessor:
// the observer attached at construction rides along.
func TestAnalyzerStreamWithObserver(t *testing.T) {
	c := apiTestCapture(t)
	m := NewTraceMetrics()
	a, err := NewAnalyzer(DefaultConfig(), WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Stream(c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Samples {
		s.PushBlock(c.Samples[i : i+1])
	}
	p := s.Finalize()
	if got := int(m.Snapshot().StallsAccepted); got != len(p.Stalls) {
		t.Errorf("observer saw %d accepted stalls, profile has %d", got, len(p.Stalls))
	}
}
