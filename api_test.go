package emprof

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emprof/internal/trace"
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

// streamAnalyzer profiles c through NewAnalyzer(cfg, opts...).Stream,
// pushing it in blocks whose sizes cycle through sizes.
func streamAnalyzer(c *Capture, cfg Config, sizes []int, opts ...Option) (*Profile, error) {
	a, err := NewAnalyzer(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s, err := a.Stream(c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, err
	}
	for i, xs := 0, c.Samples; len(xs) > 0; i++ {
		n := min(len(xs), sizes[i%len(sizes)])
		s.PushBlock(xs[:n])
		xs = xs[n:]
	}
	return s.Finalize(), nil
}

// streamSplits are the push splits the streaming legs cycle through: odd
// small blocks, a block straddling the engine's chunk size, and single
// samples.
var streamSplits = []int{7, 4099, 1, 513}

// TestAnalyzerPathsBitIdentical pins the unification contract: a second
// Run of the same capture, and a stream of it pushed in split blocks,
// each produce a profile bit-identical to NewAnalyzer(cfg).Run's.
func TestAnalyzerPathsBitIdentical(t *testing.T) {
	c := apiTestCapture(t)
	cfg := DefaultConfig()
	want, err := runAnalyzer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runAnalyzer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Errorf("rerun: profile differs from NewAnalyzer(cfg).Run")
	}
	got, err := streamAnalyzer(c, cfg, streamSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streaming: profile differs from NewAnalyzer(cfg).Run")
	}
}

// TestAnalyzerConcurrentRuns pins the concurrency contract of Run: one
// Analyzer with one shared metrics observer, Run from four goroutines over
// different captures (two of them impaired), gives each capture the
// profile of its solo Run, and the observer ends with the sums of the solo
// runs' event counts.
func TestAnalyzerConcurrentRuns(t *testing.T) {
	w, err := Microbenchmark(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]*Capture, 4)
	for i := range caps {
		run, err := Simulate(DeviceOlimex(), w, CaptureOptions{Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = run.Capture
		if i%2 == 1 {
			spec := FaultSpec{DropoutRate: 0.001, GainStepsPerS: 2000, NaNRate: 1e-4, Seed: uint64(i)}
			if caps[i], _, err = InjectFaults(run.Capture, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultConfig()
	want := make([]*Profile, len(caps))
	var sum trace.Snapshot
	for i, c := range caps {
		m := NewTraceMetrics()
		if want[i], err = runAnalyzer(c, cfg, WithObserver(m)); err != nil {
			t.Fatal(err)
		}
		addCounts(&sum, m.Snapshot())
	}
	if sum.StallsAccepted == 0 || len(sum.Resyncs) == 0 {
		t.Fatalf("solo runs traced %d stalls and %d resync causes; the check is vacuous", sum.StallsAccepted, len(sum.Resyncs))
	}

	m := NewTraceMetrics()
	a, err := NewAnalyzer(cfg, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Profile, len(caps))
	errs := make([]error, len(caps))
	var wg sync.WaitGroup
	for i, c := range caps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = a.Run(context.Background(), c)
		}()
	}
	wg.Wait()
	for i := range caps {
		if errs[i] != nil {
			t.Fatalf("capture %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("capture %d: concurrent profile differs from its solo Run", i)
		}
	}
	var shared trace.Snapshot
	addCounts(&shared, m.Snapshot())
	if !reflect.DeepEqual(shared, sum) {
		t.Errorf("shared observer counted\n%+v\nwant the solo runs' sum\n%+v", shared, sum)
	}
}

// addCounts adds the event counts of s to sum: every field but the depth
// sum, whose float additions depend on order, and the stage timings.
func addCounts(sum *trace.Snapshot, s trace.Snapshot) {
	sum.DipCandidates += s.DipCandidates
	sum.StallsAccepted += s.StallsAccepted
	sum.RefreshStalls += s.RefreshStalls
	for i, n := range s.DepthHist {
		sum.DepthHist[i] += n
	}
	if sum.Rejected == nil {
		sum.Rejected = map[trace.RejectReason]uint64{}
		sum.Resyncs = map[trace.ResyncCause]uint64{}
		sum.FlaggedSamples = map[string]uint64{}
	}
	for k, n := range s.Rejected {
		sum.Rejected[k] += n
	}
	for k, n := range s.Resyncs {
		sum.Resyncs[k] += n
	}
	for k, n := range s.FlaggedSamples {
		sum.FlaggedSamples[k] += n
	}
}

// TestObserverGoldenEquivalence is the golden satellite test: attaching
// any observer (JSONL, ring, metrics, or all three) leaves the Profile
// bit-identical to the nil-observer run, through Run and through a
// stream pushed in split blocks.
func TestObserverGoldenEquivalence(t *testing.T) {
	c := apiTestCapture(t)
	cfg := DefaultConfig()
	want, err := runAnalyzer(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		run  func(Observer) (*Profile, error)
	}{
		{"batch", func(o Observer) (*Profile, error) { return runAnalyzer(c, cfg, WithObserver(o)) }},
		{"stream", func(o Observer) (*Profile, error) { return streamAnalyzer(c, cfg, streamSplits, WithObserver(o)) }},
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
			got, err := p.run(s.mk())
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
	a, err := NewAnalyzer(DefaultConfig())
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

// cancelOnDip cancels a context at the first dip candidate it observes.
type cancelOnDip struct {
	cancel context.CancelFunc
}

func (o cancelOnDip) Observe(r TraceRecord) {
	if r.Type == trace.TypeDipCandidate {
		o.cancel()
	}
}

// TestRunStopsMidCapture checks that the default path honours a
// cancellation that arrives while the capture is being analysed: an
// observer cancels ctx at the first dip, inside Run's first block, and
// Run returns context.Canceled instead of finishing the capture.
func TestRunStopsMidCapture(t *testing.T) {
	const sampleRate, clockHz = 40e6, 1e9
	samples := make([]float64, 4*runBlockSamples)
	for i := range samples {
		samples[i] = 1
		if i%5000 >= 2000 && i%5000 < 2020 {
			samples[i] = 0.02
		}
	}
	c := &Capture{Samples: samples, SampleRate: sampleRate, ClockHz: clockHz}
	if p, err := runAnalyzer(c, DefaultConfig()); err != nil || len(p.Stalls) == 0 {
		t.Fatalf("uncancelled run: %d stalls, err %v; the check is vacuous", len(p.Stalls), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := NewAnalyzer(DefaultConfig(), WithObserver(cancelOnDip{cancel: cancel}))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := a.Run(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-capture: profile %v, err %v; want context.Canceled", p != nil, err)
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
