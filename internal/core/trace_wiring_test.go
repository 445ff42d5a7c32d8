package core

import (
	"math"
	"reflect"
	"testing"

	"emprof/internal/em"
	"emprof/internal/sim"
	"emprof/internal/trace"
)

// TestObserverAccountingBatch checks that the event stream reconciles
// exactly with the profile: every dip candidate is resolved by exactly one
// accept or reject, and the event counters match the profile's own.
func TestObserverAccountingBatch(t *testing.T) {
	c := syntheticCapture(1<<18, 7, true)
	a := MustNewAnalyzer(DefaultConfig())
	m := trace.NewMetrics()
	a.Observer = m
	p := a.Profile(c)
	s := m.Snapshot()

	if int(s.StallsAccepted) != len(p.Stalls) {
		t.Errorf("StallsAccepted events = %d, profile has %d stalls", s.StallsAccepted, len(p.Stalls))
	}
	if int(s.RefreshStalls) != p.RefreshStalls {
		t.Errorf("refresh events = %d, profile says %d", s.RefreshStalls, p.RefreshStalls)
	}
	if int(s.Rejected[trace.RejectImpaired]) != p.Quality.AbortedDips {
		t.Errorf("impaired rejects = %d, AbortedDips = %d", s.Rejected[trace.RejectImpaired], p.Quality.AbortedDips)
	}
	var rejected uint64
	for _, n := range s.Rejected {
		rejected += n
	}
	if s.DipCandidates != s.StallsAccepted+rejected {
		t.Errorf("candidates = %d, accepted+rejected = %d", s.DipCandidates, s.StallsAccepted+rejected)
	}
	if s.DipCandidates == 0 || s.StallsAccepted == 0 {
		t.Fatalf("degenerate trace: candidates=%d accepted=%d", s.DipCandidates, s.StallsAccepted)
	}
	for _, st := range []trace.Stage{trace.StageScan, trace.StageNormalize, trace.StageDetect} {
		if _, ok := s.StageNs[st]; !ok {
			t.Errorf("missing stage timing %q: %v", st, s.StageNs)
		}
	}
	// The nasty capture carries NaN and burst corruption; flag events must
	// reconcile with the quality counters (retro-inclusive).
	if int64(s.FlaggedSamples["nan"]) != p.Quality.NaNSamples {
		t.Errorf("nan flag events cover %d samples, quality says %d", s.FlaggedSamples["nan"], p.Quality.NaNSamples)
	}
	if int64(s.FlaggedSamples["burst"]) != p.Quality.BurstSamples {
		t.Errorf("burst flag events cover %d samples, quality says %d", s.FlaggedSamples["burst"], p.Quality.BurstSamples)
	}
}

// gapStepCapture builds a busy trace with one dip, one resync-length
// dropout and one sustained gain step, to exercise both resync causes.
func gapStepCapture(n int) *em.Capture {
	rng := sim.NewRNG(11)
	s := make([]float64, n)
	for i := range s {
		v := 1.0 + 0.05*rng.NormFloat64()
		if i >= n/2 {
			v *= 3.5 // sustained receiver gain step
		}
		switch {
		case i%9973 < 12:
			v = 0.04 + 0.005*rng.NormFloat64() // stall dip
		case i >= n/4 && i < n/4+800:
			v = 0 // long digitizer gap
		}
		s[i] = math.Abs(v)
	}
	return &em.Capture{Samples: s, SampleRate: 50e6, ClockHz: 1e9}
}

func TestObserverResyncCauses(t *testing.T) {
	c := gapStepCapture(1 << 17)
	a := MustNewAnalyzer(DefaultConfig())
	m := trace.NewMetrics()
	ring := trace.NewRing(1 << 16)
	a.Observer = trace.Multi(m, ring)
	p := a.Profile(c)
	s := m.Snapshot()

	if s.Resyncs[trace.ResyncGap] == 0 {
		t.Errorf("no gap resync event (quality: %+v)", p.Quality)
	}
	if s.Resyncs[trace.ResyncGainStep] == 0 {
		t.Errorf("no gain-step resync event (quality: %+v)", p.Quality)
	}
	var total int
	for _, n := range s.Resyncs {
		total += int(n)
	}
	if total != p.Quality.Resyncs {
		t.Errorf("resync events = %d, Quality.Resyncs = %d", total, p.Quality.Resyncs)
	}
	// The ring retained the same stream in record form.
	var rs int
	for _, r := range ring.Records() {
		if r.Type == trace.TypeResync {
			rs++
		}
	}
	if rs != total {
		t.Errorf("ring holds %d resync records, metrics counted %d", rs, total)
	}
}

// TestObserverEquivalenceAllPaths is the core half of the golden test:
// attaching observers leaves all three analyze paths bit-identical to the
// nil-observer run.
func TestObserverEquivalenceAllPaths(t *testing.T) {
	for _, nasty := range []bool{false, true} {
		c := syntheticCapture(1<<17, 3, nasty)
		plain := MustNewAnalyzer(DefaultConfig())
		want := plain.Profile(c)

		traced := MustNewAnalyzer(DefaultConfig())
		traced.Observer = trace.Multi(trace.NewMetrics(), trace.NewRing(4096))
		assertProfilesIdentical(t, want, traced.Profile(c), "batch+observer")
		assertProfilesIdentical(t, want,
			traced.ProfileParallel(c),
			"parallel+observer")

		s, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
		if err != nil {
			t.Fatal(err)
		}
		s.SetObserver(trace.NewMetrics())
		for i := range c.Samples {
			s.PushBlock(c.Samples[i : i+1])
		}
		assertProfilesIdentical(t, want, s.Finalize(), "stream+observer")
	}
}

// TestObserverParallelChunks checks the pipeline's events against the
// batch run's: exactly the scan, normalize and detect stage timings, the
// monitor's events (resync, quality flag) in the batch order, and the
// detector's events (dip candidate, accept, reject) in the batch order.
// Only the interleaving of the two groups, emitted from two goroutines,
// may differ.
func TestObserverParallelChunks(t *testing.T) {
	c := syntheticCapture(1<<18, 5, true)
	events := func(profile func(*Analyzer, *em.Capture) *Profile) (mon, det, stages []trace.Record) {
		t.Helper()
		a := MustNewAnalyzer(DefaultConfig())
		ring := trace.NewRing(1 << 17)
		a.Observer = ring
		profile(a, c)
		if ring.Dropped() != 0 {
			t.Fatalf("ring dropped %d events", ring.Dropped())
		}
		for _, r := range ring.Records() {
			switch r.Type {
			case trace.TypeResync, trace.TypeQualityFlag:
				mon = append(mon, r)
			case trace.TypeDipCandidate, trace.TypeStallAccepted, trace.TypeStallRejected:
				det = append(det, r)
			case trace.TypeStageTiming:
				stages = append(stages, r)
			default:
				t.Fatalf("unexpected event %+v", r)
			}
		}
		return mon, det, stages
	}
	wantMon, wantDet, _ := events((*Analyzer).Profile)
	mon, det, stages := events((*Analyzer).ProfileParallel)
	if len(wantMon) == 0 || len(wantDet) == 0 {
		t.Fatal("batch run emitted no monitor or detector events; the check is vacuous")
	}
	if !reflect.DeepEqual(mon, wantMon) {
		t.Errorf("monitor events differ from the batch run's: %d events, want %d", len(mon), len(wantMon))
	}
	if !reflect.DeepEqual(det, wantDet) {
		t.Errorf("detector events differ from the batch run's: %d events, want %d", len(det), len(wantDet))
	}
	var got []trace.Stage
	for _, r := range stages {
		got = append(got, trace.Stage(r.Stage))
		if r.Samples != int64(len(c.Samples)) {
			t.Errorf("stage %s covers %d samples, want %d", r.Stage, r.Samples, len(c.Samples))
		}
	}
	if want := []trace.Stage{trace.StageScan, trace.StageNormalize, trace.StageDetect}; !reflect.DeepEqual(got, want) {
		t.Errorf("stage timings %v, want %v", got, want)
	}
}

func TestObserverStreamDrainTiming(t *testing.T) {
	c := syntheticCapture(1<<15, 9, false)
	s, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	m := trace.NewMetrics()
	s.SetObserver(m)
	for i := range c.Samples {
		s.PushBlock(c.Samples[i : i+1])
	}
	p := s.Finalize()
	snap := m.Snapshot()
	if _, ok := snap.StageNs[trace.StageDrain]; !ok {
		t.Fatalf("no drain timing: %v", snap.StageNs)
	}
	if int(snap.StallsAccepted) != len(p.Stalls) {
		t.Errorf("accepted events = %d, profile has %d stalls", snap.StallsAccepted, len(p.Stalls))
	}
}

// TestNilObserverSteadyStateAllocs proves the zero-overhead-when-off
// claim at the allocation level: once the engine's pipeline is full, a
// nil-observer analyzer allocates nothing per block or per sample.
// (The CI benchmark guard additionally bounds the time overhead; see
// internal/experiments.)
func TestNilObserverSteadyStateAllocs(t *testing.T) {
	// A dip-free busy trace: noise never reaches the entry threshold, so
	// the detector stays out of dips and Profile.Stalls never grows —
	// every allocation counted below would be hot-path overhead.
	rng := sim.NewRNG(13)
	samples := make([]float64, 1<<15)
	for i := range samples {
		samples[i] = math.Abs(1.0 + 0.05*rng.NormFloat64())
	}
	s, err := NewStreamAnalyzer(DefaultConfig(), 50e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the pipeline first so one-time buffer sizing is not
	// attributed to the steady state.
	s.PushBlock(samples)
	off := 0
	block := func() {
		s.PushBlock(samples[off : off+1000])
		off = (off + 1000) % (len(samples) - 1000)
	}
	if allocs := testing.AllocsPerRun(200, block); allocs != 0 {
		t.Fatalf("nil-observer PushBlock steady state allocates %.2f allocs/op, want 0", allocs)
	}
	i := 0
	push := func() {
		s.PushBlock(samples[i : i+1])
		i = (i + 1) % len(samples)
	}
	if allocs := testing.AllocsPerRun(2000, push); allocs != 0 {
		t.Fatalf("nil-observer one-sample PushBlock steady state allocates %.2f allocs/op, want 0", allocs)
	}
	if p := s.Finalize(); len(p.Stalls) != 0 {
		t.Fatalf("busy-only trace produced %d stalls; alloc accounting invalid", len(p.Stalls))
	}
}
