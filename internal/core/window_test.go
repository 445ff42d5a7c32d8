package core

import (
	"math/rand"
	"reflect"
	"testing"

	"emprof/internal/em"
)

// windowedRun streams a capture through an analyzer with a windower
// attached (the continuous-profiling wiring the service uses) and
// returns the emitted window sequence plus the finalize profile.
func windowedRun(t *testing.T, c *em.Capture, widthS float64, chunk int) ([]ProfileWindow, *Profile) {
	t.Helper()
	an, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindower(widthS, 0, c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	var wins []ProfileWindow
	w.OnWindow = func(pw *ProfileWindow) {
		pw.Quality = an.Quality()
		wins = append(wins, *pw)
	}
	an.OnStall = w.Observe
	for off := 0; off < len(c.Samples); off += chunk {
		end := off + chunk
		if end > len(c.Samples) {
			end = len(c.Samples)
		}
		an.PushBlock(c.Samples[off:end])
		w.Advance(an.Frontier())
	}
	prof := an.Finalize()
	w.Flush(an.Pushed())
	return wins, prof
}

func TestWindowMergeMatchesFinalize(t *testing.T) {
	dips := map[int]int{}
	for i := 0; i < 40; i++ {
		dips[2500+i*900] = 9 + i%7
	}
	dips[30000] = 110 // refresh-class event
	c := synthCapture(42000, dips, 0.1, 1.2, 0.02, 7)

	for _, widthS := range []float64{2e-4, 3.7e-4, 1.05e-3, 2e-3} {
		wins, want := windowedRun(t, c, widthS, 4096)
		merged, err := MergeWindows(wins, c.SampleRate, c.ClockHz)
		if err != nil {
			t.Fatalf("width %v: merge: %v", widthS, err)
		}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("width %v: merged windows diverge from Finalize:\nmerged: %+v\nwant:   %+v",
				widthS, merged, want)
		}
		// The window sequence tiles the stream.
		if wins[0].StartSample != 0 {
			t.Fatalf("width %v: first window starts at %d", widthS, wins[0].StartSample)
		}
		last := wins[len(wins)-1]
		if !last.Final || last.EndSample != int64(len(c.Samples)) {
			t.Fatalf("width %v: final window %+v does not close the stream of %d samples", widthS, last, len(c.Samples))
		}
	}
}

func TestWindowMergeMatchesFinalizeRandomChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dips := map[int]int{}
	for i := 0; i < 25; i++ {
		dips[2000+rng.Intn(30000)] = 8 + rng.Intn(18)
	}
	c := synthCapture(36000, dips, 0.12, 1, 0.04, 13)
	want, err := ProfileStream(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		chunk := 1 + rng.Intn(9000)
		wins, prof := windowedRun(t, c, 5e-4, chunk)
		if !reflect.DeepEqual(prof, want) {
			t.Fatalf("chunk %d: windowed analyzer diverged from plain stream", chunk)
		}
		merged, err := MergeWindows(wins, c.SampleRate, c.ClockHz)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("chunk %d: merged windows diverge from Finalize", chunk)
		}
	}
}

func TestFrontierMonotonicCausal(t *testing.T) {
	c := synthCapture(30000, map[int]int{5000: 12, 9000: 300, 15000: 14, 22000: 11}, 0.1, 1, 0.03, 3)
	an, err := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	var lastFrontier int64
	an.OnStall = func(st Stall) {
		if int64(st.StartSample) < lastFrontier {
			t.Fatalf("stall onset %d emitted behind the frontier %d", st.StartSample, lastFrontier)
		}
	}
	for i := range c.Samples {
		an.PushBlock(c.Samples[i : i+1])
		f := an.Frontier()
		if f < lastFrontier {
			t.Fatalf("frontier went backwards at sample %d: %d -> %d", i, lastFrontier, f)
		}
		if f > an.Decided() {
			t.Fatalf("frontier %d ahead of decided %d", f, an.Decided())
		}
		lastFrontier = f
	}
	an.Finalize()
}

func TestWindowerResume(t *testing.T) {
	c := synthCapture(32000, map[int]int{3000: 12, 8000: 14, 14000: 11, 20000: 300, 27000: 12}, 0.1, 1, 0.02, 5)
	wantWins, wantProf := windowedRun(t, c, 3e-4, 2048)

	// Split the stream mid-way: run, export analyzer + windower, resume
	// both, continue — the window sequence must be seamless.
	split := 13777
	an, _ := NewStreamAnalyzer(DefaultConfig(), c.SampleRate, c.ClockHz)
	w, _ := NewWindower(3e-4, 0, c.SampleRate, c.ClockHz)
	var wins []ProfileWindow
	attach := func(an *StreamAnalyzer, w *Windower) {
		w.OnWindow = func(pw *ProfileWindow) {
			pw.Quality = an.Quality()
			wins = append(wins, *pw)
		}
		an.OnStall = w.Observe
	}
	attach(an, w)
	an.PushBlock(c.Samples[:split])
	w.Advance(an.Frontier())

	an2, err := ResumeStreamAnalyzer(an.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ResumeWindower(w.ExportState(), c.SampleRate, c.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	attach(an2, w2)
	an2.PushBlock(c.Samples[split:])
	w2.Advance(an2.Frontier())
	prof := an2.Finalize()
	w2.Flush(an2.Pushed())

	if !reflect.DeepEqual(prof, wantProf) {
		t.Fatal("resumed analyzer profile diverged")
	}
	// Mid-stream windows carry the cumulative quality at seal time, which
	// legitimately depends on when the seal ran relative to the pushes;
	// only the Final window's quality is deterministic. Compare the rest.
	clearMidQuality := func(ws []ProfileWindow) {
		for i := range ws {
			if !ws[i].Final {
				ws[i].Quality = Quality{}
			}
		}
	}
	clearMidQuality(wins)
	clearMidQuality(wantWins)
	if !reflect.DeepEqual(wins, wantWins) {
		t.Fatalf("resumed window sequence diverged:\ngot:  %+v\nwant: %+v", wins, wantWins)
	}
}

func TestWindowerValidation(t *testing.T) {
	if _, err := NewWindower(0, 0, 40e6, 1e9); err == nil {
		t.Fatal("zero width accepted")
	}
	for _, stride := range []float64{-1e-3, 5e-4, 2e-3} {
		if _, err := NewWindower(1e-3, stride, 40e6, 1e9); err == nil {
			t.Fatalf("stride %g s on a 1 ms width accepted", stride)
		}
	}
	if _, err := NewWindower(1e-3, 1e-3, 40e6, 1e9); err != nil {
		t.Fatalf("stride equal to the width refused: %v", err)
	}
	if _, err := NewWindower(1e-3, 0, 0, 1e9); err == nil {
		t.Fatal("zero sample rate accepted")
	}
	if _, err := ResumeWindower(nil, 40e6, 1e9); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := ResumeWindower(&WindowerState{WidthSamples: 0}, 40e6, 1e9); err == nil {
		t.Fatal("zero width state accepted")
	}
}
