package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emprof/internal/attrib"
	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/sim"
)

// createFuzzWindowCap is the window share, in samples, a fuzzed create
// finds left of the registry's total. The engine allocates the window it
// accepts up front; the charge keeps those buffers small and sends every
// larger share to the registry's total bound.
const createFuzzWindowCap = 1 << 16

// FuzzCreateSession sends create bodies, profiler config and attribution
// model included, through the create handler of a windowed server whose
// window total is charged down to createFuzzWindowCap. The create must
// answer 201, 400, or 429 for a share past the total, and a refused
// create must return its reserved share. A created session must then take
// three pushes of a dip signal (200 each) and finalize (200), which
// returns its share: no create body may leave a session whose analysis or
// attribution stage fails. A server that does not window must refuse
// every model the windowed one refuses.
func FuzzCreateSession(f *testing.F) {
	const rate, clock = 40e6, 1e9
	add := func(req CreateRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	add(CreateRequest{SampleRate: rate, ClockHz: clock})
	cfg := core.DefaultConfig()
	cfg.ProbeShiftRatio = 1.4
	add(CreateRequest{SampleRate: rate, ClockHz: clock, Device: "olimex", Config: &cfg})
	for _, g := range []struct{ frameLen, hop int }{{16, 8}, {16, 16}, {4, 8}} {
		m := fuzzModel(f, g.frameLen, g.hop)
		add(CreateRequest{SampleRate: rate, ClockHz: clock, Attribution: m})
	}
	bad := fuzzModel(f, 16, 8)
	bad.Signatures[0].Spectrum = bad.Signatures[0].Spectrum[:3]
	add(CreateRequest{SampleRate: rate, ClockHz: clock, Attribution: bad})
	huge := fuzzModel(f, 16, 8)
	huge.FrameLen = 1 << 30
	add(CreateRequest{SampleRate: rate, ClockHz: clock, Attribution: huge})
	f.Add([]byte(`{"sample_rate":4e7,"clock_hz":1e9,"config":{"NormWindowS":-1}}`))
	wide := core.DefaultConfig()
	wide.NormWindowS = 2.5e-3 // 100,000 samples: past the charged total
	add(CreateRequest{SampleRate: rate, ClockHz: clock, Config: &wide})

	samples := rawBytes(testSignal(6000).Samples)
	f.Fuzz(func(t *testing.T, body []byte) {
		// The share the handler will reserve, or 0 if it refuses the body
		// before reserving.
		share := 0
		var req CreateRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			c := core.DefaultConfig()
			if req.Config != nil {
				c = *req.Config
			}
			share, _ = core.WindowSamples(c, req.SampleRate)
		}
		srv := New(Config{WindowS: 2e-5})
		defer srv.Close()
		const charged = core.MaxWindowSamples - createFuzzWindowCap
		windowSamples := func() int {
			srv.reg.mu.Lock()
			defer srv.reg.mu.Unlock()
			return srv.reg.windowSamples
		}
		srv.reg.mu.Lock()
		srv.reg.windowSamples = charged
		srv.reg.mu.Unlock()
		h := srv.Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		rec := do(http.MethodPost, "/v1/sessions", body)
		// A server that does not window checks the attribution model
		// too: a model the windowed server refuses, it refuses.
		bare := New(Config{})
		defer bare.Close()
		brec := httptest.NewRecorder()
		bare.Handler().ServeHTTP(brec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body)))
		var refusal apiError
		if json.Unmarshal(rec.Body.Bytes(), &refusal) == nil && strings.HasPrefix(refusal.Error, "attrib: ") && brec.Code != http.StatusBadRequest {
			t.Fatalf("windowed create refused the model (%s), windowless create answered %d", refusal.Error, brec.Code)
		}
		switch rec.Code {
		case http.StatusTooManyRequests:
			if share <= createFuzzWindowCap {
				t.Fatalf("create of a %d-sample share answered 429: %s", share, rec.Body)
			}
		case http.StatusCreated:
			if share > createFuzzWindowCap {
				t.Fatalf("create of a %d-sample share admitted past the total", share)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			if got := windowSamples(); got != charged {
				t.Fatalf("refused create left the window total at %d, want %d", got, charged)
			}
			return
		}
		if got := windowSamples(); got != charged+share {
			t.Fatalf("create of a %d-sample share left the window total at %d, want %d", share, got, charged+share)
		}
		var cr CreateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatalf("create response: %v", err)
		}
		// Uneven pushes: the first ends inside a frame or between two.
		off := 0
		for _, end := range []int{5 * 8, 3001 * 8, len(samples)} {
			if rec := do(http.MethodPost, SessionPath(cr.ID, "/samples"), samples[off:end]); rec.Code != http.StatusOK {
				t.Fatalf("push of bytes [%d, %d) answered %d: %s", off, end, rec.Code, rec.Body)
			}
			off = end
		}
		if rec := do(http.MethodDelete, SessionPath(cr.ID, ""), nil); rec.Code != http.StatusOK {
			t.Fatalf("finalize answered %d: %s", rec.Code, rec.Body)
		}
		if got := windowSamples(); got != charged {
			t.Fatalf("finalize left the window total at %d, want %d", got, charged)
		}
	})
}

// fuzzModel trains a two-region attribution model with the given frame
// geometry on a synthetic capture.
func fuzzModel(tb testing.TB, frameLen, hop int) *attrib.Model {
	tb.Helper()
	const fs, clock = 40e6, 1e9
	xs := make([]float64, 2000)
	for i := range xs {
		f := 1.2e6
		if i >= len(xs)/2 {
			f = 9.5e6
		}
		xs[i] = 1 + 0.1*math.Sin(2*math.Pi*f*float64(i)/fs)
	}
	half := uint64(float64(len(xs)/2) * clock / fs)
	spans := []sim.RegionSpan{{Region: 1, EndCycle: half}, {Region: 2, StartCycle: half, EndCycle: 2 * half}}
	m, err := attrib.Train(&em.Capture{Samples: xs, SampleRate: fs, ClockHz: clock}, spans, attrib.TrainConfig{FrameLen: frameLen, Hop: hop})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
