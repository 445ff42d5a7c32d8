package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"emprof/internal/attrib"
	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/sim"
)

// createFuzzWindowCap bounds the normalisation window and smoother a
// fuzzed config may ask for, in samples. The engine refuses more than
// 2^24 in all and allocates what it accepts up front; inputs between the
// two would only spend the fuzz workers' memory, not reach new code.
const createFuzzWindowCap = 1 << 16

// FuzzCreateSession sends create bodies, profiler config and attribution
// model included, through the create handler of a windowed server. The
// create must answer 201 or 400. A created session must then take three
// pushes of a dip signal (200 each) and finalize (200): no create body
// may leave a session whose analysis or attribution stage fails.
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

	samples := rawBytes(testSignal(6000).Samples)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CreateRequest
		if json.Unmarshal(body, &req) == nil {
			c := core.DefaultConfig()
			if req.Config != nil {
				c = *req.Config
			}
			if !(c.NormWindowS*req.SampleRate <= createFuzzWindowCap) || c.SmoothSamples > createFuzzWindowCap {
				return
			}
		}
		srv := New(Config{WindowS: 2e-5})
		defer srv.Close()
		h := srv.Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		rec := do(http.MethodPost, "/v1/sessions", body)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
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
