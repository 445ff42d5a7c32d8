package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
	"emprof/internal/sim"
)

// encodePage is the body the daemon serves for env and ws.
func encodePage(tb testing.TB, env ProfilesResponse, ws ...core.ProfileWindow) []byte {
	tb.Helper()
	raws := make([][]byte, len(ws))
	for i := range ws {
		var err error
		if raws[i], err = json.Marshal(&ws[i]); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := EncodeProfiles(&buf, &env, raws); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// benchWindows cuts a live-session-sized stall sequence (306 stalls over
// 240,000 samples at 20 MHz and an 800 MHz clock, about 51 KB of JSON)
// into eight windows, the page a tail query of the last eight reads.
func benchWindows() []core.ProfileWindow {
	rng := sim.NewRNG(2018)
	const rate, clock, width = 20e6, 800e6, 30000
	ws := make([]core.ProfileWindow, 8)
	for k := range ws {
		ws[k] = core.ProfileWindow{
			Index: int64(k), StartSample: int64(k) * width, EndSample: int64(k+1) * width,
			StartS: float64(k) * width / rate, EndS: float64(k+1) * width / rate,
			Final: k == len(ws)-1, Stalls: core.StallList{},
		}
	}
	at := 0
	for i := 0; i < 306; i++ {
		at += 200 + rng.Intn(1160)
		n := 6 + rng.Intn(30)
		s := core.Stall{
			StartSample: at, EndSample: at + n,
			StartS: float64(at) / rate, DurationS: float64(n) / rate,
			Depth: 0.1 + 0.5*rng.Float64(), Refresh: i%29 == 0,
			Confidence: 0.5 + 0.5*rng.Float64(),
		}
		s.Cycles = s.DurationS * clock
		w := &ws[min(at/width, len(ws)-1)]
		w.Stalls = append(w.Stalls, s)
		w.StallCycles += s.Cycles
		if s.Refresh {
			w.RefreshStalls++
		} else {
			w.Misses++
		}
	}
	ws[len(ws)-1].Quality.Samples = 8 * width
	return ws
}

// FuzzProfilesDecode pins ProfilesResponse.UnmarshalJSON, called directly
// as the client calls it, to encoding/json over the method-free mirror
// plainProfiles, whose windows keep ProfileWindow's own codec
// (FuzzWindowDecode pins that):
// both fail, or both succeed with values reflect.DeepEqual tells apart by
// nothing, nil against empty Windows included. The fast decoder runs over
// a filled-in receiver, which it must replace.
func FuzzProfilesDecode(f *testing.F) {
	w0 := core.ProfileWindow{Index: 0, EndSample: 4000, EndS: 1e-4, Stalls: core.StallList{}}
	w1 := core.ProfileWindow{
		Index: 1, StartSample: 4000, EndSample: 8000, StartS: 1e-4, EndS: 2e-4, Final: true,
		Stalls: core.StallList{{StartSample: 4007, EndSample: 4019, StartS: 1.0001e-4, DurationS: 3e-7, Cycles: 302.4, Depth: 0.05, Refresh: true, Confidence: 0.93}},
		Misses: 1, StallCycles: 302.4, MeanConfidence: 0.93, Quality: core.Quality{Samples: 8000, Resyncs: 1},
		Regions: []core.WindowRegion{{Region: 1, Name: "fa", Misses: 1, StallCycles: 302.4}, {Region: 2}},
	}
	live := ProfilesResponse{ID: "abc", State: "active", WindowS: 1e-4, SampleRate: 40e6, ClockHz: 1e9, LatestIndex: 1}
	f.Add(encodePage(f, live, benchWindows()...))
	f.Add(encodePage(f, live, w0, w1))
	// A router-merged page: two servers' fragments of one session.
	m := NewProfilesMerge("abc")
	for _, body := range [][]byte{
		encodePage(f, ProfilesResponse{ID: "abc", State: "detached", LatestIndex: 1}, w0),
		encodePage(f, live, w1),
	} {
		if err := m.Add(body); err != nil {
			f.Fatal(err)
		}
	}
	var merged bytes.Buffer
	if err := m.Encode(&merged, true, 0, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(merged.Bytes())
	f.Add(encodePage(f, ProfilesResponse{ID: "abc", State: "detached", More: true, NextAfter: 7, LatestIndex: 9}))
	f.Add([]byte(`{"id":"a","state":"active","windows":[],"latest_index":-1}`))
	f.Add([]byte(`{"id":"a","state":"active","windows":null,"latest_index":-1}`))
	f.Add([]byte(`{"id":"a","state":"active","latest_index":-1}`))
	// Names encoding/json escapes, and non-ASCII ones.
	named := w1
	named.Regions = []core.WindowRegion{{Region: 1, Name: "inner<loop>&co", Misses: 1}, {Region: 2, Name: "boucle intérieure ✓"}}
	f.Add(encodePage(f, ProfilesResponse{ID: "inner<loop>&co", State: "active", LatestIndex: 1}, w0, named))
	f.Add(encodePage(f, ProfilesResponse{ID: "émigré", State: "active", LatestIndex: 1}, named))
	var indented bytes.Buffer
	if err := json.Indent(&indented, encodePage(f, live, w0, w1), "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := ProfilesResponse{ID: "x", WindowS: 1, Windows: []core.ProfileWindow{w1}, More: true, NextAfter: 3, LatestIndex: 5}
		var mirror plainProfiles
		fastErr := fast.UnmarshalJSON(data)
		refErr := json.Unmarshal(data, &mirror)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("fast decoder err = %v, encoding/json err = %v on %q", fastErr, refErr, data)
		}
		if fastErr == nil && !reflect.DeepEqual(fast, ProfilesResponse(mirror)) {
			t.Fatalf("decoded values differ on %q\nfast: %+v\n std: %+v", data, fast, mirror)
		}
	})
}

// BenchmarkProfilesDecode times an 8-window profiles page decoded as the
// client decodes it, by ProfilesResponse.UnmarshalJSON, against
// encoding/json over the method-free mirror, which finds each window's
// end and hands it to ProfileWindow.UnmarshalJSON.
func BenchmarkProfilesDecode(b *testing.B) {
	env := ProfilesResponse{ID: "bench-0042", State: "active", WindowS: 1.5e-3, SampleRate: 20e6, ClockHz: 800e6, LatestIndex: 7}
	blob := encodePage(b, env, benchWindows()...)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p ProfilesResponse
			if err := p.UnmarshalJSON(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p plainProfiles
			if err := json.Unmarshal(blob, &p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadProfilesKeep checks that a page EncodeProfiles writes stays on
// the fast path both ways: with keep the windows are built as they were
// encoded, without it each comes back as the bytes it was encoded to.
func TestReadProfilesKeep(t *testing.T) {
	env := ProfilesResponse{ID: "s1", State: "active", WindowS: 1.5e-3, SampleRate: 20e6, ClockHz: 800e6, More: true, NextAfter: 7, LatestIndex: 9}
	ws := benchWindows()
	blob := encodePage(t, env, ws...)
	r := jsonfast.NewReader(blob)
	got, raws := ReadProfiles(&r, true)
	if !r.Done() || raws != nil {
		t.Fatalf("keep: fast path took the page %v, %d raw windows", r.Done(), len(raws))
	}
	want := env
	want.Windows = ws
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keep: read %+v, encoded %+v", got, want)
	}
	r = jsonfast.NewReader(blob)
	got, raws = ReadProfiles(&r, false)
	if !r.Done() || got.Windows != nil || len(raws) != len(ws) {
		t.Fatalf("split: fast path took the page %v, %d windows, %d raw", r.Done(), len(got.Windows), len(raws))
	}
	for i, rw := range raws {
		b, _ := json.Marshal(&ws[i])
		if rw.Index != ws[i].Index || !bytes.Equal(rw.JSON, b) {
			t.Fatalf("split: window %d keyed %d, bytes %s", i, rw.Index, rw.JSON)
		}
	}
}

// TestProfilesDecodeSizesStalls checks that a page's windows each reserve
// room for their own stalls only, not for the stalls of the windows after
// them, so a page's decode allocates in proportion to its length.
func TestProfilesDecodeSizesStalls(t *testing.T) {
	var ws []core.ProfileWindow
	for k := 0; k < 16; k++ {
		for _, w := range benchWindows() {
			w.Index = int64(len(ws))
			ws = append(ws, w)
		}
	}
	var p ProfilesResponse
	if err := p.UnmarshalJSON(encodePage(t, ProfilesResponse{ID: "s1", State: "active", LatestIndex: int64(len(ws) - 1)}, ws...)); err != nil {
		t.Fatal(err)
	}
	if len(p.Windows) != len(ws) {
		t.Fatalf("decoded %d windows of %d", len(p.Windows), len(ws))
	}
	for i, w := range p.Windows {
		if len(w.Stalls) != len(ws[i].Stalls) || cap(w.Stalls) != len(w.Stalls) {
			t.Fatalf("window %d: %d stalls in room for %d, encoded %d", i, len(w.Stalls), cap(w.Stalls), len(ws[i].Stalls))
		}
	}
}
