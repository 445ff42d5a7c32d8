package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"emprof/internal/core"
	"emprof/internal/profstore"
)

// TestHandoffAcrossRegistries drives the full hand-off protocol over
// HTTP between two independent shards: stream half a capture into shard
// A, pin → export → import into shard B → forget, stream the rest into
// B, and require B's final profile bit-identical to batch analysis.
func TestHandoffAcrossRegistries(t *testing.T) {
	capture := testSignal(30000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)

	srvA, tsA := newTestServer(t, Config{})
	srvB, tsB := newTestServer(t, Config{})
	id := createSession(t, tsA, capture.SampleRate, capture.ClockHz)

	enc := rawBytes(capture.Samples)
	// A split point that is NOT 8-byte aligned relative to nothing — keep
	// sample-aligned (clients push whole samples) but mid-stream.
	half := (len(enc) / 2 / 8) * 8
	if code, msg := postSamples(t, tsA, id, enc[:half], ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest A: HTTP %d: %s", code, msg)
	}

	post := func(ts string, path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, msg := post(tsA.URL, "/v1/sessions/"+id+"/pin", nil); code != http.StatusOK {
		t.Fatalf("pin: HTTP %d: %s", code, msg)
	}
	// Pinned: ingest and profile answer 503.
	if code, _ := postSamples(t, tsA, id, enc[half:half+8], ContentTypeRaw); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while pinned: HTTP %d, want 503", code)
	}
	resp, err := http.Get(tsA.URL + "/v1/sessions/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("profile while pinned: HTTP %d, want 503", resp.StatusCode)
	}

	code, blob := post(tsA.URL, "/v1/sessions/"+id+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: HTTP %d: %s", code, blob)
	}
	if code, msg := post(tsB.URL, "/v1/sessions/import", blob); code != http.StatusCreated {
		t.Fatalf("import: HTTP %d: %s", code, msg)
	}
	if code, msg := post(tsA.URL, "/v1/sessions/"+id+"/forget", nil); code != http.StatusOK {
		t.Fatalf("forget: HTTP %d: %s", code, msg)
	}
	if n := srvA.Registry().ActiveSessions(); n != 0 {
		t.Fatalf("old owner still holds %d sessions after forget", n)
	}

	if code, msg := postSamples(t, tsB, id, enc[half:], ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest B: HTTP %d: %s", code, msg)
	}
	got, err := srvB.Registry().Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("handed-off profile differs from batch analysis")
	}

	// Counters moved on both sides.
	if srvA.Registry().Metrics().SessionsExported.Load() != 1 {
		t.Fatal("export not counted")
	}
	if srvB.Registry().Metrics().SessionsImported.Load() != 1 {
		t.Fatal("import not counted")
	}
}

// TestHandoffGuards covers the protocol's refusal paths.
func TestHandoffGuards(t *testing.T) {
	capture := testSignal(4000)
	srv, _ := newTestServer(t, Config{})
	reg := srv.Registry()
	id, err := reg.CreateSession(CreateOpts{SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}

	// Export without pin is a conflict.
	if _, err := reg.Export(id); !errors.Is(err, ErrConflict) {
		t.Fatalf("export unpinned: %v, want ErrConflict", err)
	}
	if err := reg.Pin(id); err != nil {
		t.Fatal(err)
	}
	// Pin is idempotent; finalize on pinned is ErrPinned and keeps it.
	if err := reg.Pin(id); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Finalize(id); !errors.Is(err, ErrPinned) {
		t.Fatalf("finalize pinned: %v, want ErrPinned", err)
	}
	st, err := reg.Export(id)
	if err != nil {
		t.Fatal(err)
	}
	// Import back into the same registry collides with the live session.
	if err := reg.Import(st); !errors.Is(err, ErrConflict) {
		t.Fatalf("import over live session: %v, want ErrConflict", err)
	}
	// Unpin rolls the move back; the session serves again.
	if err := reg.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshotOf(reg, id); err != nil {
		t.Fatalf("snapshot after unpin: %v", err)
	}

	// Malformed imports.
	if err := reg.Import(nil); err == nil {
		t.Fatal("nil import accepted")
	}
	if err := reg.Import(&SessionState{ID: "x"}); err == nil {
		t.Fatal("import without stream state accepted")
	}
	bad := *st
	bad.ID = ""
	if err := reg.Import(&bad); err == nil {
		t.Fatal("import without ID accepted")
	}
}

// TestOffsetIdempotentPush proves the no-double-ingest property behind
// push retries: re-sending a body (fully or partially ingested before)
// with X-Emprof-Offset set skips the landed prefix.
func TestOffsetIdempotentPush(t *testing.T) {
	capture := testSignal(20000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	enc := rawBytes(capture.Samples)
	half := (len(enc) / 2 / 8) * 8

	push := func(body []byte, offset int64) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+id+"/samples", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeRaw)
		req.Header.Set(HeaderOffset, fmt.Sprint(offset))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, msg := push(enc[:half], 0); code != http.StatusOK {
		t.Fatalf("push 1: HTTP %d: %s", code, msg)
	}
	// Retry the exact same push (lost-response scenario): a full skip.
	code, msg := push(enc[:half], 0)
	if code != http.StatusOK {
		t.Fatalf("retried push: HTTP %d: %s", code, msg)
	}
	var res IngestResult
	if err := json.Unmarshal([]byte(msg), &res); err != nil {
		t.Fatal(err)
	}
	if res.SamplesIngested != int64(half/8) {
		t.Fatalf("retry double-ingested: %d samples, want %d", res.SamplesIngested, half/8)
	}
	// Overlapping retry: body covers [quarter, end), half already landed.
	quarter := (half / 2 / 8) * 8
	if code, msg := push(enc[quarter:], int64(quarter/8)); code != http.StatusOK {
		t.Fatalf("overlapping push: HTTP %d: %s", code, msg)
	}
	// A gap is a conflict, not silently accepted.
	if code, _ := push(enc[:8], int64(len(enc)/8+5)); code != http.StatusConflict {
		t.Fatalf("gapped push: HTTP %d, want 409", code)
	}

	got, err := srv.Registry().Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("offset-deduplicated stream diverged from batch analysis")
	}
}

// TestClientAssignedID covers router-style session creation.
func TestClientAssignedID(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(CreateRequest{SampleRate: 40e6, ClockHz: 1e9, ID: "fleet-abc123"})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr CreateResponse
	json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || cr.ID != "fleet-abc123" {
		t.Fatalf("create with ID: HTTP %d, id %q", resp.StatusCode, cr.ID)
	}
	// Duplicate is 409.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate ID: HTTP %d, want 409", resp.StatusCode)
	}
	// Hostile IDs are rejected before touching the registry.
	if _, err := srv.Registry().CreateSession(CreateOpts{ID: "a/b", SampleRate: 40e6, ClockHz: 1e9, Config: core.DefaultConfig()}); err == nil {
		t.Fatal("ID with slash accepted")
	}
}

// oneChunk serves body to ingest as a single chunk.
func oneChunk(body []byte) func() ([]byte, error) {
	served := false
	return func() ([]byte, error) {
		if served {
			return nil, io.EOF
		}
		served = true
		return body, io.EOF
	}
}

// exportedState streams the first half of a capture into a fresh
// registry, cut midWord three bytes into the next sample or at a sample
// boundary, then pins and exports it: a genuine hand-off state.
// windowS > 0 exports the windower too.
func exportedState(tb testing.TB, windowS float64, midWord bool) *SessionState {
	tb.Helper()
	capture := testSignal(6000)
	reg := NewRegistry(Config{WindowS: windowS}, nil)
	defer reg.Close()
	id, err := reg.CreateSession(CreateOpts{SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Config: core.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	body := rawBytes(capture.Samples)
	cut := len(body) / 2
	if midWord {
		cut += 3
	}
	s, err := reg.get(id)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := reg.ingest(s, -1, -1, oneChunk(body[:cut])); err != nil {
		tb.Fatal(err)
	}
	if err := reg.Pin(id); err != nil {
		tb.Fatal(err)
	}
	st, err := reg.Export(id)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// forgedImports derives from a genuine export the inconsistent states
// Import must refuse.
func forgedImports(st *SessionState) map[string]*SessionState {
	zeroRate, rateMismatch, noDecoder, overBudget := *st, *st, *st, *st
	zeroRate.SampleRate = 0
	rateMismatch.SampleRate = 2 * st.Stream.SampleRate
	noDecoder.Decoder = nil
	overBudget.Bytes = DefaultMaxSessionBytes + 1
	return map[string]*SessionState{
		"zero sample rate":                    &zeroRate,
		"envelope rate disagrees with stream": &rateMismatch,
		"no decoder after pushed samples":     &noDecoder,
		"byte count beyond the budget":        &overBudget,
	}
}

// TestImportRejectsInconsistentState checks that Import applies
// CreateSession's admission rule and refuses a state that contradicts
// itself: each forged state would otherwise install a session that
// advertises the wrong rate, or answers 409 to every push that continues
// its stream.
func TestImportRejectsInconsistentState(t *testing.T) {
	st := exportedState(t, 0, false)
	if st.Stream.Pushed == 0 || st.Decoder == nil {
		t.Fatal("export holds no ingested samples")
	}
	for name, forged := range forgedImports(st) {
		reg := NewRegistry(Config{}, nil)
		if err := reg.Import(forged); err == nil {
			t.Errorf("%s: import accepted", name)
		}
		if n := reg.ActiveSessions(); n != 0 || reg.Metrics().SessionsImported.Load() != 0 {
			t.Errorf("%s: %d sessions registered after a refused import", name, n)
		}
		reg.Close()
	}

	// The genuine state imports and continues at its own offset.
	reg := NewRegistry(Config{}, nil)
	defer reg.Close()
	if err := reg.Import(st); err != nil {
		t.Fatal(err)
	}
	s, err := reg.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ingest(s, -1, st.Stream.Pushed, oneChunk(rawBytes([]float64{1, 1, 1}))); err != nil {
		t.Fatalf("push at the imported offset %d: %v", st.Stream.Pushed, err)
	}
}

// FuzzSessionImport feeds hand-off import bodies, decoded as handleImport
// decodes them, to Import. A state Import accepts must make a working
// session: an offset-tagged push at its ingested count lands, its
// snapshot and profiles encode, and it finalizes to a profile or to
// ErrPoisoned without panicking.
func FuzzSessionImport(f *testing.F) {
	add := func(st *SessionState) {
		blob, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, windowS := range []float64{0, 2e-5} {
		for _, midWord := range []bool{false, true} {
			add(exportedState(f, windowS, midWord))
		}
	}
	for _, forged := range forgedImports(exportedState(f, 0, false)) {
		add(forged)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var st SessionState
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
			return
		}
		reg := NewRegistry(Config{WindowS: 2e-5}, nil)
		defer reg.Close()
		if err := reg.Import(&st); err != nil {
			return
		}
		snap, err := snapshotOf(reg, st.ID)
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		push := rawBytes(testSignal(64).Samples)
		s, err := reg.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, err = reg.ingest(s, int64(len(push)), snap.SamplesIngested, oneChunk(push))
		overBudget := st.Bytes+int64(len(push)) > reg.cfg.MaxSessionBytes
		if err != nil && !(overBudget && errors.Is(err, ErrBudget)) {
			t.Fatalf("push at offset %d: %v", snap.SamplesIngested, err)
		}
		resp, windows, err := reg.Profiles(st.ID, profstore.Query{})
		if err != nil {
			t.Fatalf("profiles: %v", err)
		}
		var buf bytes.Buffer
		if err := EncodeProfiles(&buf, resp, windows); err != nil {
			t.Fatalf("encode profiles: %v", err)
		}
		prof, err := reg.Finalize(st.ID)
		if (err == nil) == (prof == nil) || err != nil && !errors.Is(err, ErrPoisoned) {
			t.Fatalf("finalize: profile %v, error %v", prof != nil, err)
		}
	})
}
