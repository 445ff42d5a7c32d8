package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emprof/internal/core"
	"emprof/internal/em"
)

// fakeClock is a settable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testSignal synthesises a busy-level signal with evenly-spaced dips deep
// enough for the default config to detect.
func testSignal(n int) *em.Capture {
	c := &em.Capture{SampleRate: 40e6, ClockHz: 1.008e9, Samples: make([]float64, n)}
	for i := range c.Samples {
		c.Samples[i] = 1 + 0.02*math.Sin(float64(i)*0.003)
	}
	for start := 2000; start+12 < n; start += 1500 {
		for j := 0; j < 12; j++ {
			c.Samples[start+j] = 0.05
		}
	}
	return c
}

func rawBytes(samples []float64) []byte {
	out := make([]byte, len(samples)*8)
	for i, v := range samples {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func createSession(t *testing.T, ts *httptest.Server, rate, clock float64) string {
	t.Helper()
	id, code := tryCreateSession(t, ts, rate, clock)
	if code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	return id
}

func tryCreateSession(t *testing.T, ts *httptest.Server, rate, clock float64) (string, int) {
	t.Helper()
	body, _ := json.Marshal(CreateRequest{SampleRate: rate, ClockHz: clock})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", resp.StatusCode
	}
	var cr CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr.ID, resp.StatusCode
}

// snapshotOf decodes the live profile the profile endpoint serves for id:
// SnapshotJSON's bytes, read back through Snapshot's decoder.
func snapshotOf(reg *Registry, id string) (*Snapshot, error) {
	var buf bytes.Buffer
	if err := reg.SnapshotJSON(id, &buf); err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func postSamples(t *testing.T, ts *httptest.Server, id string, body []byte, contentType string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/samples", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestStreamedProfileMatchesBatch streams a capture in chunks and
// requires the finalized profile to be bit-identical to the batch
// analyzer's.
func TestStreamedProfileMatchesBatch(t *testing.T) {
	capture := testSignal(30000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)
	if len(want.Stalls) < 5 {
		t.Fatalf("test signal yields only %d stalls", len(want.Stalls))
	}

	t.Run("raw", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
		enc := rawBytes(capture.Samples)
		third := (len(enc) / 3 / 8) * 8
		for _, part := range [][]byte{enc[:third], enc[third : 2*third], enc[2*third:]} {
			if code, msg := postSamples(t, ts, id, part, ContentTypeRaw); code != http.StatusOK {
				t.Fatalf("ingest: HTTP %d: %s", code, msg)
			}
		}
		got, err := srv.Registry().Finalize(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("streamed profile differs from batch analysis")
		}
	})
}

// TestSnapshotMidStreamIsCausal pushes half a capture and checks the live
// snapshot only reports already-decided stalls that form a prefix of the
// final result.
func TestSnapshotMidStreamIsCausal(t *testing.T) {
	capture := testSignal(30000)
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)

	half := len(capture.Samples) / 2
	if code, _ := postSamples(t, ts, id, rawBytes(capture.Samples[:half]), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.SamplesIngested != int64(half) {
		t.Fatalf("ingested %d, want %d", snap.SamplesIngested, half)
	}
	if snap.SamplesDecided > snap.SamplesIngested {
		t.Fatalf("decided %d ahead of ingested %d", snap.SamplesDecided, snap.SamplesIngested)
	}
	if len(snap.Profile.Stalls) == 0 {
		t.Fatal("mid-stream snapshot found no stalls")
	}
	for _, st := range snap.Profile.Stalls {
		if int64(st.EndSample) > snap.SamplesDecided {
			t.Fatalf("stall ending at %d beyond decided position %d", st.EndSample, snap.SamplesDecided)
		}
	}
	histTotal := 0
	for _, n := range snap.ConfidenceHist {
		histTotal += n
	}
	if histTotal != len(snap.Profile.Stalls) {
		t.Fatalf("confidence histogram counts %d stalls, profile has %d", histTotal, len(snap.Profile.Stalls))
	}

	if code, _ := postSamples(t, ts, id, rawBytes(capture.Samples[half:]), ContentTypeRaw); code != http.StatusOK {
		t.Fatal("second ingest failed")
	}
	final, err := srv.Registry().Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Profile.Stalls, final.Stalls[:len(snap.Profile.Stalls)]) {
		t.Fatal("mid-stream stalls are not a prefix of the final profile")
	}
}

// TestSessionLimit429 fills the registry and checks backpressure.
func TestSessionLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	createSession(t, ts, 40e6, 1e9)
	id2 := createSession(t, ts, 40e6, 1e9)
	if _, code := tryCreateSession(t, ts, 40e6, 1e9); code != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: HTTP %d, want 429", code)
	}
	// Finalizing one frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id2, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("finalize: %v %v", err, resp.Status)
	}
	if _, code := tryCreateSession(t, ts, 40e6, 1e9); code != http.StatusCreated {
		t.Fatalf("create after finalize: HTTP %d", code)
	}
}

// TestByteBudget429 checks the per-session ingest budget, including that
// a rejected request with a Content-Length ingests nothing (safe to
// retry).
func TestByteBudget429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessionBytes: 1000 * 8})
	id := createSession(t, ts, 40e6, 1e9)
	if code, _ := postSamples(t, ts, id, rawBytes(make([]float64, 900)), ContentTypeRaw); code != http.StatusOK {
		t.Fatal("in-budget ingest rejected")
	}
	code, _ := postSamples(t, ts, id, rawBytes(make([]float64, 200)), ContentTypeRaw)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest: HTTP %d, want 429", code)
	}
	snap, err := snapshotOf(srv.Registry(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 900 {
		t.Fatalf("rejected request ingested samples: %d", snap.SamplesIngested)
	}
	// A request that still fits goes through.
	if code, _ := postSamples(t, ts, id, rawBytes(make([]float64, 100)), ContentTypeRaw); code != http.StatusOK {
		t.Fatal("in-budget ingest after rejection failed")
	}
}

// postSamplesAt posts a raw block offset-tagged with its session-stream
// position, the way emprof.Client's PushSamplesAt does.
func postSamplesAt(t *testing.T, ts *httptest.Server, id string, offset int64, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/samples", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeRaw)
	req.Header.Set(HeaderOffset, strconv.FormatInt(offset, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestByteBudgetOffsetRetry checks that the budget pre-check charges an
// offset-tagged push only for its effective new bytes: the prefix the
// session already ingested will be skipped, so counting it again would
// 429 a retry of a push that landed near MaxSessionBytes — the client
// would then retry into the same 429 until it errors out, even though
// nothing new needs to fit.
func TestByteBudgetOffsetRetry(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessionBytes: 1000 * 8})
	id := createSession(t, ts, 40e6, 1e9)

	// Fill the budget exactly, then resend the whole block (a lost
	// response): every byte is an already-ingested prefix, effective
	// new bytes are zero, and the retry must succeed without ingesting
	// anything twice.
	block := rawBytes(testSignal(1000).Samples)
	if code, _ := postSamplesAt(t, ts, id, 0, block); code != http.StatusOK {
		t.Fatal("in-budget ingest rejected")
	}
	if code, msg := postSamplesAt(t, ts, id, 0, block); code != http.StatusOK {
		t.Fatalf("full retry at the budget edge: HTTP %d (%s), want 200", code, msg)
	}
	snap, err := snapshotOf(srv.Registry(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 1000 || snap.BytesIngested != 1000*8 {
		t.Fatalf("retry double-ingested: %d samples / %d bytes, want 1000 / 8000",
			snap.SamplesIngested, snap.BytesIngested)
	}
	// An untagged push has no skippable prefix: still over budget.
	if code, _ := postSamples(t, ts, id, rawBytes(make([]float64, 1)), ContentTypeRaw); code != http.StatusTooManyRequests {
		t.Fatal("untagged over-budget push accepted")
	}

	// Partial overlap on a fresh session: 900 of 1000 samples landed,
	// then a push of [800, 1000) retries. Its declared 1600 bytes would
	// blow the pre-check, but 800 of them are skippable prefix — the
	// effective 800 fit exactly.
	id2 := createSession(t, ts, 40e6, 1e9)
	samples := testSignal(1000).Samples
	if code, _ := postSamplesAt(t, ts, id2, 0, rawBytes(samples[:900])); code != http.StatusOK {
		t.Fatal("first 900 samples rejected")
	}
	if code, msg := postSamplesAt(t, ts, id2, 800, rawBytes(samples[800:])); code != http.StatusOK {
		t.Fatalf("overlapping retry near the budget edge: HTTP %d (%s), want 200", code, msg)
	}
	snap, err = snapshotOf(srv.Registry(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 1000 || snap.BytesIngested != 1000*8 {
		t.Fatalf("overlapping retry mis-ingested: %d samples / %d bytes, want 1000 / 8000",
			snap.SamplesIngested, snap.BytesIngested)
	}
}

// TestIdleGC checks TTL-based collection with a fake clock.
func TestIdleGC(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	srv := New(Config{IdleTTL: time.Minute, Now: clk.now})
	reg := srv.Registry()
	idOld, err := reg.CreateSession(CreateOpts{Device: "dev", SampleRate: 40e6, ClockHz: 1e9, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(45 * time.Second)
	idNew, err := reg.CreateSession(CreateOpts{Device: "dev", SampleRate: 40e6, ClockHz: 1e9, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Second) // idOld now 75s idle, idNew 30s
	if n := reg.Sweep(clk.now()); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if _, err := snapshotOf(reg, idOld); err != ErrNotFound {
		t.Fatalf("stale session still reachable: %v", err)
	}
	if _, err := snapshotOf(reg, idNew); err != nil {
		t.Fatalf("fresh session swept: %v", err)
	}
	if got := reg.Metrics().SessionsGC.Load(); got != 1 {
		t.Fatalf("gc metric %d", got)
	}
	// Snapshot traffic refreshes the TTL.
	clk.advance(50 * time.Second)
	if _, err := snapshotOf(reg, idNew); err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Second)
	if n := reg.Sweep(clk.now()); n != 0 {
		t.Fatalf("recently-touched session swept (%d)", n)
	}
}

// TestGracefulClose checks shutdown finalizes in-flight sessions and
// later requests get 503.
func TestGracefulClose(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts, 40e6, 1e9)
	if code, _ := postSamples(t, ts, id, rawBytes(testSignal(5000).Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	srv.Close()
	if got := srv.Registry().Metrics().SessionsFinalized.Load(); got != 1 {
		t.Fatalf("close finalized %d sessions, want 1", got)
	}
	if _, code := tryCreateSession(t, ts, 40e6, 1e9); code != http.StatusServiceUnavailable {
		t.Fatalf("create after close: HTTP %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("profile after close: HTTP %d, want 503", resp.StatusCode)
	}
	srv.Close() // idempotent
}

// TestIngestRefusesCaptureFiles checks that an EMPROFCAP file body is
// refused whole (415), whether its header is well-formed or not, rather
// than having its header profiled as samples, and that the refusal
// leaves the session usable: the capture's samples, pushed raw at offset
// 0, finalize bit-identical to batch analysis.
func TestIngestRefusesCaptureFiles(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	capture := testSignal(30000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	var buf bytes.Buffer
	if err := em.WriteCapture(&buf, capture); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{buf.Bytes(), []byte("garbage!!! definitely not an EMPROFCAP header")} {
		if code, msg := postSamples(t, ts, id, body, "application/x-emprofcap"); code != http.StatusUnsupportedMediaType {
			t.Fatalf("capture file body: HTTP %d %s, want 415", code, msg)
		}
	}
	snap, err := snapshotOf(srv.Registry(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 0 || snap.BytesIngested != 0 {
		t.Fatalf("refused bodies ingested %d samples (%d bytes)", snap.SamplesIngested, snap.BytesIngested)
	}
	if code, msg := postSamplesAt(t, ts, id, 0, rawBytes(capture.Samples)); code != http.StatusOK {
		t.Fatalf("raw push at 0: HTTP %d %s", code, msg)
	}
	got, err := srv.Registry().Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture); !reflect.DeepEqual(got, want) {
		t.Fatal("profile after a refused capture file differs from batch analysis")
	}
}

// FuzzIngest drives one session with a sequence of offset-tagged pushes
// of one capture's raw bytes, five fuzz bytes per push: the offset (16
// bits, behind, at or past the stream's end), the body length in bytes
// (16 bits, so bodies may end mid-word), and a byte choosing the read
// size, whether the body declares its length, and whether next fails
// after the first read. After every push, nothing has panicked, the
// reported sample count is the analyzer's, every decoded sample is the
// capture's at its index, and an offset past the decoded stream answered
// ErrConflict. A final push of the rest then finalizes bit-identical to
// batch analysis.
func FuzzIngest(f *testing.F) {
	capture := testSignal(6000)
	enc := rawBytes(capture.Samples)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)
	push := func(offset, n uint16, flags byte) []byte {
		return []byte{byte(offset), byte(offset >> 8), byte(n), byte(n >> 8), flags}
	}
	f.Add([]byte{})
	f.Add(slices.Concat(push(0, 16000, 0x3f), push(2000, 20000, 0x80), push(1000, 30000, 0)))
	f.Add(slices.Concat(push(0, 8003, 0x41), push(0, 8003, 0), push(1002, 13, 0x87), push(7000, 8, 0)))
	f.Add(slices.Concat(push(500, 8, 0), push(0, 65535, 0xc5), push(3000, 24001, 0x02), push(2999, 5, 0x80)))
	f.Add(slices.Concat(push(0, 800, 0), push(101, 8, 0), push(100, 8, 0)))
	errInjected := errors.New("injected read failure")

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry(Config{}, nil)
		defer reg.Close()
		id, err := reg.CreateSession(CreateOpts{SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Config: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := reg.get(id)
		if err != nil {
			t.Fatal(err)
		}
		var decoded int64
		analyze := s.emit
		s.emit = func(xs []float64) {
			for _, x := range xs {
				if decoded >= int64(len(capture.Samples)) || math.Float64bits(x) != math.Float64bits(capture.Samples[decoded]) {
					t.Fatalf("decoded sample %d is not the capture's", decoded)
				}
				decoded++
			}
			analyze(xs)
		}
		ingest := func(offset int64, body []byte, flags byte) (IngestResult, error) {
			declared := int64(-1)
			if flags&0x80 != 0 {
				declared = int64(len(body))
			}
			read, reads := int(flags&0x3f)*97+1, 0
			return reg.ingest(s, declared, offset, func() ([]byte, error) {
				if reads++; reads > 1 && flags&0x40 != 0 {
					return nil, errInjected
				}
				n := min(read, len(body))
				chunk := body[:n]
				body = body[n:]
				if len(body) == 0 {
					return chunk, io.EOF
				}
				return chunk, nil
			})
		}
		for i := 0; i+5 <= len(data) && i < 64*5; i += 5 {
			offset := int64(binary.LittleEndian.Uint16(data[i:]))
			start := min(offset*8, int64(len(enc)))
			body := enc[start:min(start+int64(binary.LittleEndian.Uint16(data[i+2:])), int64(len(enc)))]
			before := decoded
			res, err := ingest(offset, body, data[i+4])
			switch {
			case offset > before:
				if !errors.Is(err, ErrConflict) || decoded != before {
					t.Fatalf("push at %d past the decoded %d: err %v, %d samples decoded", offset, before, err, decoded)
				}
			case err != nil && !errors.Is(err, errInjected):
				t.Fatalf("push at %d: %v", offset, err)
			}
			s.mu.Lock()
			pushed := s.an.Pushed()
			s.mu.Unlock()
			if res.SamplesIngested != decoded || pushed != decoded || reg.metrics.SamplesIngested.Load() != decoded {
				t.Fatalf("push at %d: reported %d samples, analyzer %d, metric %d, decoded %d",
					offset, res.SamplesIngested, pushed, reg.metrics.SamplesIngested.Load(), decoded)
			}
		}
		if _, err := ingest(decoded, enc[decoded*8:], 0xbf); err != nil {
			t.Fatalf("push of the rest at %d: %v", decoded, err)
		}
		got, err := reg.Finalize(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("fuzzed push sequence finalized to a profile that differs from batch analysis")
		}
	})
}

// TestAnalysisPanicPoisonsSession checks that a panic in the analysis
// chain fails the push that caused it, poisons only its own session, and
// leaves the daemon serving.
func TestAnalysisPanicPoisonsSession(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts, 40e6, 1e9)
	sess, err := srv.Registry().get(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	sess.an.OnStall = func(core.Stall) { panic("injected analysis fault") }
	sess.mu.Unlock()

	body := rawBytes(testSignal(30000).Samples)
	code, msg := postSamples(t, ts, id, body, ContentTypeRaw)
	if code != http.StatusBadRequest || !strings.Contains(msg, "injected analysis fault") {
		t.Fatalf("push that panicked: HTTP %d %s, want 400 naming the fault", code, msg)
	}
	if code, msg := postSamples(t, ts, id, body, ContentTypeRaw); code != http.StatusBadRequest || !strings.Contains(msg, "previously failed") {
		t.Fatalf("push after the panic: HTTP %d %s, want 400 poisoned", code, msg)
	}

	id2 := createSession(t, ts, 40e6, 1e9)
	if code, msg := postSamples(t, ts, id2, body, ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("healthy session push: HTTP %d %s", code, msg)
	}
	snap, err := snapshotOf(srv.Registry(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Profile.Stalls) == 0 {
		t.Fatal("healthy session found no stalls")
	}
	if values, _ := scrapeMetrics(t, ts); values["emprofd_sessions_active"] != 2 {
		t.Fatalf("emprofd_sessions_active = %v, want 2", values["emprofd_sessions_active"])
	}
}

// TestPoisonedSessionRetires checks that every way out of the registry
// survives a session whose analysis panicked — finalizing it re-runs the
// faulty chain. DELETE answers 400 naming the fault; the idle sweep (the
// daemon's GC goroutine) and Close must not panic.
func TestPoisonedSessionRetires(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	srv, ts := newTestServer(t, Config{IdleTTL: time.Minute, Now: clk.now})
	reg := srv.Registry()
	capture := testSignal(30000)
	body := rawBytes(capture.Samples)
	panicked := func() string {
		t.Helper()
		id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
		sess, err := reg.get(id)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		sess.an.OnStall = func(core.Stall) { panic("injected analysis fault") }
		sess.mu.Unlock()
		if code, msg := postSamples(t, ts, id, body, ContentTypeRaw); code != http.StatusBadRequest {
			t.Fatalf("push that panicked: HTTP %d %s, want 400", code, msg)
		}
		return id
	}
	finalize := func(id string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	if code, msg := finalize(panicked()); code != http.StatusBadRequest || !strings.Contains(msg, "injected analysis fault") {
		t.Fatalf("DELETE of a panicked session: HTTP %d %s, want 400 naming the fault", code, msg)
	}
	if got := reg.Metrics().SessionsFinalized.Load(); got != 1 {
		t.Fatalf("sessions finalized = %d after DELETE, want 1", got)
	}

	panicked()
	clk.advance(2 * time.Minute)
	if n := reg.Sweep(clk.now()); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if got := reg.Metrics().SessionsGC.Load(); got != 1 {
		t.Fatalf("sessions GC = %d, want 1", got)
	}

	panicked()
	srv.Close()
	if got := reg.Metrics().SessionsFinalized.Load(); got != 2 {
		t.Fatalf("sessions finalized = %d after Close, want 2", got)
	}
}

// TestMetricsPrometheusFormat scrapes /metrics and parses every line as
// Prometheus text exposition format, checking the core series exist with
// sane values.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, 40e6, 1e9)
	if code, _ := postSamples(t, ts, id, rawBytes(testSignal(30000).Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	// The push analysed its samples before it returned, so the first
	// scrape already counts its stalls.
	values, types := scrapeMetrics(t, ts)
	checks := map[string]float64{
		"emprofd_sessions_active":        1,
		"emprofd_sessions_total":         1,
		"emprofd_samples_ingested_total": 30000,
		"emprofd_ingest_bytes_total":     240000,
	}
	for name, want := range checks {
		if got, ok := values[name]; !ok || got != want {
			t.Fatalf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if values["emprofd_stalls_detected_total"] <= 0 {
		t.Fatal("no stalls counted")
	}
	if _, ok := values["emprofd_http_requests_total"]; !ok {
		t.Fatal("per-endpoint request counter missing")
	}
	for _, name := range []string{"emprofd_sessions_total", "emprofd_samples_ingested_total"} {
		if types[name] != "counter" {
			t.Fatalf("%s TYPE = %q", name, types[name])
		}
	}
}

// TestMetricsWindowsFirstScrape is the windowed case of the first-scrape
// contract: a push stores the windows it seals before it returns, so the
// first scrape after it counts every one, even on a slow store.
func TestMetricsWindowsFirstScrape(t *testing.T) {
	const widthS = 2e-5
	_, ts := newTestServer(t, Config{WindowS: widthS, Store: slowStore(t, time.Millisecond)})
	capture := testSignal(30000)
	want := sealedWindows(t, capture.Samples, capture.SampleRate, capture.ClockHz, widthS)
	if want == 0 {
		t.Fatal("test signal seals no window")
	}
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	values, _ := scrapeMetrics(t, ts)
	if got := values["emprofd_windows_sealed_total"]; got != float64(want) {
		t.Fatalf("emprofd_windows_sealed_total = %v on the first scrape, want the %d windows the push sealed", got, want)
	}
	if got := values["emprofd_windows_dropped_total"]; got != 0 {
		t.Fatalf("emprofd_windows_dropped_total = %v, want 0", got)
	}
}

// scrapeMetrics fetches /v1/metrics and parses every line as Prometheus
// text exposition format, returning each series' value (labels dropped)
// and each declared TYPE.
func scrapeMetrics(t *testing.T, ts *httptest.Server) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	values := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "summary" && f[3] != "histogram") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("unknown comment line: %q", line)
			}
			continue
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			name = name[:i]
		}
		values[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values, types
}

// TestListSessions checks the list endpoint's shape and ordering.
func TestListSessions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1e9, 0)}
	srv := New(Config{Now: clk.now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	idA := createSession(t, ts, 40e6, 1e9)
	clk.advance(time.Second)
	idB := createSession(t, ts, 20e6, 8e8)
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != idA || list[1].ID != idB {
		t.Fatalf("list order wrong: %+v", list)
	}
	if list[1].SampleRate != 20e6 || list[1].ClockHz != 8e8 || list[1].State != "active" {
		t.Fatalf("list entry shape: %+v", list[1])
	}
}

// TestConcurrentSessions hammers the service from many goroutines (run
// under -race in CI): concurrent creates, interleaved ingest and
// snapshots on distinct sessions, list and metrics scrapes throughout.
func TestConcurrentSessions(t *testing.T) {
	capture := testSignal(12000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)
	srv, ts := newTestServer(t, Config{MaxSessions: 64})

	const n = 8
	var wg sync.WaitGroup
	profiles := make([]*core.Profile, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, code := tryCreateSession(t, ts, capture.SampleRate, capture.ClockHz)
			if code != http.StatusCreated {
				errs[i] = fmt.Errorf("create: HTTP %d", code)
				return
			}
			enc := rawBytes(capture.Samples)
			step := (len(enc) / 4 / 8) * 8
			for off := 0; off < len(enc); {
				end := off + step
				if end > len(enc) {
					end = len(enc)
				}
				if code, msg := postSamples(t, ts, id, enc[off:end], ContentTypeRaw); code != http.StatusOK {
					errs[i] = fmt.Errorf("ingest: HTTP %d: %s", code, msg)
					return
				}
				off = end
				if _, err := snapshotOf(srv.Registry(), id); err != nil {
					errs[i] = err
					return
				}
			}
			profiles[i], errs[i] = srv.Registry().Finalize(id)
		}(i)
	}
	// Concurrent scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			if resp, err := http.Get(ts.URL + "/v1/sessions"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if resp, err := http.Get(ts.URL + "/v1/metrics"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(profiles[i], want) {
			t.Fatalf("worker %d profile differs from batch", i)
		}
	}
	if got := srv.Registry().Metrics().SamplesIngested.Load(); got != int64(n*len(capture.Samples)) {
		t.Fatalf("samples metric %d, want %d", got, n*len(capture.Samples))
	}
}
