package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestStreamedProfileMatchesBatch streams a capture in chunks (raw and
// EMPROFCAP wire formats) and requires the finalized profile to be
// bit-identical to the batch analyzer's.
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

	t.Run("emprofcap", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
		var buf bytes.Buffer
		if err := em.WriteCapture(&buf, capture); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		// Deliberately misaligned chunks: the header and words split
		// across requests.
		for off := 0; off < len(enc); {
			end := off + 10001
			if end > len(enc) {
				end = len(enc)
			}
			if code, msg := postSamples(t, ts, id, enc[off:end], ContentTypeCapture); code != http.StatusOK {
				t.Fatalf("ingest at %d: HTTP %d: %s", off, code, msg)
			}
			off = end
		}
		got, err := srv.Registry().Finalize(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("EMPROFCAP-streamed profile differs from batch analysis")
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
	snap, err := srv.Registry().Snapshot(id)
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
	snap, err := srv.Registry().Snapshot(id)
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
	snap, err = srv.Registry().Snapshot(id2)
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
	idOld, err := reg.Create("dev", 40e6, 1e9, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(45 * time.Second)
	idNew, err := reg.Create("dev", 40e6, 1e9, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Second) // idOld now 75s idle, idNew 30s
	if n := reg.Sweep(clk.now()); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if _, err := reg.Snapshot(idOld); err != ErrNotFound {
		t.Fatalf("stale session still reachable: %v", err)
	}
	if _, err := reg.Snapshot(idNew); err != nil {
		t.Fatalf("fresh session swept: %v", err)
	}
	if got := reg.Metrics().SessionsGC.Load(); got != 1 {
		t.Fatalf("gc metric %d", got)
	}
	// Snapshot traffic refreshes the TTL.
	clk.advance(50 * time.Second)
	if _, err := reg.Snapshot(idNew); err != nil {
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

// TestPoisonedSession checks a decode failure rejects further ingest but
// leaves other sessions untouched.
func TestPoisonedSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, 40e6, 1e9)
	if code, _ := postSamples(t, ts, id, []byte("garbage!!! definitely not an EMPROFCAP header"), ContentTypeCapture); code != http.StatusBadRequest {
		t.Fatalf("bad magic: HTTP %d, want 400", code)
	}
	if code, _ := postSamples(t, ts, id, rawBytes([]float64{1}), ContentTypeRaw); code != http.StatusBadRequest {
		t.Fatal("poisoned session accepted more data")
	}
	// Metadata mismatch also poisons.
	id2 := createSession(t, ts, 40e6, 1e9)
	var buf bytes.Buffer
	if err := em.WriteCapture(&buf, &em.Capture{Samples: []float64{1}, SampleRate: 20e6, ClockHz: 1e9}); err != nil {
		t.Fatal(err)
	}
	if code, _ := postSamples(t, ts, id2, buf.Bytes(), ContentTypeCapture); code != http.StatusBadRequest {
		t.Fatal("mismatched capture header accepted")
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
	// A scrape does not drain sessions: the stall counter is fed by the
	// analysis worker and is eventually consistent, so poll until it
	// lands.
	var values map[string]float64
	var types map[string]string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		values, types = scrapeMetrics(t, ts)
		if values["emprofd_stalls_detected_total"] > 0 || time.Now().After(deadline) {
			break
		}
	}
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

// scrapeMetrics fetches /metrics and parses every line as Prometheus
// text exposition format, returning each series' value (labels dropped)
// and each declared TYPE.
func scrapeMetrics(t *testing.T, ts *httptest.Server) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
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
				if _, err := srv.Registry().Snapshot(id); err != nil {
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
			if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
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
