package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emprof/internal/attrib"
	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/profstore"
	"emprof/internal/sim"
)

func getProfiles(t *testing.T, ts *httptest.Server, id, query string) (*ProfilesResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/profiles" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var pr ProfilesResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return &pr, resp.StatusCode
}

// ingestBody pushes body into s through the registry's ingest path, as
// one chunk, with no HTTP in between.
func ingestBody(t *testing.T, reg *Registry, s *session, body []byte) {
	t.Helper()
	if _, err := reg.ingest(s, int64(len(body)), -1, oneChunk(body)); err != nil {
		t.Fatal(err)
	}
}

// TestWindowsEndpointMergeMatchesFinalize is the continuous-profiling
// e2e: a session streamed in chunks with windowing on serves its rolling
// windows at the profiles route, live and after finalize ("detached"),
// and merging the full window sequence reproduces the one-shot profile
// bit for bit.
func TestWindowsEndpointMergeMatchesFinalize(t *testing.T) {
	capture := testSignal(30000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)

	srv, ts := newTestServer(t, Config{WindowS: 1e-4})
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	enc := rawBytes(capture.Samples)
	for off := 0; off < len(enc); off += 40000 {
		end := off + 40000
		if end > len(enc) {
			end = len(enc)
		}
		if code, msg := postSamples(t, ts, id, enc[off:end], ContentTypeRaw); code != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", code, msg)
		}
	}

	// Live query: sealed windows are visible mid-session, tiling from 0.
	live, code := getProfiles(t, ts, id, "")
	if code != http.StatusOK {
		t.Fatalf("live profiles: HTTP %d", code)
	}
	if live.State != "active" || len(live.Windows) == 0 {
		t.Fatalf("live response: state %q, %d windows", live.State, len(live.Windows))
	}
	if live.WindowS != 1e-4 || live.SampleRate != capture.SampleRate {
		t.Fatalf("geometry echo wrong: %+v", live)
	}
	if live.Windows[0].StartSample != 0 {
		t.Fatalf("first window starts at %d", live.Windows[0].StartSample)
	}

	// Time-range query returns exactly the overlapping windows.
	ranged, _ := getProfiles(t, ts, id, "?from=0.0002&to=0.0004")
	for _, w := range ranged.Windows {
		if w.EndS <= 0.0002 || w.StartS >= 0.0004 {
			t.Fatalf("window [%g, %g) outside queried range", w.StartS, w.EndS)
		}
	}
	if len(ranged.Windows) >= len(live.Windows) {
		t.Fatalf("range query returned %d of %d windows", len(ranged.Windows), len(live.Windows))
	}

	// Finalize; the session leaves the registry but its windows remain
	// queryable from the store.
	got, err := srv.Registry().Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windowed session's finalize profile differs from batch analysis")
	}
	det, code := getProfiles(t, ts, id, "")
	if code != http.StatusOK {
		t.Fatalf("detached profiles: HTTP %d", code)
	}
	if det.State != "detached" {
		t.Fatalf("post-finalize state %q", det.State)
	}
	last := det.Windows[len(det.Windows)-1]
	if !last.Final || last.EndSample != int64(len(capture.Samples)) {
		t.Fatalf("final window %+v does not close the %d-sample stream", last, len(capture.Samples))
	}
	merged, err := core.MergeWindows(det.Windows, capture.SampleRate, capture.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("merged windows differ from batch analysis")
	}
}

// TestProfilesPagination pages through a window sequence with after=.
func TestProfilesPagination(t *testing.T) {
	capture := testSignal(30000)
	_, ts := newTestServer(t, Config{WindowS: 2e-5})
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	all, _ := getProfiles(t, ts, id, "")
	if len(all.Windows) < 10 {
		t.Fatalf("only %d windows sealed", len(all.Windows))
	}
	var paged []core.ProfileWindow
	after := int64(-1)
	for {
		query := "?limit=7"
		if after >= 0 {
			query += "&after=" + strconv.FormatInt(after, 10)
		}
		page, _ := getProfiles(t, ts, id, query)
		paged = append(paged, page.Windows...)
		if !page.More {
			break
		}
		after = page.NextAfter
	}
	if !reflect.DeepEqual(paged, all.Windows) {
		t.Fatalf("pagination drops or reorders: %d vs %d windows", len(paged), len(all.Windows))
	}
	// last= tails the sequence.
	tail, _ := getProfiles(t, ts, id, "?last=3")
	if len(tail.Windows) != 3 || tail.Windows[2].Index != all.Windows[len(all.Windows)-1].Index {
		t.Fatalf("last=3 returned %d windows ending at %d", len(tail.Windows), tail.Windows[len(tail.Windows)-1].Index)
	}

	// A page ending at window 0 (limit=1, no cursor) answers NextAfter 0,
	// and resubmitting after=0 must advance to window 1 — index 0 is a
	// real cursor value, not "start at the front".
	page0, _ := getProfiles(t, ts, id, "?limit=1")
	if len(page0.Windows) != 1 || page0.Windows[0].Index != 0 || !page0.More || page0.NextAfter != 0 {
		t.Fatalf("limit=1 first page %+v, want window 0 with More and NextAfter 0", page0)
	}
	page1, _ := getProfiles(t, ts, id, "?limit=1&after=0")
	if len(page1.Windows) != 1 || page1.Windows[0].Index != 1 {
		t.Fatalf("after=0 returned %+v, want window 1", page1.Windows)
	}
}

// slowStore opens a memory store whose every Append takes at least d,
// like a store on a slow disk: a window still being persisted when its
// push returns would show in the counters.
func slowStore(t *testing.T, d time.Duration) *profstore.Store {
	t.Helper()
	store, err := profstore.Open(profstore.Options{Now: func() time.Time {
		time.Sleep(d)
		return time.Now()
	}})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// sealedWindows counts the windows a session with windows of widthS
// seals while ingesting samples, short of finalize: the service's
// analyzer and windower, driven directly.
func sealedWindows(t *testing.T, samples []float64, rate, clock, widthS float64) int64 {
	t.Helper()
	an, err := core.NewStreamAnalyzer(core.DefaultConfig(), rate, clock)
	if err != nil {
		t.Fatal(err)
	}
	win, err := core.NewWindower(widthS, 0, rate, clock)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	win.OnWindow = func(*core.ProfileWindow) { n++ }
	an.OnStall = win.Observe
	an.PushBlock(samples)
	win.Advance(an.Frontier())
	return n
}

// TestStoreAppendFailureObservable pins the store's failure accounting:
// when Append starts failing, every dropped window is counted
// (emprofd_windows_dropped_total) and the first loss is logged, all by
// the time the push that sealed them returns.
func TestStoreAppendFailureObservable(t *testing.T) {
	store := slowStore(t, time.Millisecond)
	var mu sync.Mutex
	var lines []string
	const widthS = 2e-5
	srv, ts := newTestServer(t, Config{WindowS: widthS, Store: store, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	capture := testSignal(30000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	half := len(capture.Samples) / 2
	firstHalf := sealedWindows(t, capture.Samples[:half], capture.SampleRate, capture.ClockHz, widthS)
	all := sealedWindows(t, capture.Samples, capture.SampleRate, capture.ClockHz, widthS)
	if firstHalf == 0 || all == firstHalf {
		t.Fatalf("test signal seals %d then %d windows; both halves must seal some", firstHalf, all-firstHalf)
	}
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples[:half]), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	m := srv.Registry().Metrics()
	if got := m.WindowsSealed.Load(); got != firstHalf {
		t.Fatalf("WindowsSealed = %d when the push returned, want the %d windows it sealed", got, firstHalf)
	}

	// Every Append now fails; the second half's windows are lost.
	store.Close()
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples[half:]), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest after store close: HTTP %d: %s", code, msg)
	}
	if got := m.WindowsDropped.Load(); got != all-firstHalf {
		t.Fatalf("WindowsDropped = %d when the push returned, want the %d windows it sealed", got, all-firstHalf)
	}
	if got := m.WindowsSealed.Load(); got != firstHalf {
		t.Fatalf("WindowsSealed advanced from %d to %d across a dead store", firstHalf, got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], id) {
		t.Fatalf("store failure logged %q, want one line naming session %s", lines, id)
	}
}

// TestWindowedSessionsStartNoGoroutines checks that a windowed session
// runs on the requests that drive it: opening and pushing to many of
// them leaves the goroutine count where it was.
func TestWindowedSessionsStartNoGoroutines(t *testing.T) {
	const n = 16
	reg := NewRegistry(Config{WindowS: 1e-4}, nil)
	defer reg.Close()
	capture := testSignal(10000)
	chunk := rawBytes(capture.Samples)
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		id, err := reg.CreateSession(CreateOpts{SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Config: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := reg.get(id)
		if err != nil {
			t.Fatal(err)
		}
		ingestBody(t, reg, s, chunk)
	}
	if reg.Metrics().WindowsSealed.Load() == 0 {
		t.Fatal("no session sealed a window")
	}
	// One goroutine per session would add n; allow a little slack for
	// goroutines other tests left exiting or starting.
	if after := runtime.NumGoroutine(); after-before >= n/2 {
		t.Fatalf("%d windowed sessions grew the goroutine count from %d to %d", n, before, after)
	}
}

// TestProfilesErrorContract pins the API redesign's error mapping: empty
// 200 for a live session with no windows, 404 for unknown IDs, 400 for
// bad query parameters, 410 for ranges evicted by retention.
func TestProfilesErrorContract(t *testing.T) {
	// Windowing disabled: the route still answers 200 with no windows.
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, 40e6, 1e9)
	pr, code := getProfiles(t, ts, id, "")
	if code != http.StatusOK || len(pr.Windows) != 0 || pr.State != "active" {
		t.Fatalf("no-window session: HTTP %d, %+v", code, pr)
	}
	if _, code := getProfiles(t, ts, "nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown session: HTTP %d, want 404", code)
	}
	for _, q := range []string{"?from=-1", "?to=x", "?from=0.002&to=0.001", "?limit=-3", "?after=1.5"} {
		if _, code := getProfiles(t, ts, id, q); code != http.StatusBadRequest {
			t.Fatalf("query %q: HTTP %d, want 400", q, code)
		}
	}

	// Retention: a tiny store evicts early windows; asking for exactly
	// those is 410 Gone, and errors.Is sees ErrWindowNotRetained.
	store, err := profstore.Open(profstore.Options{MaxBytes: 4 << 10, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{WindowS: 1e-5, Store: store})
	capture := testSignal(40000)
	id2 := createSession(t, ts2, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts2, id2, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	all, _ := getProfiles(t, ts2, id2, "")
	if !all.Truncated {
		t.Fatalf("tiny store did not evict (retained %d windows; shrink MaxBytes)", len(all.Windows))
	}
	oldest := all.Windows[0].StartS
	if oldest <= 0 {
		t.Fatal("no windows evicted")
	}
	if _, code := getProfiles(t, ts2, id2, "?from=0&to="+floatQuery(oldest/2)); code != http.StatusGone {
		t.Fatalf("evicted range: HTTP %d, want 410", code)
	}
	_, _, err = srv2.Registry().Profiles(id2, profstore.Query{ToS: oldest / 2})
	if !errors.Is(err, ErrWindowNotRetained) {
		t.Fatalf("registry error %v does not wrap ErrWindowNotRetained", err)
	}
}

func floatQuery(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestBareRoutesNotFound checks that /v1 is the whole HTTP surface: the
// same paths without the prefix are not routes.
func TestBareRoutesNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/sessions", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHandoffWindowContinuity moves a windowed session between two
// registries mid-stream and merges the windows each shard's store
// retained: the combined sequence must reassemble the batch profile
// exactly — no window lost, duplicated, or re-indexed by the move.
func TestHandoffWindowContinuity(t *testing.T) {
	capture := testSignal(30000)
	want := core.MustNewAnalyzer(core.DefaultConfig()).Profile(capture)
	cfg := Config{WindowS: 1e-4}
	regA := NewRegistry(cfg, nil)
	regB := NewRegistry(cfg, nil)

	id, err := regA.CreateSession(CreateOpts{Device: "dev", SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sessA, _ := regA.get(id)
	enc := rawBytes(capture.Samples)
	split := (len(enc) / 2 / 8) * 8
	ingestBody(t, regA, sessA, enc[:split])

	if err := regA.Pin(id); err != nil {
		t.Fatal(err)
	}
	st, err := regA.Export(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows == nil {
		t.Fatal("windower state did not travel")
	}
	if err := regB.Import(st); err != nil {
		t.Fatal(err)
	}
	if err := regA.Forget(id); err != nil {
		t.Fatal(err)
	}
	sessB, _ := regB.get(id)
	ingestBody(t, regB, sessB, enc[split:])
	got, err := regB.Finalize(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("handed-off profile differs from batch analysis")
	}

	// Each shard's store holds its half of the window sequence.
	resA, err := regA.Store().Query(id, profstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := regB.Store().Query(id, profstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Windows) == 0 || len(resB.Windows) == 0 {
		t.Fatalf("windows not split across shards: %d + %d", len(resA.Windows), len(resB.Windows))
	}
	merged, err := core.MergeWindows(append(resA.Windows, resB.Windows...), capture.SampleRate, capture.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("cross-shard merged windows differ from batch analysis")
	}
}

// TestWindowsCarryRegions attaches a trained attribution model and
// checks sealed windows attribute their stalls to the right regions.
func TestWindowsCarryRegions(t *testing.T) {
	const fs, clock = 40e6, 1e9
	// Training capture: two regions with distinct modulation.
	freqs := map[uint16]float64{1: 1.2e6, 2: 9.5e6}
	mkRegion := func(samples []float64, lo, hi int, f float64) {
		for i := lo; i < hi; i++ {
			samples[i] = 1 + 0.1*math.Sin(2*math.Pi*f*float64(i)/fs)
		}
	}
	train := make([]float64, 16000)
	mkRegion(train, 0, 8000, freqs[1])
	mkRegion(train, 8000, 16000, freqs[2])
	cps := clock / fs
	spans := []sim.RegionSpan{
		{Region: 1, StartCycle: 0, EndCycle: uint64(8000 * cps)},
		{Region: 2, StartCycle: uint64(8000 * cps), EndCycle: uint64(16000 * cps)},
	}
	model, err := attrib.Train(&em.Capture{Samples: train, SampleRate: fs, ClockHz: clock},
		spans, attrib.TrainConfig{Names: map[uint16]string{1: "fa", 2: "fb"}})
	if err != nil {
		t.Fatal(err)
	}

	// Test capture: region 1 then region 2, with one dip in each.
	samples := make([]float64, 24000)
	mkRegion(samples, 0, 12000, freqs[1])
	mkRegion(samples, 12000, 24000, freqs[2])
	for j := 0; j < 12; j++ {
		samples[5000+j] = 0.05
		samples[18000+j] = 0.05
	}

	reg := NewRegistry(Config{WindowS: 1e-4, Attrib: model}, nil)
	id, err := reg.CreateSession(CreateOpts{Device: "dev", SampleRate: fs, ClockHz: clock, Config: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := reg.get(id)
	ingestBody(t, reg, s, rawBytes(samples))
	if _, err := reg.Finalize(id); err != nil {
		t.Fatal(err)
	}
	res, err := reg.Store().Query(id, profstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	byRegion := map[uint16]int{}
	stalls := 0
	for _, w := range res.Windows {
		stalls += len(w.Stalls)
		for _, reg := range w.Regions {
			byRegion[reg.Region] += reg.Misses
			if reg.Name == "" {
				t.Fatalf("region %d lost its name", reg.Region)
			}
		}
	}
	if stalls < 2 {
		t.Fatalf("only %d stalls detected", stalls)
	}
	if byRegion[1] == 0 || byRegion[2] == 0 {
		t.Fatalf("stalls not attributed to both regions: %v", byRegion)
	}
	if byRegion[1]+byRegion[2] != stalls {
		t.Fatalf("attributed %d+%d of %d stalls", byRegion[1], byRegion[2], stalls)
	}
}
