package emprof_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"emprof"
	"emprof/internal/profstore"
	"emprof/internal/service"
)

// TestContinuousProfilingEndToEnd is the acceptance test for the
// continuous-profiling API: a capture streamed to a windowing daemon
// must serve a rolling window sequence whose merge is bit-identical to
// the batch analysis of the same capture — and the sequence must survive a
// daemon restart when the window store is on disk.
func TestContinuousProfilingEndToEnd(t *testing.T) {
	capture := simCapture(t)
	want := analyze(t, capture, emprof.DefaultConfig())
	// ~10 windows over the capture.
	windowS := float64(len(capture.Samples)) / capture.SampleRate / 10

	dir := t.TempDir()
	store, err := profstore.Open(profstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{WindowS: windowS, Store: store})
	ts := httptest.NewServer(srv.Handler())

	client := emprof.NewClient(ts.URL)
	client.ChunkSamples = len(capture.Samples)/5 + 1
	client.RetryBaseDelay = 1
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{
		SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StreamCapture(ctx, id, capture); err != nil {
		t.Fatal(err)
	}

	// Live query: the already-decided windows are visible mid-session
	// (read-your-writes), stamped with the session's geometry.
	live, err := client.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if live.State != "active" {
		t.Fatalf("live state %q, want active", live.State)
	}
	if live.SampleRate != capture.SampleRate || live.ClockHz != capture.ClockHz {
		t.Fatalf("live metadata %g/%g, want %g/%g", live.SampleRate, live.ClockHz, capture.SampleRate, capture.ClockHz)
	}
	if len(live.Windows) < 5 {
		t.Fatalf("live query returned %d windows, want several", len(live.Windows))
	}

	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("finalize profile differs from batch analysis")
	}

	// The finalized session's full sequence (now ending in the Final
	// window) merges back to the batch profile exactly.
	resp, err := client.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != "detached" {
		t.Fatalf("post-finalize state %q, want detached", resp.State)
	}
	merged, err := emprof.MergeWindows(resp.Windows, capture.SampleRate, capture.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("merged windows differ from batch analysis")
	}

	// Restart: close the daemon and the store, reopen both over the same
	// directory. The windows must still be there, crash-safe, and still
	// merge to the same profile.
	ts.Close()
	srv.Close()
	store2, err := profstore.Open(profstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := service.New(service.Config{WindowS: windowS, Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	client2 := emprof.NewClient(ts2.URL)
	client2.RetryBaseDelay = 1
	resp2, err := client2.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.State != "detached" {
		t.Fatalf("post-restart state %q, want detached", resp2.State)
	}
	if !reflect.DeepEqual(resp2.Windows, resp.Windows) {
		t.Fatal("windows changed across daemon restart")
	}
	merged2, err := emprof.MergeWindows(resp2.Windows, capture.SampleRate, capture.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged2, want) {
		t.Fatal("post-restart merged windows differ from batch analysis")
	}

	// Range query: the second half of the stream, paged two windows at a
	// time through the cursor, walks a suffix of the full sequence.
	half := float64(len(capture.Samples)) / capture.SampleRate / 2
	var ranged []emprof.ProfileWindow
	req := emprof.ProfilesRequest{From: half, Limit: 2}
	for {
		page, err := client2.Profiles(ctx, id, req)
		if err != nil {
			t.Fatal(err)
		}
		ranged = append(ranged, page.Windows...)
		if !page.More {
			break
		}
		req.After, req.HasAfter = page.NextAfter, true
	}
	if len(ranged) == 0 || len(ranged) >= len(resp.Windows) {
		t.Fatalf("range query returned %d of %d windows, want a proper suffix", len(ranged), len(resp.Windows))
	}
	wantSuffix := resp.Windows[len(resp.Windows)-len(ranged):]
	if !reflect.DeepEqual(ranged, wantSuffix) {
		t.Fatal("ranged windows are not the sequence suffix")
	}

	// Cursor at window 0: a Limit-1 first page ends at index 0 with
	// NextAfter 0, and HasAfter must turn that into a real cursor — a
	// bare After of 0 would restart at the front and loop forever.
	page0, err := client2.Profiles(ctx, id, emprof.ProfilesRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(page0.Windows) != 1 || page0.Windows[0].Index != 0 || !page0.More || page0.NextAfter != 0 {
		t.Fatalf("Limit=1 first page %+v, want window 0 with More and NextAfter 0", page0)
	}
	page1, err := client2.Profiles(ctx, id, emprof.ProfilesRequest{Limit: 1, After: page0.NextAfter, HasAfter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Windows) != 1 || page1.Windows[0].Index != 1 {
		t.Fatalf("HasAfter cursor at 0 returned %+v, want window 1", page1.Windows)
	}

	// Unknown session: 404 mapped onto ErrSessionNotFound, not the
	// endpoint sentinel.
	if _, err := client2.Profiles(ctx, "ffffffffffffffffffffffffffffffff", emprof.ProfilesRequest{}); !errors.Is(err, emprof.ErrSessionNotFound) {
		t.Fatalf("unknown session error = %v, want ErrSessionNotFound", err)
	}
}

// TestProfilesNotRetained maps the daemon's 410 — a queried range whose
// windows retention already evicted — onto ErrWindowNotRetained.
func TestProfilesNotRetained(t *testing.T) {
	capture := simCapture(t)
	store, err := profstore.Open(profstore.Options{MaxBytes: 8 << 10, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	windowS := float64(len(capture.Samples)) / capture.SampleRate / 40
	srv := service.New(service.Config{WindowS: windowS, Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	client := emprof.NewClient(ts.URL)
	client.MaxRetries, client.RetryBaseDelay = 2, time.Millisecond
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{SampleRate: capture.SampleRate, ClockHz: capture.ClockHz})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StreamCapture(ctx, id, capture); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Windows) == 0 {
		t.Fatalf("tiny store: truncated=%v windows=%d, want eviction with a retained tail", resp.Truncated, len(resp.Windows))
	}
	first := resp.Windows[0]
	if first.Index == 0 {
		t.Fatal("nothing evicted; cannot probe the 410 path")
	}
	// A range that ends before the oldest retained window is gone for
	// good: 410, ErrWindowNotRetained.
	_, err = client.Profiles(ctx, id, emprof.ProfilesRequest{To: first.StartS / 2})
	if !errors.Is(err, emprof.ErrWindowNotRetained) {
		t.Fatalf("evicted range error = %v, want ErrWindowNotRetained", err)
	}
	var ae *emprof.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGone {
		t.Fatalf("evicted range error = %v, want APIError 410", err)
	}
}

// TestClientOptions exercises the functional construction surface:
// WithHTTPClient and WithUserAgent, plus the retry fields, must shape the
// requests the client sends.
func TestClientOptions(t *testing.T) {
	var gotUA string
	var hits int
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotUA = r.UserAgent()
		hits++
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(probe.Close)

	var transportUsed bool
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		transportUsed = true
		return http.DefaultTransport.RoundTrip(r)
	})}
	client := emprof.NewClient(probe.URL,
		emprof.WithHTTPClient(hc),
		emprof.WithUserAgent("emprof-test/1.0"),
	)
	client.MaxRetries, client.RetryBaseDelay = 2, time.Millisecond
	_, err := client.ListSessions(context.Background())
	if !errors.Is(err, emprof.ErrRetriesExhausted) {
		t.Fatalf("error = %v, want ErrRetriesExhausted", err)
	}
	if !transportUsed {
		t.Fatal("WithHTTPClient transport not used")
	}
	if gotUA != "emprof-test/1.0" {
		t.Fatalf("User-Agent %q, want emprof-test/1.0", gotUA)
	}
	if hits != 3 {
		t.Fatalf("%d attempts with MaxRetries 2, want 3", hits)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
