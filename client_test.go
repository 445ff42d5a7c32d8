package emprof_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"emprof"
	"emprof/internal/service"
)

// startDaemon spins up an in-process emprofd (the exact handler
// cmd/emprofd serves) behind httptest.
func startDaemon(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// simCapture simulates a real microbenchmark capture on the Olimex
// model — the same signal an emsim run would stream at a daemon.
func simCapture(t *testing.T) *emprof.Capture {
	t.Helper()
	wl, err := emprof.Microbenchmark(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), wl, emprof.CaptureOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return run.Capture
}

// TestClientEndToEnd is the acceptance test for the profiling service: a
// simulated capture streamed to the daemon in several chunks must yield,
// on finalize, a profile bit-identical to the batch analysis of the same
// capture; the mid-stream snapshot must be causal.
func TestClientEndToEnd(t *testing.T) {
	capture := simCapture(t)
	want := analyze(t, capture, emprof.DefaultConfig())
	if len(want.Stalls) < 10 {
		t.Fatalf("capture yields only %d stalls; weak test", len(want.Stalls))
	}

	_, ts := startDaemon(t, service.Config{})
	client := emprof.NewClient(ts.URL)
	// Force many upload requests: at least ceil(n/chunk) >= 3 chunks.
	client.ChunkSamples = len(capture.Samples)/5 + 1

	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{
		SampleRate: capture.SampleRate,
		ClockHz:    capture.ClockHz,
		Device:     "olimex",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stream the first three chunks, snapshot, then the rest.
	cut := 3 * client.ChunkSamples
	if cut > len(capture.Samples) {
		t.Fatal("capture too short for the chunking under test")
	}
	head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	tail := &emprof.Capture{Samples: capture.Samples[cut:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	if err := client.StreamCapture(ctx, id, head); err != nil {
		t.Fatal(err)
	}
	snap, err := client.Profile(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != int64(cut) {
		t.Fatalf("mid-stream ingested %d, want %d", snap.SamplesIngested, cut)
	}
	if snap.SamplesDecided > snap.SamplesIngested {
		t.Fatalf("decided %d ahead of ingested %d", snap.SamplesDecided, snap.SamplesIngested)
	}
	for _, st := range snap.Profile.Stalls {
		if int64(st.EndSample) > snap.SamplesDecided {
			t.Fatalf("non-causal stall: ends at %d with %d decided", st.EndSample, snap.SamplesDecided)
		}
	}

	if err := client.StreamCapture(ctx, id, tail); err != nil {
		t.Fatal(err)
	}
	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical through the service, the streaming pipeline, and the
	// JSON round trip (Go marshals float64 at full round-trip precision).
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed profile differs from batch analysis:\n got: misses=%d stalls=%d cycles=%v\nwant: misses=%d stalls=%d cycles=%v",
			got.Misses, len(got.Stalls), got.StallCycles, want.Misses, len(want.Stalls), want.StallCycles)
	}
	// Mid-stream stalls were a prefix of the final list.
	if n := len(snap.Profile.Stalls); n > 0 && !reflect.DeepEqual(snap.Profile.Stalls, got.Stalls[:n]) {
		t.Fatal("mid-stream snapshot is not a prefix of the final profile")
	}

	// The session is gone after finalize.
	if _, err := client.Profile(ctx, id); err == nil {
		t.Fatal("finalized session still reachable")
	}
	list, err := client.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("%d sessions left after finalize", len(list))
	}
}

// TestClientRetriesBackpressure checks the retry/backoff path: a daemon
// that answers 429 a few times before accepting must not surface an
// error, the push must land exactly once, and non-transient failures
// must not be retried.
func TestClientRetriesBackpressure(t *testing.T) {
	var rejects atomic.Int32
	rejects.Store(2)
	_, ts := startDaemon(t, service.Config{})
	// Front the daemon with a shim that rejects the first two ingests.
	inner := ts.Client()
	shim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/samples") && rejects.Add(-1) >= 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"full"}`))
			return
		}
		req, err := http.NewRequest(r.Method, ts.URL+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		req.Header = r.Header
		resp, err := inner.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				break
			}
		}
	}))
	defer shim.Close()

	client := emprof.NewClient(shim.URL)
	client.RetryBaseDelay = 1 // keep the test fast
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{SampleRate: 40e6, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushSamplesAt(ctx, id, 0, make([]float64, 100)); err != nil {
		t.Fatalf("push through transient 429s: %v", err)
	}
	snap, err := client.Profile(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 100 {
		t.Fatalf("ingested %d after retries, want exactly 100 (no double-count)", snap.SamplesIngested)
	}

	// A 404 is terminal: no retry loop, immediate error, and it matches
	// the exported sentinel through errors.Is/As.
	_, err = client.Profile(ctx, "doesnotexist")
	if err == nil {
		t.Fatal("profile of unknown session succeeded")
	}
	if !errors.Is(err, emprof.ErrSessionNotFound) {
		t.Fatalf("want ErrSessionNotFound, got %v", err)
	}
	var ae *emprof.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("want APIError 404, got %v", err)
	}
	if errors.Is(err, emprof.ErrBadCapture) {
		t.Fatalf("404 must not match ErrBadCapture: %v", err)
	}
}

// TestClientRetriesRouterStatuses checks that a push rides out the
// statuses a fleet router emits for transient shard trouble — 502 (shard
// unreachable), 503 (session pinned mid-hand-off) and 504 (shard
// connection failed mid-request) — and a connection severed after the
// body landed, and that it lands exactly once: the retries carry the
// push's offset, so the daemon skips what it already ingested.
func TestClientRetriesRouterStatuses(t *testing.T) {
	_, ts := startDaemon(t, service.Config{})
	inner := ts.Client()
	codes := []int{http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout}
	var hits atomic.Int32
	shim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := -1
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/samples") {
			if n = int(hits.Add(1)) - 1; n < len(codes) {
				w.WriteHeader(codes[n])
				w.Write([]byte(`{"error":"shard unavailable"}`))
				return
			}
		}
		req, err := http.NewRequest(r.Method, ts.URL+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		req.Header = r.Header
		resp, err := inner.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		if n == len(codes) {
			// The body landed; sever the connection before the answer.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				break
			}
		}
	}))
	defer shim.Close()

	client := emprof.NewClient(shim.URL)
	client.RetryBaseDelay = 1
	client.MaxRetries = 6
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{SampleRate: 40e6, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushSamplesAt(ctx, id, 0, make([]float64, 64)); err != nil {
		t.Fatalf("push through 502/503/504 and a severed connection: %v", err)
	}
	if got := hits.Load(); got != 5 {
		t.Fatalf("push took %d attempts, want 5 (502, 503, 504, severed, success)", got)
	}
	snap, err := client.Profile(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SamplesIngested != 64 {
		t.Fatalf("ingested %d after retries, want exactly 64", snap.SamplesIngested)
	}
}

// TestClient504Semantics pins the client's side of the router's 504: a
// shard connection failed mid-request and the shard may have ingested a
// prefix of the body. A push is offset-tagged, so it retries a 504 like
// any transient status — a one-off 504 is ridden out, and a persistent
// one exhausts the retry budget.
func TestClient504Semantics(t *testing.T) {
	var hits, fail atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if fail.Add(-1) >= 0 {
			w.WriteHeader(http.StatusGatewayTimeout)
			w.Write([]byte(`{"error":"fleet: shard unreachable mid-request"}`))
			return
		}
		w.Write([]byte(`{"samples_ingested":8,"bytes_ingested":64}`))
	}))
	defer ts.Close()
	client := emprof.NewClient(ts.URL)
	client.RetryBaseDelay = 1
	client.MaxRetries = 3
	ctx := context.Background()

	fail.Store(1)
	res, err := client.PushSamplesAt(ctx, "abc", 0, make([]float64, 8))
	if err != nil || res.SamplesIngested != 8 {
		t.Fatalf("tagged push after one 504: %+v, %v", res, err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("tagged push attempted %d times after one 504, want 2", got)
	}

	hits.Store(0)
	fail.Store(1 << 20)
	if _, err := client.PushSamplesAt(ctx, "abc", 0, make([]float64, 8)); !errors.Is(err, emprof.ErrRetriesExhausted) {
		t.Fatalf("tagged push on persistent 504: %v, want ErrRetriesExhausted", err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("tagged push attempted %d times on 504, want 4 (initial + 3 retries)", got)
	}
}

// TestClientTrace streams a capture and fetches the session's decision
// trace: the accepted-stall events must reconcile with the final profile.
func TestClientTrace(t *testing.T) {
	capture := simCapture(t)
	_, ts := startDaemon(t, service.Config{})
	client := emprof.NewClient(ts.URL)
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
	// The trace is causal, like the snapshot: both reflect what the
	// pipeline has decided so far, so their stall counts must agree.
	snap, err := client.Profile(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := client.Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Enabled {
		t.Fatal("daemon tracing should be enabled by default")
	}
	prof, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, rec := range tr.Records {
		if rec.Type == "stall_accepted" {
			accepted++
		}
	}
	if accepted == 0 || accepted != len(snap.Profile.Stalls) {
		t.Errorf("trace has %d stall_accepted events, snapshot has %d stalls",
			accepted, len(snap.Profile.Stalls))
	}
	// Finalize drains the detector's lookahead tail, so the final profile
	// can only add stalls past the traced ones.
	if accepted > len(prof.Stalls) {
		t.Errorf("trace has %d stall_accepted events, final profile only %d stalls",
			accepted, len(prof.Stalls))
	}

	if _, err := client.Trace(ctx, id); !errors.Is(err, emprof.ErrSessionNotFound) {
		t.Errorf("trace of finalized session: got %v, want ErrSessionNotFound", err)
	}
}

// TestClientOldDaemon fronts the daemon with a facade serving exactly the
// first emprofd release's route table — session routes under /v1, no
// per-session trace endpoint — and checks that Trace surfaces a distinct
// ErrUnsupportedEndpoint (the mux's plain-text 404) without disturbing
// any other call on the same client.
func TestClientOldDaemon(t *testing.T) {
	capture := simCapture(t)
	want := analyze(t, capture, emprof.DefaultConfig())
	srv, _ := startDaemon(t, service.Config{})
	inner := srv.Handler()
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			// The endpoint postdates this daemon: its mux answers with a
			// bare plain-text 404, no service error body.
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer old.Close()

	client := emprof.NewClient(old.URL)
	ctx := context.Background()
	id, err := client.CreateSession(ctx, emprof.SessionSpec{
		SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
	})
	if err != nil {
		t.Fatalf("create against old daemon: %v", err)
	}
	if err := client.StreamCapture(ctx, id, capture); err != nil {
		t.Fatal(err)
	}

	// Trace against a daemon that predates the endpoint: the body-less
	// 404 means "route absent", not "session gone".
	_, terr := client.Trace(ctx, id)
	if !errors.Is(terr, emprof.ErrUnsupportedEndpoint) {
		t.Fatalf("trace on old daemon: got %v, want ErrUnsupportedEndpoint", terr)
	}
	if errors.Is(terr, emprof.ErrSessionNotFound) {
		t.Fatalf("trace on old daemon must not read as a missing session: %v", terr)
	}

	// The failed Trace must leave the client untouched: the session is
	// still addressable on /v1 and finalizes to the batch result.
	if _, err := client.Profile(ctx, id); err != nil {
		t.Fatalf("profile after unsupported trace: %v", err)
	}
	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatalf("finalize after unsupported trace: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("profile via old daemon differs from batch analysis")
	}

	// A genuine 404 (the service's JSON error body on an existing route)
	// still reads as a missing session, not an unsupported endpoint.
	_, err = client.Profile(ctx, id)
	if !errors.Is(err, emprof.ErrSessionNotFound) {
		t.Fatalf("finalized session: got %v, want ErrSessionNotFound", err)
	}
	if errors.Is(err, emprof.ErrUnsupportedEndpoint) {
		t.Fatalf("service 404 must not read as unsupported endpoint: %v", err)
	}
}
