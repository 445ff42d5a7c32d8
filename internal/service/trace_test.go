package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emprof/internal/trace"
)

func getTrace(t *testing.T, ts *httptest.Server, id string) (*TraceResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return &tr, resp.StatusCode
}

// TestTraceEndpoint streams a dip-bearing capture into a session and
// checks that GET /v1/sessions/{id}/trace returns the analyzer's decision
// events, reconciling with the profile snapshot.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	capture := testSignal(30000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}

	tr, code := getTrace(t, ts, id)
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	if !tr.Enabled {
		t.Fatal("tracing should be enabled by default")
	}
	if tr.ID != id {
		t.Errorf("trace ID %q, want %q", tr.ID, id)
	}
	counts := map[string]int{}
	for _, rec := range tr.Records {
		counts[rec.Type]++
	}
	if counts[trace.TypeDipCandidate] == 0 {
		t.Error("no dip_candidate events in trace")
	}

	// The snapshot's stall count must match the accepted events (the
	// default ring is far larger than this capture's event count).
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Dropped != 0 {
		t.Errorf("unexpected drops: %d (ring too small for test capture?)", tr.Dropped)
	}
	if got := counts[trace.TypeStallAccepted]; got != len(snap.Profile.Stalls) {
		t.Errorf("trace has %d stall_accepted events, snapshot has %d stalls",
			got, len(snap.Profile.Stalls))
	}
	if counts[trace.TypeStallAccepted] == 0 {
		t.Error("no stalls traced on a dip-bearing capture")
	}

	// Unknown sessions 404.
	if _, code := getTrace(t, ts, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown session trace: HTTP %d, want 404", code)
	}
}

// TestTraceDisabled covers TraceRing < 0: the endpoint stays up but
// reports tracing disabled with no records.
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: -1})
	capture := testSignal(8000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	tr, code := getTrace(t, ts, id)
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	if tr.Enabled || len(tr.Records) != 0 || tr.Total != 0 {
		t.Errorf("disabled trace: got %+v", tr)
	}
}

// TestTraceRingDrops forces a tiny ring and checks the drop accounting.
func TestTraceRingDrops(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: 4})
	capture := testSignal(30000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	tr, _ := getTrace(t, ts, id)
	if len(tr.Records) != 4 {
		t.Errorf("ring of 4 retained %d records", len(tr.Records))
	}
	if tr.Dropped == 0 || tr.Total != tr.Dropped+uint64(len(tr.Records)) {
		t.Errorf("drop accounting off: total %d dropped %d retained %d",
			tr.Total, tr.Dropped, len(tr.Records))
	}
}

// TestMetricsIncludeTrace checks that the shared registry aggregates
// analyzer decision events into the /metrics exposition.
func TestMetricsIncludeTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	capture := testSignal(30000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	// The push analysed its samples before it returned, so the first
	// scrape already aggregates its decisions.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"emprofd_trace_dip_candidates_total",
		"emprofd_trace_stalls_accepted_total",
		"emprofd_trace_stall_depth_bucket",
		"emprofd_trace_stall_depth_sum",
		"emprofd_trace_stall_depth_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(text, "emprofd_trace_stalls_accepted_total 0\n") {
		t.Error("trace aggregator saw no accepted stalls after a dip-bearing ingest")
	}
}
