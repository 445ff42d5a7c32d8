package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"emprof/internal/profstore"
	"emprof/internal/trace"
	"emprof/internal/version"
)

// Metrics aggregates the service's operational counters and renders them
// in the Prometheus text exposition format (stdlib only — no client
// library in the image, and the format is four line shapes).
type Metrics struct {
	SessionsTotal     atomic.Int64
	SessionsFinalized atomic.Int64
	SessionsGC        atomic.Int64
	SessionsRejected  atomic.Int64
	SessionsExported  atomic.Int64
	SessionsImported  atomic.Int64
	SamplesIngested   atomic.Int64
	IngestBytes       atomic.Int64
	StallsDetected    atomic.Int64
	// WindowsSealed counts rolling profile windows persisted to the
	// window store; WindowsDropped counts sealed windows the store
	// failed to persist (Append errors — profile history lost to a sick
	// disk, invisible except here and in the log).
	WindowsSealed  atomic.Int64
	WindowsDropped atomic.Int64

	// Trace aggregates the decision-trace events of every session's
	// analyzer (stalls by reject reason, dip-depth distribution, resync
	// causes, flagged samples); rendered under the emprofd_trace_ prefix.
	// The same aggregator type backs embench's observer-overhead guard.
	Trace *trace.Metrics

	mu        sync.Mutex
	endpoints map[endpointKey]*endpointStats
}

type endpointKey struct {
	endpoint string
	code     int
}

type endpointStats struct {
	count      int64
	durSeconds float64
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{
		Trace:     trace.NewMetrics(),
		endpoints: make(map[endpointKey]*endpointStats),
	}
}

// ObserveRequest records one served request: its endpoint label, status
// code, and wall-clock duration in seconds.
func (m *Metrics) ObserveRequest(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := endpointKey{endpoint, code}
	st := m.endpoints[k]
	if st == nil {
		st = &endpointStats{}
		m.endpoints[k] = st
	}
	st.count++
	st.durSeconds += seconds
}

// WriteTo renders the metrics in Prometheus text format. activeSessions
// is sampled by the caller (it lives in the registry, not the sink).
func (m *Metrics) WriteTo(w io.Writer, activeSessions int) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP emprofd_build_info Build metadata.\n# TYPE emprofd_build_info gauge\nemprofd_build_info{version=%q} 1\n", version.Version)
	gauge("emprofd_sessions_active", "Sessions currently open.", int64(activeSessions))
	counter("emprofd_sessions_total", "Sessions ever created.", m.SessionsTotal.Load())
	counter("emprofd_sessions_finalized_total", "Sessions finalized by clients or shutdown.", m.SessionsFinalized.Load())
	counter("emprofd_sessions_gc_total", "Idle sessions collected by the TTL sweeper.", m.SessionsGC.Load())
	counter("emprofd_sessions_rejected_total", "Session creates rejected by the max-session cap.", m.SessionsRejected.Load())
	counter("emprofd_sessions_exported_total", "Sessions exported for hand-off to another shard.", m.SessionsExported.Load())
	counter("emprofd_sessions_imported_total", "Sessions imported mid-stream from another shard.", m.SessionsImported.Load())
	counter("emprofd_samples_ingested_total", "EM samples decoded into analyzers.", m.SamplesIngested.Load())
	counter("emprofd_ingest_bytes_total", "Capture bytes accepted for ingest.", m.IngestBytes.Load())
	counter("emprofd_stalls_detected_total", "LLC-miss stalls detected across all sessions.", m.StallsDetected.Load())
	counter("emprofd_windows_sealed_total", "Rolling profile windows sealed and persisted.", m.WindowsSealed.Load())
	counter("emprofd_windows_dropped_total", "Sealed windows lost to window-store append failures.", m.WindowsDropped.Load())

	m.mu.Lock()
	keys := make([]endpointKey, 0, len(m.endpoints))
	for k := range m.endpoints {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	type row struct {
		k endpointKey
		s endpointStats
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, *m.endpoints[k]})
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP emprofd_http_requests_total Requests served, by endpoint and status code.\n# TYPE emprofd_http_requests_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "emprofd_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", r.k.endpoint, r.k.code, r.s.count)
	}
	// Aggregate latency per endpoint across status codes.
	type agg struct {
		count int64
		sum   float64
	}
	byEndpoint := map[string]*agg{}
	var order []string
	for _, r := range rows {
		a := byEndpoint[r.k.endpoint]
		if a == nil {
			a = &agg{}
			byEndpoint[r.k.endpoint] = a
			order = append(order, r.k.endpoint)
		}
		a.count += r.s.count
		a.sum += r.s.durSeconds
	}
	fmt.Fprintf(w, "# HELP emprofd_http_request_duration_seconds Cumulative request wall time, by endpoint.\n# TYPE emprofd_http_request_duration_seconds summary\n")
	for _, ep := range order {
		a := byEndpoint[ep]
		fmt.Fprintf(w, "emprofd_http_request_duration_seconds_sum{endpoint=%q} %g\n", ep, a.sum)
		fmt.Fprintf(w, "emprofd_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, a.count)
	}

	if m.Trace != nil {
		m.Trace.WritePrometheus(w, "emprofd_trace")
	}
}

// WriteStoreStats renders the window store's footprint; the caller
// samples the stats (the store lives in the registry, not the sink).
func (m *Metrics) WriteStoreStats(w io.Writer, st profstore.Stats) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("emprofd_profstore_segments", "Window store segment files (or memory segments).", int64(st.Segments))
	gauge("emprofd_profstore_bytes", "Window store framed payload bytes retained.", st.Bytes)
	gauge("emprofd_profstore_sessions", "Sessions with retained windows.", int64(st.Sessions))
	fmt.Fprintf(w, "# HELP emprofd_profstore_evictions_total Segments evicted by retention.\n# TYPE emprofd_profstore_evictions_total counter\nemprofd_profstore_evictions_total %d\n", st.Evictions)
}
