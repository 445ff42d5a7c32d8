package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// JSONL writes one JSON object per event to an underlying writer — the
// sink behind `emprof -trace out.jsonl`. Writes are buffered; call Flush
// before reading the output. The first write error is sticky: later
// events are dropped and Err reports it. Safe for concurrent use.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Flush writes buffered events through to the underlying writer and
// returns the sticky error, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = j.w.Flush()
	}
	return j.err
}

// Err returns the first write error encountered, or nil.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Observe writes the record as one JSON line.
func (j *JSONL) Observe(r Record) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(r)
	}
	j.mu.Unlock()
}

// Ring keeps the most recent events in a fixed-capacity circular buffer
// — the per-session sink behind emprofd's GET /v1/sessions/{id}/trace.
// When full, the oldest event is overwritten and counted as dropped.
// Safe for concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []Record
	next  int // write index
	total uint64
}

// NewRing returns a Ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Record, 0, capacity)}
}

// Records returns the retained events, oldest first.
func (r *Ring) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total returns how many events were ever observed, retained or not.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events were overwritten by newer ones.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Observe retains the record, overwriting the oldest when full.
func (r *Ring) Observe(rec Record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// DepthBuckets is the number of dip-depth histogram buckets in Metrics,
// evenly dividing the normalised depth range [0, 1).
const DepthBuckets = 10

// stageStat accumulates wall time and coverage for one pipeline stage.
type stageStat struct {
	ns      int64
	samples int64
}

// Metrics aggregates decision events into counters and histograms
// suitable for Prometheus exposition — the shared aggregator behind
// emprofd's /v1/metrics and embench's observer guard. Safe for concurrent
// use.
type Metrics struct {
	mu         sync.Mutex
	candidates uint64
	accepted   uint64
	refresh    uint64
	rejected   map[RejectReason]uint64
	resyncs    map[ResyncCause]uint64
	flagged    [5]uint64 // indexed by flag bit position: nan, gap, clip, burst, step
	depthHist  [DepthBuckets]uint64
	depthSum   float64
	stages     map[Stage]*stageStat
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		rejected: make(map[RejectReason]uint64),
		resyncs:  make(map[ResyncCause]uint64),
		stages:   make(map[Stage]*stageStat),
	}
}

// Observe folds the record into the aggregates.
func (m *Metrics) Observe(r Record) {
	m.mu.Lock()
	switch r.Type {
	case TypeDipCandidate:
		m.candidates++
	case TypeStallAccepted:
		m.accepted++
		if r.Refresh {
			m.refresh++
		}
		b := int(r.Depth * DepthBuckets)
		if b < 0 {
			b = 0
		}
		if b >= DepthBuckets {
			b = DepthBuckets - 1
		}
		m.depthHist[b]++
		m.depthSum += r.Depth
	case TypeStallRejected:
		m.rejected[r.Reason]++
	case TypeResync:
		m.resyncs[r.Cause]++
	case TypeQualityFlag:
		// Count the flagged sample and any retroactively flagged
		// neighbours under each class the record carries.
		n := uint64(1 + r.Retro)
		for bit := 0; bit < len(m.flagged); bit++ {
			if r.Flags&(1<<bit) != 0 {
				m.flagged[bit] += n
			}
		}
	case TypeStageTiming:
		s := m.stages[r.Stage]
		if s == nil {
			s = &stageStat{}
			m.stages[r.Stage] = s
		}
		s.ns += r.DurationNs
		s.samples += r.Samples
	}
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the aggregated metrics.
type Snapshot struct {
	DipCandidates  uint64
	StallsAccepted uint64
	RefreshStalls  uint64
	Rejected       map[RejectReason]uint64
	Resyncs        map[ResyncCause]uint64
	FlaggedSamples map[string]uint64
	DepthHist      [DepthBuckets]uint64
	DepthSum       float64
	StageNs        map[Stage]int64
}

// Snapshot returns a copy of the current aggregate state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		DipCandidates:  m.candidates,
		StallsAccepted: m.accepted,
		RefreshStalls:  m.refresh,
		DepthHist:      m.depthHist,
		DepthSum:       m.depthSum,
		Rejected:       make(map[RejectReason]uint64, len(m.rejected)),
		Resyncs:        make(map[ResyncCause]uint64, len(m.resyncs)),
		FlaggedSamples: make(map[string]uint64),
		StageNs:        make(map[Stage]int64, len(m.stages)),
	}
	for k, v := range m.rejected {
		s.Rejected[k] = v
	}
	for k, v := range m.resyncs {
		s.Resyncs[k] = v
	}
	for bit, n := range m.flagged {
		if n > 0 {
			s.FlaggedSamples[Flag(1<<bit).String()] = n
		}
	}
	for k, v := range m.stages {
		s.StageNs[k] = v.ns
	}
	return s
}

// WritePrometheus renders the aggregate state in Prometheus text
// exposition format, prefixing every metric name (e.g. "emprofd_trace").
func (m *Metrics) WritePrometheus(w io.Writer, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s_dip_candidates_total Dips opened by the detector.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_dip_candidates_total counter\n", prefix)
	fmt.Fprintf(w, "%s_dip_candidates_total %d\n", prefix, m.candidates)

	fmt.Fprintf(w, "# HELP %s_stalls_accepted_total Dips reported as stalls.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_stalls_accepted_total counter\n", prefix)
	fmt.Fprintf(w, "%s_stalls_accepted_total %d\n", prefix, m.accepted)

	fmt.Fprintf(w, "# HELP %s_refresh_stalls_total Accepted stalls coinciding with DRAM refresh.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_refresh_stalls_total counter\n", prefix)
	fmt.Fprintf(w, "%s_refresh_stalls_total %d\n", prefix, m.refresh)

	fmt.Fprintf(w, "# HELP %s_stalls_rejected_total Candidate dips discarded, by reason.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_stalls_rejected_total counter\n", prefix)
	for _, k := range sortedKeys(m.rejected) {
		fmt.Fprintf(w, "%s_stalls_rejected_total{reason=%q} %d\n", prefix, k, m.rejected[RejectReason(k)])
	}

	fmt.Fprintf(w, "# HELP %s_resyncs_total Normalization re-seeds, by cause.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_resyncs_total counter\n", prefix)
	for _, k := range sortedKeys(m.resyncs) {
		fmt.Fprintf(w, "%s_resyncs_total{cause=%q} %d\n", prefix, k, m.resyncs[ResyncCause(k)])
	}

	fmt.Fprintf(w, "# HELP %s_flagged_samples_total Samples flagged by the quality monitor, by class.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_flagged_samples_total counter\n", prefix)
	for bit, n := range m.flagged {
		if n > 0 {
			fmt.Fprintf(w, "%s_flagged_samples_total{class=%q} %d\n", prefix, Flag(1<<bit).String(), n)
		}
	}

	fmt.Fprintf(w, "# HELP %s_stall_depth Dip depth of accepted stalls (normalized magnitude).\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_stall_depth histogram\n", prefix)
	var cum uint64
	for i := 0; i < DepthBuckets; i++ {
		cum += m.depthHist[i]
		fmt.Fprintf(w, "%s_stall_depth_bucket{le=\"%.1f\"} %d\n", prefix, float64(i+1)/DepthBuckets, cum)
	}
	fmt.Fprintf(w, "%s_stall_depth_bucket{le=\"+Inf\"} %d\n", prefix, cum)
	fmt.Fprintf(w, "%s_stall_depth_sum %g\n", prefix, m.depthSum)
	fmt.Fprintf(w, "%s_stall_depth_count %d\n", prefix, m.accepted)

	fmt.Fprintf(w, "# HELP %s_stage_ns_total Analyzer stage wall time in nanoseconds.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_stage_ns_total counter\n", prefix)
	stageKeys := make([]string, 0, len(m.stages))
	for k := range m.stages {
		stageKeys = append(stageKeys, string(k))
	}
	sort.Strings(stageKeys)
	for _, k := range stageKeys {
		s := m.stages[Stage(k)]
		fmt.Fprintf(w, "%s_stage_ns_total{stage=%q} %d\n", prefix, k, s.ns)
	}
	fmt.Fprintf(w, "# HELP %s_stage_samples_total Capture samples covered per analyzer stage.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_stage_samples_total counter\n", prefix)
	for _, k := range stageKeys {
		s := m.stages[Stage(k)]
		fmt.Fprintf(w, "%s_stage_samples_total{stage=%q} %d\n", prefix, k, s.samples)
	}
}

// sortedKeys returns the map's string keys in sorted order.
func sortedKeys[K ~string, V any](m map[K]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}
