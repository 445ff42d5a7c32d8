package emprof

import (
	"io"

	"emprof/internal/trace"
)

// This file exposes the decision-trace observability layer
// (internal/trace): attach an Observer with WithObserver (or
// StreamAnalyzer.SetObserver) to receive one TraceRecord per analyzer
// decision — dip candidates, accepted and rejected stalls with reasons,
// normalisation resyncs, quality flags, and stage timings. Observers
// never change the produced Profile, and analysis without one runs on the
// original allocation-free path.

// Observer receives analyzer decision events through its one method,
// Observe(TraceRecord); the record's Type says which decision it is (see
// the trace package for the event taxonomy). An implementation shared
// across concurrent Runs (or daemon sessions) must be safe for
// concurrent use — every sink below is.
type Observer = trace.Observer

// NopObserver ignores every event — the baseline for observer-overhead
// measurements.
type NopObserver = trace.Nop

// TraceRecord is one decision event: the value every Observer receives,
// the unit written by the JSONL sink, retained by the ring sink, and
// served by emprofd's GET /v1/sessions/{id}/trace.
type TraceRecord = trace.Record

// TraceJSONL writes one JSON object per decision event to a writer; the
// sink behind `emprof -trace out.jsonl`. Call Flush before reading the
// output.
type TraceJSONL = trace.JSONL

// NewTraceJSONL returns a JSONL trace sink writing to w.
func NewTraceJSONL(w io.Writer) *TraceJSONL { return trace.NewJSONL(w) }

// TraceRing retains the most recent decision events in memory — the
// per-session sink emprofd serves at GET /v1/sessions/{id}/trace.
type TraceRing = trace.Ring

// NewTraceRing returns a ring sink holding up to capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// TraceMetrics aggregates decision events into counters and histograms
// (stalls by reject reason, dip-depth distribution, resync causes,
// per-stage wall time) and can render them in Prometheus text format.
type TraceMetrics = trace.Metrics

// NewTraceMetrics returns an empty trace-metrics aggregator.
func NewTraceMetrics() *TraceMetrics { return trace.NewMetrics() }

// MultiObserver fans every event out to each observer in order; nil
// entries are dropped, and combining nothing yields nil (tracing off).
func MultiObserver(obs ...Observer) Observer { return trace.Multi(obs...) }
