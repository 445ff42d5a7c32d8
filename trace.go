package emprof

import (
	"io"

	"emprof/internal/trace"
)

// This file exposes the decision-trace observability layer
// (internal/trace): attach an Observer with WithObserver (or
// StreamAnalyzer.SetObserver) to receive one typed event per analyzer
// decision — dip candidates, accepted and rejected stalls with reasons,
// normalisation resyncs, quality flags, and stage timings. Observers
// never change the produced Profile, and analysis without one runs on the
// original allocation-free path.

// Observer receives analyzer decision events; see the trace package for
// the event taxonomy. An implementation shared across concurrent Runs
// (or daemon sessions) must be safe for concurrent use — every sink
// below is.
// Embed NopObserver to implement only the events of interest.
type Observer = trace.Observer

// NopObserver ignores every event; embed it in partial Observer
// implementations.
type NopObserver = trace.Nop

// TraceRecord is the flat serialisable form of one decision event — the
// unit written by the JSONL sink, retained by the ring sink, and served
// by emprofd's GET /v1/sessions/{id}/trace.
type TraceRecord = trace.Record

// Event payload types, for custom Observer implementations.
type (
	// DipCandidateEvent: the normalised signal crossed the entry
	// threshold and a dip opened.
	DipCandidateEvent = trace.DipCandidate
	// StallAcceptedEvent: a dip passed the duration and depth criteria
	// and was reported as a stall.
	StallAcceptedEvent = trace.StallAccepted
	// StallRejectedEvent: a candidate dip was discarded (too short, too
	// shallow, or overlapping an acquisition impairment).
	StallRejectedEvent = trace.StallRejected
	// ResyncEvent: the normalisation min/max state was re-seeded after a
	// gap or receiver gain step.
	ResyncEvent = trace.Resync
	// QualityFlagEvent: the signal-quality monitor flagged a sample.
	QualityFlagEvent = trace.QualityFlag
	// StageTimingEvent: wall time of one pipeline stage (measured only
	// while tracing).
	StageTimingEvent = trace.StageTiming
)

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
