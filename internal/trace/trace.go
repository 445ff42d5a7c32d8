// Package trace is the decision-trace observability layer of the EMPROF
// analyzers: every reported (or suppressed) stall is the outcome of a
// chain of analyzer decisions — a dip candidate opened, a duration or
// depth threshold compared, a normalisation resync fired, a confidence
// assigned — and this package makes that chain observable without
// perturbing it.
//
// An Observer receives one by-value Record per decision point; the
// record's Type says which decision it is and which of its fields apply.
// The analyzers in internal/core emit records only when an observer is
// attached: with a nil observer the pipeline takes its original path,
// bit-identical in output and allocation-free on the per-sample hot path
// (asserted by tests and the CI benchmark guard). Attaching any observer
// never changes the produced Profile — observers receive copies and
// cannot write back.
//
// Three ready-made sinks cover the common deployments:
//
//   - JSONL writes one JSON object per event to an io.Writer
//     (`emprof -trace out.jsonl`).
//   - Ring keeps the last N events in memory; emprofd exposes one per
//     session at GET /v1/sessions/{id}/trace.
//   - Metrics aggregates events into counters and histograms (stalls by
//     reject reason, dip-depth distribution, resyncs by cause, per-stage
//     wall time) rendered in Prometheus text format alongside the
//     service registry.
//
// Sinks may be combined with Multi. One analysis emits from a single
// goroutine, but one sink is often shared: by concurrent runs of one
// analyzer, or by every session of a daemon (its trace metrics). All
// sinks in this package are safe for concurrent use, and a custom
// Observer shared that way must be equally safe.
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Flag marks the impairment classes a sample belongs to, as detected by
// the analyzers' signal-quality monitor. The bit layout is shared with
// internal/core's per-sample mask.
type Flag uint8

const (
	// FlagNaN marks a non-finite (NaN/±Inf) sample.
	FlagNaN Flag = 1 << iota
	// FlagGap marks an exact-zero sample (digitizer dropout).
	FlagGap
	// FlagClip marks a flat-lined sample at the top of the range (ADC
	// saturation).
	FlagClip
	// FlagBurst marks an impulsive spike far above the busy level.
	FlagBurst
	// FlagStep marks a sample inside a confirmed receiver gain-step
	// transition region.
	FlagStep
)

// flagNames names each flag bit, in rendering order.
var flagNames = [...]struct {
	bit  Flag
	name string
}{
	{FlagNaN, "nan"}, {FlagGap, "gap"}, {FlagClip, "clip"},
	{FlagBurst, "burst"}, {FlagStep, "step"},
}

// String renders the flag set as a "|"-joined list, e.g. "gap|step".
func (f Flag) String() string {
	if f == 0 {
		return "none"
	}
	out := ""
	for _, n := range flagNames {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// MarshalText renders the flag set as String does, so JSON carries
// "gap|step" rather than a bit mask.
func (f Flag) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses the String form; an unknown class name is an
// error.
func (f *Flag) UnmarshalText(text []byte) error {
	*f = 0
	if string(text) == "none" {
		return nil
	}
	for _, name := range strings.Split(string(text), "|") {
		bit := Flag(0)
		for _, n := range flagNames {
			if n.name == name {
				bit = n.bit
			}
		}
		if bit == 0 {
			return fmt.Errorf("trace: unknown flag %q", name)
		}
		*f |= bit
	}
	return nil
}

// RejectReason says why a candidate dip was not reported as a stall.
type RejectReason string

const (
	// RejectTooShort: the dip closed before reaching the minimum stall
	// duration (Config.MinStallS).
	RejectTooShort RejectReason = "too-short"
	// RejectTooShallow: the dip never reached the depth floor required
	// for its duration class (Config.MaxDipDepth / MaxDipDepthLong).
	RejectTooShallow RejectReason = "too-shallow"
	// RejectImpaired: a structural acquisition impairment (gap, clip,
	// gain step) overlapped the dip, which was aborted rather than risk
	// reporting a phantom stall.
	RejectImpaired RejectReason = "impaired"
)

// ResyncCause says why the normalisation min/max state was re-seeded.
type ResyncCause string

const (
	// ResyncGap: a long zero-filled dropout ended and the coupling may
	// have moved while the monitor was blind.
	ResyncGap ResyncCause = "gap"
	// ResyncGainStep: a sustained receiver gain discontinuity was
	// confirmed.
	ResyncGainStep ResyncCause = "gain-step"
	// ResyncProbeShift: the opt-in probe-shift detector (see the core
	// config's ProbeShiftRatio) confirmed a sustained level shift smaller
	// than a gain step — typically the probe moving mid-capture.
	ResyncProbeShift ResyncCause = "probe_shift"
)

// Stage labels one pipeline stage in a stage_timing record.
type Stage string

const (
	// StageScan is the sequential quality-monitor + smoothing pass.
	StageScan Stage = "scan"
	// StageNormalize is the moving min/max normalisation pass.
	StageNormalize Stage = "normalize"
	// StageDetect is the dip-detection pass over normalised values.
	StageDetect Stage = "detect"
)

// Observer receives analyzer decision events, one Record per decision.
// Records are delivered by value and synchronously from the analysis
// path, so implementations should be cheap; all sinks in this package
// are. Implementations shared across concurrent analyses (runs of one
// analyzer, daemon sessions) must be safe for concurrent use.
type Observer interface {
	Observe(Record)
}

// Nop is an Observer that ignores every event — the baseline for
// observer-overhead benchmarks.
type Nop struct{}

func (Nop) Observe(Record) {}

// multi fans events out to several observers in order.
type multi []Observer

// Multi combines observers into one that delivers every event to each,
// in argument order. Nil entries are dropped; Multi() of nothing (or of
// only nils) returns nil, the analyzers' "off" value.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

func (m multi) Observe(r Record) {
	for _, o := range m {
		o.Observe(r)
	}
}

// Event types, the Type of a Record.
const (
	// TypeDipCandidate: the normalised signal fell below the entry
	// threshold and a dip opened at Pos with normalised magnitude Value;
	// Lo and Hi are the moving min/max stats in force at entry. Every
	// candidate is later resolved by exactly one stall_accepted or
	// stall_rejected record.
	TypeDipCandidate = "dip_candidate"
	// TypeStallAccepted: a dip passed the duration and depth criteria
	// and was reported as a stall; its fields mirror core.Stall.
	TypeStallAccepted = "stall_accepted"
	// TypeStallRejected: a candidate dip was discarded for Reason; End
	// is the position at which it was discarded.
	TypeStallRejected = "stall_rejected"
	// TypeResync: the quality monitor re-seeded the normalisation
	// min/max state before Pos, for Cause.
	TypeResync = "resync"
	// TypeQualityFlag: the quality monitor flagged the sample at Pos
	// with Flags. Retro counts immediately preceding samples that
	// retroactively received the same flags (clip runs and gain-step
	// half-windows); no separate records are emitted for those.
	TypeQualityFlag = "quality_flag"
	// TypeStageTiming: the wall time of one pipeline stage over a traced
	// run. Timings are only measured when an observer is attached, so the
	// nil-observer path never reads the clock.
	TypeStageTiming = "stage_timing"
)

// Record is one analyzer decision event — the value every Observer
// receives, Ring stores and JSONL writes. Type is always set; the
// remaining fields are populated per event type (see the Type constants
// and MarshalJSON, which lists each type's fields).
type Record struct {
	Type string `json:"type"`

	// Pos is a sample position (dip entry, resync, flagged sample).
	Pos int64 `json:"pos,omitempty"`
	// Start and End delimit a dip in samples (half-open).
	Start int64 `json:"start,omitempty"`
	End   int64 `json:"end,omitempty"`
	// Value is the normalised magnitude that crossed the entry threshold.
	Value float64 `json:"value,omitempty"`
	// Lo and Hi are the normalisation min/max stats at dip entry.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// StartS is a stall's onset in seconds from capture start.
	StartS float64 `json:"start_s,omitempty"`
	// DurationS is a dip's duration in seconds.
	DurationS float64 `json:"duration_s,omitempty"`
	// Cycles is a stall's cost in processor cycles.
	Cycles float64 `json:"cycles,omitempty"`
	// Depth is the minimum normalised magnitude inside a dip.
	Depth float64 `json:"depth,omitempty"`
	// Confidence is a stall's detection confidence in [0, 1].
	Confidence float64 `json:"confidence,omitempty"`
	// Refresh is true for refresh-coincident stalls.
	Refresh bool `json:"refresh,omitempty"`
	// Reason says which criterion rejected a dip.
	Reason RejectReason `json:"reason,omitempty"`
	// Cause is what triggered a resync.
	Cause ResyncCause `json:"cause,omitempty"`
	// Flags is a flagged sample's impairment class set.
	Flags Flag `json:"flags,omitempty"`
	// Retro is how many preceding samples were retroactively flagged.
	Retro int `json:"retro,omitempty"`
	// Stage labels a timed pipeline stage.
	Stage Stage `json:"stage,omitempty"`
	// DurationNs is a stage's wall time in nanoseconds.
	DurationNs int64 `json:"duration_ns,omitempty"`
	// Samples is the number of capture samples a stage covered.
	Samples int64 `json:"samples,omitempty"`
}

// MarshalJSON serialises the record with exactly the field set of its
// event type: a field that applies to the type is always present (a
// dip at pos 0 keeps "pos":0, a stall with confidence 0 keeps
// "confidence":0), and a field of another event type never appears —
// so JSONL consumers and the /trace endpoint can distinguish "value is
// zero" from "field not applicable". Unknown types fall back to the
// plain struct encoding with zero fields omitted.
func (r Record) MarshalJSON() ([]byte, error) {
	switch r.Type {
	case TypeDipCandidate:
		return json.Marshal(struct {
			Type  string  `json:"type"`
			Pos   int64   `json:"pos"`
			Value float64 `json:"value"`
			Lo    float64 `json:"lo"`
			Hi    float64 `json:"hi"`
		}{r.Type, r.Pos, r.Value, r.Lo, r.Hi})
	case TypeStallAccepted:
		return json.Marshal(struct {
			Type       string  `json:"type"`
			Start      int64   `json:"start"`
			End        int64   `json:"end"`
			StartS     float64 `json:"start_s"`
			DurationS  float64 `json:"duration_s"`
			Cycles     float64 `json:"cycles"`
			Depth      float64 `json:"depth"`
			Confidence float64 `json:"confidence"`
			Refresh    bool    `json:"refresh"`
		}{r.Type, r.Start, r.End, r.StartS, r.DurationS, r.Cycles, r.Depth, r.Confidence, r.Refresh})
	case TypeStallRejected:
		return json.Marshal(struct {
			Type      string       `json:"type"`
			Start     int64        `json:"start"`
			End       int64        `json:"end"`
			DurationS float64      `json:"duration_s"`
			Depth     float64      `json:"depth"`
			Reason    RejectReason `json:"reason"`
		}{r.Type, r.Start, r.End, r.DurationS, r.Depth, r.Reason})
	case TypeResync:
		return json.Marshal(struct {
			Type  string      `json:"type"`
			Pos   int64       `json:"pos"`
			Cause ResyncCause `json:"cause"`
		}{r.Type, r.Pos, r.Cause})
	case TypeQualityFlag:
		return json.Marshal(struct {
			Type  string `json:"type"`
			Pos   int64  `json:"pos"`
			Flags Flag   `json:"flags"`
			Retro int    `json:"retro"`
		}{r.Type, r.Pos, r.Flags, r.Retro})
	case TypeStageTiming:
		return json.Marshal(struct {
			Type       string `json:"type"`
			Stage      Stage  `json:"stage"`
			DurationNs int64  `json:"duration_ns"`
			Samples    int64  `json:"samples"`
		}{r.Type, r.Stage, r.DurationNs, r.Samples})
	}
	type plain Record
	return json.Marshal(plain(r))
}
