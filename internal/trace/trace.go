// Package trace is the decision-trace observability layer of the EMPROF
// analyzers: every reported (or suppressed) stall is the outcome of a
// chain of analyzer decisions — a dip candidate opened, a duration or
// depth threshold compared, a normalisation resync fired, a confidence
// assigned — and this package makes that chain observable without
// perturbing it.
//
// An Observer receives one typed, by-value event per decision point. The
// analyzers in internal/core emit events only when an observer is
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

import "encoding/json"

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

// String renders the flag set as a "|"-joined list, e.g. "gap|step".
func (f Flag) String() string {
	if f == 0 {
		return "none"
	}
	names := [...]struct {
		bit  Flag
		name string
	}{
		{FlagNaN, "nan"}, {FlagGap, "gap"}, {FlagClip, "clip"},
		{FlagBurst, "burst"}, {FlagStep, "step"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
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

// Stage labels one pipeline stage in a StageTiming event.
type Stage string

const (
	// StageScan is the sequential quality-monitor + smoothing pass.
	StageScan Stage = "scan"
	// StageNormalize is the moving min/max normalisation pass.
	StageNormalize Stage = "normalize"
	// StageDetect is the dip-detection pass over normalised values.
	StageDetect Stage = "detect"
)

// DipCandidate is emitted when the normalised signal falls below the
// entry threshold and a dip opens. Every candidate is later resolved by
// exactly one StallAccepted or StallRejected event.
type DipCandidate struct {
	// Pos is the sample position at which the dip opened.
	Pos int64
	// Value is the normalised magnitude that crossed the entry threshold.
	Value float64
	// Lo and Hi are the moving min/max normalisation stats in force at
	// entry (the local contrast the confidence score uses).
	Lo, Hi float64
}

// StallAccepted is emitted when a dip passes the duration and depth
// criteria and is reported as a stall. Its fields mirror core.Stall.
type StallAccepted struct {
	// Start and End delimit the dip in samples (half-open).
	Start, End int64
	// StartS is the onset in seconds from capture start.
	StartS float64
	// DurationS is the dip duration in seconds.
	DurationS float64
	// Cycles is the stall cost in processor cycles.
	Cycles float64
	// Depth is the minimum normalised magnitude inside the dip.
	Depth float64
	// Confidence is the detection confidence in [0, 1].
	Confidence float64
	// Refresh is true for refresh-coincident stalls.
	Refresh bool
}

// StallRejected is emitted when a candidate dip is discarded.
type StallRejected struct {
	// Start and End delimit the candidate in samples (half-open; End is
	// the position at which it was discarded).
	Start, End int64
	// DurationS is the candidate duration in seconds.
	DurationS float64
	// Depth is the minimum normalised magnitude the candidate reached.
	Depth float64
	// Reason says which criterion killed it.
	Reason RejectReason
}

// Resync is emitted when the quality monitor re-seeds the normalisation
// min/max state.
type Resync struct {
	// Pos is the sample position before which the state is reset.
	Pos int64
	// Cause is what triggered the re-seed.
	Cause ResyncCause
}

// QualityFlag is emitted for every sample the quality monitor flags as
// impaired. Retro counts immediately preceding samples that retroactively
// received the same flags (clip runs and gain-step half-windows); no
// separate events are emitted for those.
type QualityFlag struct {
	// Pos is the flagged sample position.
	Pos int64
	// Flags is the impairment class set.
	Flags Flag
	// Retro is how many preceding samples were retroactively flagged.
	Retro int
}

// StageTiming reports the wall time of one pipeline stage. Timings are
// only measured when an observer is attached, so the nil-observer path
// never reads the clock.
type StageTiming struct {
	// Stage labels the pipeline stage.
	Stage Stage
	// DurationNs is the stage wall time in nanoseconds.
	DurationNs int64
	// Samples is the number of capture samples the stage covered.
	Samples int64
}

// Observer receives analyzer decision events. Events are delivered
// synchronously from the analysis path, so implementations should be
// cheap; all sinks in this package are. Implementations shared across
// concurrent analyses (runs of one analyzer, daemon sessions) must be
// safe for concurrent use. Embed Nop to implement only the events of
// interest.
type Observer interface {
	DipCandidate(DipCandidate)
	StallAccepted(StallAccepted)
	StallRejected(StallRejected)
	Resync(Resync)
	QualityFlag(QualityFlag)
	StageTiming(StageTiming)
}

// Nop is an Observer that ignores every event. Embed it to implement
// Observer partially; it is also the baseline for overhead benchmarks.
type Nop struct{}

func (Nop) DipCandidate(DipCandidate)   {}
func (Nop) StallAccepted(StallAccepted) {}
func (Nop) StallRejected(StallRejected) {}
func (Nop) Resync(Resync)               {}
func (Nop) QualityFlag(QualityFlag)     {}
func (Nop) StageTiming(StageTiming)     {}

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

func (m multi) DipCandidate(e DipCandidate) {
	for _, o := range m {
		o.DipCandidate(e)
	}
}

func (m multi) StallAccepted(e StallAccepted) {
	for _, o := range m {
		o.StallAccepted(e)
	}
}

func (m multi) StallRejected(e StallRejected) {
	for _, o := range m {
		o.StallRejected(e)
	}
}

func (m multi) Resync(e Resync) {
	for _, o := range m {
		o.Resync(e)
	}
}

func (m multi) QualityFlag(e QualityFlag) {
	for _, o := range m {
		o.QualityFlag(e)
	}
}

func (m multi) StageTiming(e StageTiming) {
	for _, o := range m {
		o.StageTiming(e)
	}
}

// Event type labels used in Records (the serialised event form).
const (
	TypeDipCandidate  = "dip_candidate"
	TypeStallAccepted = "stall_accepted"
	TypeStallRejected = "stall_rejected"
	TypeResync        = "resync"
	TypeQualityFlag   = "quality_flag"
	TypeStageTiming   = "stage_timing"
)

// Record is the flat, serialisable form of any event — the unit stored
// by Ring and written by JSONL. Type is always set; the remaining fields
// are populated per event type. MarshalJSON emits exactly the fields
// that apply to the record's type, so each line carries only the fields
// that mean something for its type — but carries all of those, zero
// values included.
type Record struct {
	Type string `json:"type"`

	Pos        int64   `json:"pos,omitempty"`
	Start      int64   `json:"start,omitempty"`
	End        int64   `json:"end,omitempty"`
	Value      float64 `json:"value,omitempty"`
	Lo         float64 `json:"lo,omitempty"`
	Hi         float64 `json:"hi,omitempty"`
	StartS     float64 `json:"start_s,omitempty"`
	DurationS  float64 `json:"duration_s,omitempty"`
	Cycles     float64 `json:"cycles,omitempty"`
	Depth      float64 `json:"depth,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Refresh    bool    `json:"refresh,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	Cause      string  `json:"cause,omitempty"`
	Flags      string  `json:"flags,omitempty"`
	Retro      int     `json:"retro,omitempty"`
	Stage      string  `json:"stage,omitempty"`
	DurationNs int64   `json:"duration_ns,omitempty"`
	Samples    int64   `json:"samples,omitempty"`
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
			Type      string  `json:"type"`
			Start     int64   `json:"start"`
			End       int64   `json:"end"`
			DurationS float64 `json:"duration_s"`
			Depth     float64 `json:"depth"`
			Reason    string  `json:"reason"`
		}{r.Type, r.Start, r.End, r.DurationS, r.Depth, r.Reason})
	case TypeResync:
		return json.Marshal(struct {
			Type  string `json:"type"`
			Pos   int64  `json:"pos"`
			Cause string `json:"cause"`
		}{r.Type, r.Pos, r.Cause})
	case TypeQualityFlag:
		return json.Marshal(struct {
			Type  string `json:"type"`
			Pos   int64  `json:"pos"`
			Flags string `json:"flags"`
			Retro int    `json:"retro"`
		}{r.Type, r.Pos, r.Flags, r.Retro})
	case TypeStageTiming:
		return json.Marshal(struct {
			Type       string `json:"type"`
			Stage      string `json:"stage"`
			DurationNs int64  `json:"duration_ns"`
			Samples    int64  `json:"samples"`
		}{r.Type, r.Stage, r.DurationNs, r.Samples})
	}
	type plain Record
	return json.Marshal(plain(r))
}

// Record converts the event to its serialisable form.
func (e DipCandidate) Record() Record {
	return Record{Type: TypeDipCandidate, Pos: e.Pos, Value: e.Value, Lo: e.Lo, Hi: e.Hi}
}

// Record converts the event to its serialisable form.
func (e StallAccepted) Record() Record {
	return Record{
		Type: TypeStallAccepted, Start: e.Start, End: e.End, StartS: e.StartS,
		DurationS: e.DurationS, Cycles: e.Cycles, Depth: e.Depth,
		Confidence: e.Confidence, Refresh: e.Refresh,
	}
}

// Record converts the event to its serialisable form.
func (e StallRejected) Record() Record {
	return Record{
		Type: TypeStallRejected, Start: e.Start, End: e.End,
		DurationS: e.DurationS, Depth: e.Depth, Reason: string(e.Reason),
	}
}

// Record converts the event to its serialisable form.
func (e Resync) Record() Record {
	return Record{Type: TypeResync, Pos: e.Pos, Cause: string(e.Cause)}
}

// Record converts the event to its serialisable form.
func (e QualityFlag) Record() Record {
	return Record{Type: TypeQualityFlag, Pos: e.Pos, Flags: e.Flags.String(), Retro: e.Retro}
}

// Record converts the event to its serialisable form.
func (e StageTiming) Record() Record {
	return Record{Type: TypeStageTiming, Stage: string(e.Stage), DurationNs: e.DurationNs, Samples: e.Samples}
}
