package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// oneOfEach holds one record of every event type with distinctive values.
var oneOfEach = []Record{
	{Type: TypeDipCandidate, Pos: 10, Value: 0.2, Lo: 1, Hi: 5},
	{Type: TypeStallAccepted, Start: 10, End: 30, StartS: 1e-6, DurationS: 5e-7, Cycles: 500, Depth: 0.15, Confidence: 0.8},
	{Type: TypeStallRejected, Start: 40, End: 42, DurationS: 5e-8, Depth: 0.3, Reason: RejectTooShort},
	{Type: TypeResync, Pos: 100, Cause: ResyncGap},
	{Type: TypeQualityFlag, Pos: 99, Flags: FlagGap | FlagStep, Retro: 3},
	{Type: TypeStageTiming, Stage: StageScan, DurationNs: 1234, Samples: 4096},
}

// emitOneOfEach delivers every record of oneOfEach to o.
func emitOneOfEach(o Observer) {
	for _, r := range oneOfEach {
		o.Observe(r)
	}
}

func TestFlagString(t *testing.T) {
	cases := []struct {
		f    Flag
		want string
	}{
		{0, "none"},
		{FlagNaN, "nan"},
		{FlagGap | FlagClip, "gap|clip"},
		{FlagNaN | FlagGap | FlagClip | FlagBurst | FlagStep, "nan|gap|clip|burst|step"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Flag(%d).String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	emitOneOfEach(j)
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	wantTypes := []string{
		TypeDipCandidate, TypeStallAccepted, TypeStallRejected,
		TypeResync, TypeQualityFlag, TypeStageTiming,
	}
	for i, line := range lines {
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Type != wantTypes[i] {
			t.Errorf("line %d type = %q, want %q", i, r.Type, wantTypes[i])
		}
	}
	// Spot-check field mapping on the reject line.
	var rej Record
	if err := json.Unmarshal([]byte(lines[2]), &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Reason != RejectTooShort || rej.Start != 40 || rej.End != 42 {
		t.Errorf("reject record = %+v", rej)
	}
	// Omitted fields must not appear on unrelated lines.
	if strings.Contains(lines[0], "reason") || strings.Contains(lines[3], "depth") {
		t.Errorf("records carry fields of other event types: %q / %q", lines[0], lines[3])
	}
}

// TestRecordJSONFieldSets checks that every event type marshals to
// exactly its field set, zero values included, and decodes back to the
// same record; flag sets travel as their String form.
func TestRecordJSONFieldSets(t *testing.T) {
	fields := map[string]string{
		TypeDipCandidate:  "hi,lo,pos,type,value",
		TypeStallAccepted: "confidence,cycles,depth,duration_s,end,refresh,start,start_s,type",
		TypeStallRejected: "depth,duration_s,end,reason,start,type",
		TypeResync:        "cause,pos,type",
		TypeQualityFlag:   "flags,pos,retro,type",
		TypeStageTiming:   "duration_ns,samples,stage,type",
	}
	recs := append([]Record{{Type: TypeQualityFlag, Flags: FlagNaN | FlagClip | FlagBurst}}, oneOfEach...)
	for typ := range fields {
		recs = append(recs, Record{Type: typ})
	}
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatalf("%s: %v", blob, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != fields[rec.Type] {
			t.Errorf("%s: fields %s, want %s", blob, got, fields[rec.Type])
		}
		if rec.Type == TypeQualityFlag && m["flags"] != rec.Flags.String() {
			t.Errorf("%s: flags %v, want %q", blob, m["flags"], rec.Flags)
		}
		var back Record
		if err := json.Unmarshal(blob, &back); err != nil || back != rec {
			t.Errorf("%s decodes to %+v (err %v), want %+v", blob, back, err, rec)
		}
	}
	var r Record
	if err := json.Unmarshal([]byte(`{"type":"quality_flag","flags":"gap|wobble"}`), &r); err == nil {
		t.Error("unknown flag name decoded without error")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWrite
	}
	f.n--
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "boom" }

func TestJSONLStickyError(t *testing.T) {
	// Tiny bufio buffer forces writes through; the first failure sticks.
	j := &JSONL{}
	*j = *NewJSONL(&failWriter{n: 0})
	for i := 0; i < 100; i++ {
		j.Observe(Record{Type: TypeResync, Pos: int64(i), Cause: ResyncGap})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("want sticky error after failed writes")
	}
	if j.Err() == nil {
		t.Fatal("Err() should report the sticky error")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Observe(Record{Type: TypeResync, Pos: int64(i), Cause: ResyncGap})
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, rec := range recs {
		if want := int64(i + 2); rec.Pos != want {
			t.Errorf("record %d pos = %d, want %d (oldest-first)", i, rec.Pos, want)
		}
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Errorf("Total=%d Dropped=%d, want 5/2", r.Total(), r.Dropped())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(8)
	emitOneOfEach(r)
	if got := len(r.Records()); got != 6 {
		t.Fatalf("retained %d, want 6", got)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingMinCapacity(t *testing.T) {
	r := NewRing(0)
	r.Observe(Record{Type: TypeResync, Pos: 1, Cause: ResyncGap})
	r.Observe(Record{Type: TypeResync, Pos: 2, Cause: ResyncGainStep})
	recs := r.Records()
	if len(recs) != 1 || recs[0].Pos != 2 {
		t.Fatalf("records = %+v, want just pos=2", recs)
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	emitOneOfEach(m)
	m.Observe(Record{Type: TypeStallRejected, Reason: RejectTooShallow, Depth: 0.4})
	m.Observe(Record{Type: TypeStallAccepted, Depth: 0.95, Refresh: true})
	m.Observe(Record{Type: TypeStallAccepted, Depth: 2.5}) // out-of-range clamps to top bucket
	s := m.Snapshot()
	if s.DipCandidates != 1 || s.StallsAccepted != 3 || s.RefreshStalls != 1 {
		t.Errorf("candidates=%d accepted=%d refresh=%d", s.DipCandidates, s.StallsAccepted, s.RefreshStalls)
	}
	if s.Rejected[RejectTooShort] != 1 || s.Rejected[RejectTooShallow] != 1 {
		t.Errorf("rejected = %v", s.Rejected)
	}
	if s.Resyncs[ResyncGap] != 1 {
		t.Errorf("resyncs = %v", s.Resyncs)
	}
	// The quality_flag record carried gap|step with Retro=3 → 4 samples per class.
	if s.FlaggedSamples["gap"] != 4 || s.FlaggedSamples["step"] != 4 {
		t.Errorf("flagged = %v", s.FlaggedSamples)
	}
	if s.DepthHist[1] != 1 || s.DepthHist[9] != 2 {
		t.Errorf("depth hist = %v", s.DepthHist)
	}
	if want := 0.15 + 0.95 + 2.5; math.Abs(s.DepthSum-want) > 1e-12 {
		t.Errorf("depth sum = %v, want %v", s.DepthSum, want)
	}
	if s.StageNs[StageScan] != 1234 {
		t.Errorf("stage ns = %v", s.StageNs)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	m := NewMetrics()
	emitOneOfEach(m)
	var buf bytes.Buffer
	m.WritePrometheus(&buf, "emprofd_trace")
	out := buf.String()
	for _, want := range []string{
		"emprofd_trace_dip_candidates_total 1",
		"emprofd_trace_stalls_accepted_total 1",
		`emprofd_trace_stalls_rejected_total{reason="too-short"} 1`,
		`emprofd_trace_resyncs_total{cause="gap"} 1`,
		`emprofd_trace_flagged_samples_total{class="gap"} 4`,
		`emprofd_trace_stall_depth_bucket{le="+Inf"} 1`,
		"emprofd_trace_stall_depth_sum 0.15",
		"emprofd_trace_stall_depth_count 1",
		`emprofd_trace_stage_ns_total{stage="scan"} 1234`,
		`emprofd_trace_stage_samples_total{stage="scan"} 4096`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must be nil")
	}
	m1, m2 := NewMetrics(), NewMetrics()
	if got := Multi(nil, m1); got != m1 {
		t.Fatal("Multi of one must return it directly")
	}
	fan := Multi(m1, nil, m2)
	emitOneOfEach(fan)
	if m1.Snapshot().StallsAccepted != 1 || m2.Snapshot().StallsAccepted != 1 {
		t.Fatal("Multi did not fan out to both sinks")
	}
}

// TestSinksConcurrent exercises every sink from parallel goroutines under
// -race: concurrent runs of one analyzer, and a daemon's sessions, share
// their sinks.
func TestSinksConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sinks := Multi(NewJSONL(&buf), NewRing(64), NewMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				emitOneOfEach(sinks)
			}
		}()
	}
	wg.Wait()
}
