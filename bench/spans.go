package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only in traced runs, by the benchmark's own code
// around the calls it makes into each layer: client methods, an HTTP
// round tripper on the client, wrappers around the router's and each
// shard's handler, a round tripper on the router's relay client, and the
// pieces of a re-assembled simulation. They are kept in memory and, when
// asked, written out at exit.

// spanHeader carries "<request>.<parent span>" from the client through the
// router to the shard; the router relays request headers verbatim.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds on the tracer's monotonic clock; Req groups every span one
// client request (or one simulation job) caused. K is the calibration
// factor in force when the span started: a duration times K is at the
// reference speed.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	K      float64 `json:"k"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the in-memory span store of one traced run. Beside spans it
// keeps counts taken at the same boundaries (simulated cycles, rejected
// requests) and the workload specifications it saw simulated, whose
// instruction generation the layer replay times alone.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// k holds the bits of the current calibration factor.
	k atomic.Uint64

	mu        sync.Mutex
	spans     []span
	counts    map[string]float64
	workloads map[wlSpec]bool
}

// wlSpec identifies one generated instruction stream.
type wlSpec struct {
	spec   string
	scaleM float64
	seed   uint64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), counts: make(map[string]float64), workloads: make(map[wlSpec]bool)}
	t.setScale(1)
	return t
}

// setScale sets the calibration factor of the spans that start from now.
func (t *tracer) setScale(k float64) { t.k.Store(math.Float64bits(k)) }

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) noteWorkload(spec string, scaleM float64, seed uint64) {
	t.mu.Lock()
	t.workloads[wlSpec{spec, scaleM, seed}] = true
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span; req 0 makes the span the root of a new request.
func (t *tracer) start(name string, req, parent uint64) span {
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	k := math.Float64frombits(t.k.Load())
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now(), K: k}
}

// finish closes a span and stores it.
func (t *tracer) finish(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every recorded span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type spanKey struct{}

type spanRef struct{ req, id uint64 }

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{s.Req, s.ID})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func parseSpanHeader(v string) spanRef {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req, id}
}

// tracedTransport records one span per round trip, from the request until
// the caller closes the response body, and tells the next hop which span
// caused its request.
type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := spanFrom(r.Context())
	s := tt.t.start(tt.name, ref.req, ref.id)
	r2 := r.Clone(r.Context())
	r2.Header.Set(spanHeader, fmt.Sprintf("%d.%d", s.Req, s.ID))
	resp, err := tt.base.RoundTrip(r2)
	if err != nil {
		tt.t.finish(s)
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		tt.t.count(tt.name+".rejects", 1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tt.t.finish(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedHandler records one span per request a server handler serves.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := parseSpanHeader(r.Header.Get(spanHeader))
		s := t.start(name, ref.req, ref.id)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		t.finish(s)
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children may overlap (the router fans a
// query out to every shard at once), so the covered part is the union of
// their intervals clipped to the parent; a self time is never negative.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// requestLedger sums self time, at the reference speed, per span name and
// request kind over every request whose root is a client call
// ("client.push" is kind "push").
type requestLedger struct {
	self     map[string]map[string]float64 // span name -> kind -> Σ self ns
	requests map[string]int                // kind -> root count
	attempts map[string]int                // kind -> client round trips
}

func newRequestLedger(spans []span) requestLedger {
	self := selfTimes(spans)
	kind := make(map[uint64]string)
	l := requestLedger{
		self:     make(map[string]map[string]float64),
		requests: make(map[string]int),
		attempts: make(map[string]int),
	}
	for _, s := range spans {
		if k, ok := strings.CutPrefix(s.Name, "client."); ok && s.Parent == 0 {
			kind[s.Req] = k
			l.requests[k]++
		}
	}
	for _, s := range spans {
		k, ok := kind[s.Req]
		if !ok {
			continue
		}
		if l.self[s.Name] == nil {
			l.self[s.Name] = make(map[string]float64)
		}
		l.self[s.Name][k] += float64(self[s.ID]) * s.K
		if s.Name == "http.client" {
			l.attempts[k]++
		}
	}
	return l
}

// meanUs is the mean self time of span name per request of kind, in µs.
func (l requestLedger) meanUs(name, kind string) float64 {
	return ratio(l.self[name][kind]/1e3, float64(l.requests[kind]))
}

// retriesPerKreq counts client round trips beyond the first per thousand
// requests, over every kind.
func (l requestLedger) retriesPerKreq() float64 {
	var req, att int
	for k, n := range l.requests {
		req += n
		att += l.attempts[k]
	}
	return ratio(1000*float64(att-req), float64(req))
}
