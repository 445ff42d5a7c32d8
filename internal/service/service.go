// Package service implements emprofd, the concurrent profiling service:
// a session registry where each session wraps one core.StreamAnalyzer,
// an HTTP API for streaming capture ingest and live profile snapshots,
// and Prometheus-format metrics. It turns the push-one-sample streaming
// profiler into the deployment the paper implies — a probe ships EM
// samples to a collector continuously while the target runs untouched,
// and the profile is available live, not post-hoc from capture files.
//
// Session lifecycle (see DESIGN.md "Profiling service"):
//
//	created ──ingest──▶ active ──DELETE──▶ finalized (profile returned, session removed)
//	   │                   │
//	   └───────idle TTL────┴──▶ swept by GC (finalized and dropped)
//
// The registry is robust by construction: a max-session cap and a
// per-session byte budget (both answered with 429 so well-behaved
// clients back off), idle-session GC, per-request read deadlines, and a
// graceful Close that finalizes every in-flight session.
package service

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"emprof/internal/attrib"
	"emprof/internal/core"
	"emprof/internal/em"
	"emprof/internal/profstore"
	"emprof/internal/trace"
)

// Config tunes the service.
type Config struct {
	// MaxSessions caps concurrently-open sessions; creates beyond it are
	// rejected with 429. 0 means the default (64).
	MaxSessions int
	// MaxSessionBytes caps the bytes one session may ingest over its
	// lifetime; 0 means the default (1 GiB).
	MaxSessionBytes int64
	// IdleTTL is how long a session may sit without ingest or snapshot
	// traffic before the GC finalizes and drops it; 0 means the default
	// (5 minutes).
	IdleTTL time.Duration
	// ReadTimeout is the per-request read deadline applied to ingest
	// bodies; 0 means the default (30 seconds).
	ReadTimeout time.Duration
	// TraceRing is the per-session decision-trace ring capacity served at
	// GET /v1/sessions/{id}/trace: the last TraceRing analyzer decision
	// events (dip candidates, accepted/rejected stalls, resyncs, quality
	// flags) are retained per session. 0 means the default (4096);
	// negative disables per-session rings (the shared trace metrics keep
	// aggregating either way).
	TraceRing int
	// WindowS enables continuous profiling: every session emits rolling
	// profile windows of this width in stream seconds, persisted to the
	// window store and served at GET /v1/sessions/{id}/profiles. 0
	// disables windowing (sessions still profile; only the window surface
	// is absent).
	WindowS float64
	// Store is the window sink; nil with WindowS > 0 means an internal
	// memory-only store (windows then do not survive a restart).
	Store *profstore.Store
	// Logf, when set, receives operational log lines the metrics alone
	// would bury (window-store append failures and the like); nil
	// discards them. It may run with a session's lock held, so it must
	// not call back into the registry.
	Logf func(format string, args ...any)
	// Now overrides the clock, for tests; nil means time.Now.
	Now func() time.Time
}

// Defaults for Config zero values.
const (
	DefaultMaxSessions     = 64
	DefaultMaxSessionBytes = 1 << 30
	DefaultIdleTTL         = 5 * time.Minute
	DefaultReadTimeout     = 30 * time.Second
	DefaultTraceRing       = 4096
)

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxSessionBytes <= 0 {
		c.MaxSessionBytes = DefaultMaxSessionBytes
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = DefaultIdleTTL
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.TraceRing == 0 {
		c.TraceRing = DefaultTraceRing
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Typed registry errors; the HTTP layer maps them to status codes.
var (
	// ErrFull is returned when the registry holds MaxSessions sessions,
	// or when a new session's window buffers would push the live
	// sessions' total past core.MaxWindowSamples, which takes at least
	// sixteen sessions (HTTP 429: back off and retry).
	ErrFull = errors.New("service: session registry full")
	// ErrBudget is returned when an ingest would exceed the session byte
	// budget before any of it is consumed (HTTP 429).
	ErrBudget = errors.New("service: session byte budget exhausted")
	// ErrClosed is returned after Close (HTTP 503).
	ErrClosed = errors.New("service: shutting down")
	// ErrNotFound is returned for unknown session IDs (HTTP 404).
	ErrNotFound = errors.New("service: no such session")
	// ErrPoisoned is returned when ingesting into a session whose
	// analysis previously panicked (HTTP 400).
	ErrPoisoned = errors.New("service: session stream previously failed")
	// ErrPinned is returned while a session is pinned for hand-off to
	// another shard (HTTP 503: transient, retry — the router will direct
	// the retry to the new owner once the move completes).
	ErrPinned = errors.New("service: session pinned for hand-off")
	// ErrConflict is returned when a request contradicts session state: a
	// client-assigned session ID that already exists, or a push offset
	// beyond the ingested stream (HTTP 409: not retryable as-is).
	ErrConflict = errors.New("service: conflicting session state")
	// ErrWindowNotRetained is returned when a profiles query names a time
	// range whose windows existed but were evicted by the store's
	// retention policy (HTTP 410: gone for good, do not retry).
	ErrWindowNotRetained = errors.New("service: requested windows no longer retained")
)

// session is one live profiling stream, run as one stage (see
// pipeline.go): ingest (under mu) decodes wire bytes, runs each block
// through the analyzer, the windower and the attributor, and stores every
// window it seals before the push returns, so every read observes its own
// session's completed writes.
type session struct {
	id         string
	device     string
	sampleRate float64
	clockHz    float64
	created    time.Time

	mu         sync.Mutex
	lastActive time.Time
	an         *core.StreamAnalyzer
	// emit is analyzeBlock bound once at session creation, so the hot
	// ingest loop passes a prebuilt func value to the decoder instead of
	// allocating a closure per request.
	emit      func([]float64)
	dec       em.Decoder
	bytes     int64
	finalized bool
	final     *core.Profile
	poison    error // first analysis panic; the session rejects further ingest
	// pinned marks the session frozen for hand-off: ingest, snapshot and
	// finalize answer ErrPinned (503) until the move completes, so no
	// sample can land on two shards.
	pinned bool
	// ring retains the session's most recent analyzer decision events
	// (GET /v1/sessions/{id}/trace); nil when per-session tracing is
	// disabled. The ring is internally synchronised.
	ring *trace.Ring

	// win slices the analyzed stream into rolling windows; attr attributes
	// them to code regions. Both are guarded by mu; nil when the feature
	// is off.
	win  *core.Windower
	attr *attrib.StreamAttributor
	// dropLogged records that a failed window append was logged, so a
	// sick store logs one line per session, not one per window. Guarded
	// by mu.
	dropLogged bool
	// window is the session's share of the registry's window total.
	window int
}

// SessionInfo is the list-endpoint view of one session.
type SessionInfo struct {
	ID              string    `json:"id"`
	Device          string    `json:"device,omitempty"`
	State           string    `json:"state"`
	SampleRate      float64   `json:"sample_rate"`
	ClockHz         float64   `json:"clock_hz"`
	BytesIngested   int64     `json:"bytes_ingested"`
	SamplesIngested int64     `json:"samples_ingested"`
	Stalls          int       `json:"stalls"`
	CreatedAt       time.Time `json:"created_at"`
	LastActiveAt    time.Time `json:"last_active_at"`
}

// Registry manages the live sessions.
type Registry struct {
	cfg     Config
	metrics *Metrics
	// store receives sealed windows and serves Profiles queries; nil when
	// windowing is disabled. ownStore marks the internal memory store
	// (closed with the registry; a caller-supplied store is the caller's).
	store    *profstore.Store
	ownStore bool

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool
	// windowSamples sums the window shares of the live sessions and of
	// those being built; it stays within core.MaxWindowSamples (about
	// 0.5 GB of moving min/max buffers in all).
	windowSamples int
}

// NewRegistry builds a registry with the given limits.
func NewRegistry(cfg Config, m *Metrics) *Registry {
	if m == nil {
		m = NewMetrics()
	}
	r := &Registry{
		cfg:      cfg.withDefaults(),
		metrics:  m,
		sessions: make(map[string]*session),
	}
	r.store = r.cfg.Store
	if r.store == nil && r.cfg.WindowS > 0 {
		// Memory-mode open cannot fail (no directory to touch).
		r.store, _ = profstore.Open(profstore.Options{})
		r.ownStore = true
	}
	return r
}

// Metrics returns the registry's metrics sink.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Config returns the effective (defaulted) configuration.
func (r *Registry) Config() Config { return r.cfg }

// Store returns the window store (nil when windowing is disabled).
func (r *Registry) Store() *profstore.Store { return r.store }

// NewSessionID returns a 128-bit random hex ID: the form of every
// server-assigned session ID, and of the IDs the fleet router assigns
// before it picks a shard.
func NewSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// CreateOpts parameterises CreateSession.
type CreateOpts struct {
	// ID optionally assigns the session ID client-side — the fleet
	// router assigns IDs itself so that any node can recompute a
	// session's owning shard from the ID alone; empty means
	// server-assigned. A duplicate ID is ErrConflict.
	ID     string
	Device string
	// SampleRate and ClockHz are the signal's acquisition metadata
	// (required).
	SampleRate, ClockHz float64
	// Config is the profiler configuration (core.DefaultConfig for the
	// zero value — callers that want defaults must set it explicitly,
	// since the zero core.Config is not valid).
	Config core.Config
	// Attribution optionally attaches a trained model to this session;
	// its windows then carry live stall→code-region attribution
	// (ProfileWindow.Regions). Every registry checks the model; one that
	// does not window ignores it.
	Attribution *attrib.Model
}

// CreateSession opens a new session wrapping a streaming analyzer for a
// signal with the given acquisition metadata.
func (r *Registry) CreateSession(o CreateOpts) (id string, err error) {
	if err := checkSession(o.ID, o.SampleRate, o.ClockHz); err != nil {
		return "", err
	}
	if o.Attribution != nil {
		if err := attrib.CheckStreamModel(o.Attribution); err != nil {
			return "", err
		}
	}
	share, err := r.reserve(o.Config, o.SampleRate)
	if err != nil {
		return "", err
	}
	defer r.releaseOnError(share, &err)
	an, err := core.NewStreamAnalyzer(o.Config, o.SampleRate, o.ClockHz)
	if err != nil {
		return "", err
	}
	s := &session{id: o.ID, device: o.Device, sampleRate: o.SampleRate, clockHz: o.ClockHz, an: an, window: share}
	if r.cfg.WindowS > 0 {
		if s.win, err = core.NewWindower(r.cfg.WindowS, 0, o.SampleRate, o.ClockHz); err != nil {
			return "", err
		}
	}
	if o.Attribution != nil && s.win != nil {
		if s.attr, err = attrib.NewStreamAttributor(o.Attribution); err != nil {
			return "", err
		}
	}
	if err := r.admit(s, &r.metrics.SessionsTotal); err != nil {
		return "", err
	}
	return s.id, nil
}

// checkSession is the admission rule creates and imports share: a
// client-assigned ID is bounded and printable (empty means
// server-assigned), and the acquisition metadata is positive.
func checkSession(id string, rate, clock float64) error {
	if len(id) > 128 {
		return fmt.Errorf("service: session ID longer than 128 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '/' {
			return fmt.Errorf("service: session ID contains byte %q", c)
		}
	}
	if !(rate > 0) || !(clock > 0) {
		return fmt.Errorf("service: invalid acquisition metadata rate=%v clock=%v", rate, clock)
	}
	return nil
}

// maxSessionWindow caps one session's share of the window total (about
// 32 MB of buffers, 131× the default window at 40 MS/s), so that no one
// create or import takes the whole total: sixteen maximal sessions fill
// it, as MaxSessions default ones would not.
const maxSessionWindow = core.MaxWindowSamples / 16

// reserve claims the window share of a session about to be built with
// this configuration, before any of its buffers are allocated. A share
// above maxSessionWindow is refused as a bad configuration, since no
// amount of backing off would admit it; one that would push the
// registry's total past core.MaxWindowSamples answers ErrFull.
func (r *Registry) reserve(cfg core.Config, sampleRate float64) (int, error) {
	share, err := core.WindowSamples(cfg, sampleRate)
	if err != nil {
		return 0, err
	}
	if share > maxSessionWindow {
		return 0, fmt.Errorf("service: window buffers of %d samples exceed the per-session cap of %d", share, maxSessionWindow)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.windowSamples+share > core.MaxWindowSamples {
		r.metrics.SessionsRejected.Add(1)
		return 0, ErrFull
	}
	r.windowSamples += share
	return share, nil
}

// releaseOnError returns a reserved share if the session it was reserved
// for failed to build or to be admitted.
func (r *Registry) releaseOnError(share int, err *error) {
	if *err != nil {
		r.mu.Lock()
		r.windowSamples -= share
		r.mu.Unlock()
	}
}

// drop removes a session from the registry and returns its window share;
// r.mu must be held.
func (r *Registry) drop(s *session) {
	delete(r.sessions, s.id)
	r.windowSamples -= s.window
}

// admit is the one way into the registry. It wires a built session's
// analysis chain — the stall counter and windower (the OnStall hook runs
// inside PushBlock under the session lock, so the windower needs no lock
// of its own), the trace sinks, emit and the window sink — then registers
// it under the closed, MaxSessions and conflict checks, drawing an ID
// when none was given, and counts it in admitted. A zero created time
// means now.
func (r *Registry) admit(s *session, admitted *atomic.Int64) error {
	stalls, win := &r.metrics.StallsDetected, s.win
	if win == nil {
		s.an.OnStall = func(core.Stall) { stalls.Add(1) }
	} else {
		s.an.OnStall = func(st core.Stall) {
			stalls.Add(1)
			win.Observe(st)
		}
		win.OnWindow = r.windowSink(s)
	}
	// Observers are assembled as interfaces (never typed-nil pointers) so
	// Multi can drop absent ones.
	var sinks []trace.Observer
	if r.cfg.TraceRing > 0 {
		s.ring = trace.NewRing(r.cfg.TraceRing)
		sinks = append(sinks, s.ring)
	}
	if r.metrics.Trace != nil {
		sinks = append(sinks, r.metrics.Trace)
	}
	s.an.SetObserver(trace.Multi(sinks...))
	s.emit = s.analyzeBlock

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.metrics.SessionsRejected.Add(1)
		return ErrFull
	}
	if s.id == "" {
		s.id = NewSessionID()
	} else if _, ok := r.sessions[s.id]; ok {
		return fmt.Errorf("%w: session %q already exists", ErrConflict, s.id)
	}
	s.lastActive = r.cfg.Now()
	if s.created.IsZero() {
		s.created = s.lastActive
	}
	r.sessions[s.id] = s
	admitted.Add(1)
	return nil
}

// get looks a session up.
func (r *Registry) get(id string) (*session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	s, ok := r.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// IngestResult reports the session totals after one ingest call.
type IngestResult struct {
	SamplesIngested int64 `json:"samples_ingested"`
	BytesIngested   int64 `json:"bytes_ingested"`
}

// ingest feeds one body chunk-by-chunk into the session's decoder and
// analyzer; when it returns, every decoded sample has been analysed and
// every window it sealed appended to the window store. The body is raw
// little-endian float64 samples; the acquisition metadata came from
// session creation. next returns successive byte chunks ((nil, io.EOF)
// at end); the caller owns transport concerns (deadlines, chunk sizing).
// declaredLen, when >= 0 (a Content-Length), is checked against the byte
// budget before anything is consumed, so a rejected request ingests
// nothing and is safe to retry. Bodies without a declared length are
// cut off mid-stream when the budget runs out.
//
// offset, when >= 0, is the session-stream index of the body's first
// sample (the X-Emprof-Offset header): the portion of the body the
// session has already decoded — a retry of a push whose response was
// lost, or that died mid-body — is skipped instead of re-ingested, which
// is what makes client retries on 429/502/503/504 and network errors
// safe from double counting. An offset beyond the ingested stream is a
// conflict: samples in between were lost for good and the profile can
// no longer be trusted to match the capture.
func (r *Registry) ingest(s *session, declaredLen, offset int64, next func() ([]byte, error)) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return IngestResult{}, ErrNotFound
	}
	if s.pinned {
		return IngestResult{}, ErrPinned
	}
	if s.poison != nil {
		return IngestResult{}, s.poisoned()
	}
	cur := s.dec.Emitted()
	var skip int64 // bytes of this body the session already decoded
	if offset >= 0 && offset <= cur {
		skip = (cur - offset) * 8
	}
	// Charge only the bytes this request can actually ingest: the skipped
	// prefix of an offset-tagged retry must not count against the budget
	// again, or a retry of a push that mostly landed near MaxSessionBytes
	// would draw 429 forever even though its new bytes fit.
	if declaredLen >= 0 && s.bytes+declaredLen-min(skip, declaredLen) > r.cfg.MaxSessionBytes {
		return IngestResult{}, ErrBudget
	}
	if offset > cur {
		return r.ingestTotals(s), fmt.Errorf("%w: push offset %d beyond ingested stream (%d samples)", ErrConflict, offset, cur)
	}
	if offset >= 0 {
		// Any half-assembled word left by an interrupted request is a
		// prefix of sample cur, which this body resends whole: drop it so
		// the resent bytes aren't appended to stale ones.
		s.dec.DropFragment()
	}
	for {
		chunk, err := next()
		if n := min(skip, int64(len(chunk))); n > 0 {
			chunk = chunk[n:]
			skip -= n
		}
		if len(chunk) > 0 {
			if s.bytes+int64(len(chunk)) > r.cfg.MaxSessionBytes {
				return r.ingestTotals(s), ErrBudget
			}
			before := s.dec.Emitted()
			_ = s.dec.FeedBlock(chunk, s.emit) // always nil: any bytes are words
			s.bytes += int64(len(chunk))
			r.metrics.IngestBytes.Add(int64(len(chunk)))
			r.metrics.SamplesIngested.Add(s.dec.Emitted() - before)
			if s.poison != nil {
				// analyzeBlock recovered a panic: this push fails too.
				return r.ingestTotals(s), s.poisoned()
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// Transport failure (e.g. read deadline) mid-body: the decoded
			// prefix is kept and the session stays usable, but the caller
			// must know this request did not land completely.
			s.lastActive = r.cfg.Now()
			return r.ingestTotals(s), fmt.Errorf("service: reading ingest body: %w", err)
		}
	}
	s.lastActive = r.cfg.Now()
	return r.ingestTotals(s), nil
}

func (r *Registry) ingestTotals(s *session) IngestResult {
	return IngestResult{SamplesIngested: s.dec.Emitted(), BytesIngested: s.bytes}
}

// poisoned is the error every request on a poisoned session answers.
func (s *session) poisoned() error { return fmt.Errorf("%w: %v", ErrPoisoned, s.poison) }

// stateLocked labels the session's lifecycle state for snapshots,
// listings and profiles queries.
func (s *session) stateLocked() string {
	switch {
	case s.finalized:
		return "finalized"
	case s.pinned:
		return "pinned"
	}
	return "active"
}

// Snapshot is the live-profile view of a session: only causal,
// already-decided stalls appear (core.StreamAnalyzer.Snapshot), alongside
// ingest progress and a per-stall confidence histogram.
type Snapshot struct {
	ID              string        `json:"id"`
	Device          string        `json:"device,omitempty"`
	State           string        `json:"state"`
	SamplesIngested int64         `json:"samples_ingested"`
	SamplesDecided  int64         `json:"samples_decided"`
	BytesIngested   int64         `json:"bytes_ingested"`
	Profile         *core.Profile `json:"profile"`
	MeanConfidence  float64       `json:"mean_confidence"`
	// ConfidenceHist buckets per-stall confidence into ten equal bins
	// over [0, 1]; bin 9 includes confidence 1.
	ConfidenceHist [10]int `json:"confidence_hist"`
}

// SnapshotJSON encodes the live profile of a session into buf, producing
// exactly the bytes json.Encoder writes for the Snapshot result. The
// encode runs under the session lock over a clone-free profile view, so a
// large stall list is serialised without first being copied (and
// zeroed) — the dominant cost of the profile endpoint on long sessions.
func (r *Registry) SnapshotJSON(id string, buf *bytes.Buffer) error {
	s, err := r.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinned {
		return ErrPinned
	}
	s.lastActive = r.cfg.Now()
	var prof *core.Profile
	switch {
	case !s.finalized:
		view := s.an.SnapshotView()
		prof = &view
	case s.final == nil:
		return s.poisoned() // its finalize panicked
	}
	return json.NewEncoder(buf).Encode(s.buildSnapshotLocked(prof))
}

// buildSnapshotLocked assembles the snapshot around a clone-free profile
// view of the analyzer; finalized sessions pass nil and use the stored
// final profile instead.
func (s *session) buildSnapshotLocked(prof *core.Profile) *Snapshot {
	if prof == nil {
		prof = s.final
	}
	snap := &Snapshot{
		ID:              s.id,
		Device:          s.device,
		State:           s.stateLocked(),
		SamplesIngested: s.an.Pushed(),
		SamplesDecided:  s.an.Decided(),
		BytesIngested:   s.bytes,
		Profile:         prof,
		MeanConfidence:  prof.MeanConfidence(),
	}
	for _, st := range prof.Stalls {
		bin := int(st.Confidence * 10)
		if bin > 9 {
			bin = 9
		}
		if bin < 0 {
			bin = 0
		}
		snap.ConfidenceHist[bin]++
	}
	return snap
}

// TraceResponse is the GET /v1/sessions/{id}/trace view of a session:
// the retained decision-trace events, oldest first, with drop
// accounting.
type TraceResponse struct {
	ID string `json:"id"`
	// Enabled is false when the daemon runs with per-session tracing
	// disabled (-trace-ring < 0); Records is then always empty.
	Enabled bool `json:"enabled"`
	// Total counts every decision event the session's analyzer ever
	// emitted; Dropped counts those that have rotated out of the ring.
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
	// Records holds the retained events, oldest first.
	Records []trace.Record `json:"records"`
}

// Trace returns the retained decision-trace events of a session.
func (r *Registry) Trace(id string) (*TraceResponse, error) {
	s, err := r.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lastActive = r.cfg.Now()
	ring := s.ring
	s.mu.Unlock()
	resp := &TraceResponse{ID: s.id, Records: []trace.Record{}}
	if ring == nil {
		return resp, nil
	}
	resp.Enabled = true
	// Records and Total are read in two steps; events landing between
	// them only make Dropped conservative, never negative.
	resp.Records = ring.Records()
	resp.Total = ring.Total()
	resp.Dropped = resp.Total - uint64(len(resp.Records))
	return resp, nil
}

// Finalize removes a session from the registry and returns its final
// profile — the same profile a batch analysis of the full capture would
// produce. A session whose finalize panicked answers ErrPoisoned.
func (r *Registry) Finalize(id string) (*core.Profile, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	s, ok := r.sessions[id]
	if !ok {
		r.mu.Unlock()
		return nil, ErrNotFound
	}
	// Lock order r.mu → s.mu, as in Sweep. A pinned session must stay in
	// the registry: its state is mid-flight to another shard.
	s.mu.Lock()
	if s.pinned {
		s.mu.Unlock()
		r.mu.Unlock()
		return nil, ErrPinned
	}
	r.drop(s)
	r.mu.Unlock()
	defer s.mu.Unlock()
	retire(s, &r.metrics.SessionsFinalized)
	if s.final == nil {
		return nil, s.poisoned()
	}
	return s.final, nil
}

// retire is the one way out of the registry, for Finalize, Sweep and
// Close alike: it takes a session already dropped from the registry, with
// s.mu held, finalizes it and counts it in retired. Finalizing runs the
// analyzer's finalize and seals the trailing window (its OnWindow hook
// stores it with the stream's final quality, completing the mergeable
// sequence), under the session's panic guard: a panic leaves final nil
// and poisons the session.
func retire(s *session, retired *atomic.Int64) {
	if !s.finalized {
		s.finalized = true
		s.guard(func() {
			final := s.an.Finalize()
			if s.win != nil {
				s.win.Flush(s.an.Pushed())
			}
			s.final = final
		})
	}
	retired.Add(1)
}

// List returns every live session, oldest first.
func (r *Registry) List() []SessionInfo {
	r.mu.Lock()
	sessions := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		info := SessionInfo{
			ID:              s.id,
			Device:          s.device,
			State:           s.stateLocked(),
			SampleRate:      s.sampleRate,
			ClockHz:         s.clockHz,
			BytesIngested:   s.bytes,
			SamplesIngested: s.an.Pushed(),
			Stalls:          len(s.an.SnapshotView().Stalls),
			CreatedAt:       s.created,
			LastActiveAt:    s.lastActive,
		}
		s.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.Before(out[j].CreatedAt) })
	return out
}

// ActiveSessions returns the number of live sessions.
func (r *Registry) ActiveSessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Sweep finalizes and drops every session idle since before now-IdleTTL,
// returning how many it collected. The daemon calls it periodically; a
// swept session's profile is discarded (nobody was listening).
func (r *Registry) Sweep(now time.Time) int {
	cutoff := now.Add(-r.cfg.IdleTTL)
	r.mu.Lock()
	var idle []*session
	for _, s := range r.sessions {
		// Pinned sessions are swept too: a pin's lastActive is frozen, so
		// one still idle a full TTL later is an orphan of a hand-off that
		// never completed (router crash mid-move), not a live move.
		s.mu.Lock()
		stale := s.lastActive.Before(cutoff)
		s.mu.Unlock()
		if stale {
			idle = append(idle, s)
			r.drop(s)
		}
	}
	r.mu.Unlock()
	for _, s := range idle {
		s.mu.Lock()
		retire(s, &r.metrics.SessionsGC)
		s.mu.Unlock()
	}
	return len(idle)
}

// Close finalizes every in-flight session and rejects all further
// requests with ErrClosed. It is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var open []*session
	for _, s := range r.sessions {
		open = append(open, s)
		r.drop(s)
	}
	r.mu.Unlock()
	for _, s := range open {
		s.mu.Lock()
		retire(s, &r.metrics.SessionsFinalized)
		s.mu.Unlock()
	}
	// retire above flushed every session's trailing window into the
	// store; only the internal memory store is ours to close.
	if r.ownStore {
		r.store.Close()
	}
}
