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
	// WindowStrideS is the window stride in stream seconds; 0 means
	// tumbling (stride = width). Overlapping windows do not merge — see
	// core.MergeWindows.
	WindowStrideS float64
	// QueueBlocks bounds the per-session decode→analysis queue, in ingest
	// blocks. A full queue blocks further body reads — backpressure rides
	// the transport instead of growing memory. 0 means the default (8).
	QueueBlocks int
	// Store is the window sink; nil with WindowS > 0 means an internal
	// memory-only store (windows then do not survive a restart).
	Store *profstore.Store
	// Attrib optionally carries a trained attribution model applied to
	// every session: sealed windows then carry live stall→code-region
	// attribution (ProfileWindow.Regions). Per-session models via
	// CreateRequest.Attribution override it.
	Attrib *attrib.Model
	// Logf, when set, receives operational log lines the metrics alone
	// would bury (window-store append failures and the like); nil
	// discards them.
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
	DefaultQueueBlocks     = 8
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
	if c.QueueBlocks <= 0 {
		c.QueueBlocks = DefaultQueueBlocks
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
	// ErrFull is returned when the registry holds MaxSessions sessions
	// (HTTP 429: back off and retry).
	ErrFull = errors.New("service: session registry full")
	// ErrBudget is returned when an ingest would exceed the session byte
	// budget before any of it is consumed (HTTP 429).
	ErrBudget = errors.New("service: session byte budget exhausted")
	// ErrClosed is returned after Close (HTTP 503).
	ErrClosed = errors.New("service: shutting down")
	// ErrNotFound is returned for unknown session IDs (HTTP 404).
	ErrNotFound = errors.New("service: no such session")
	// ErrPoisoned is returned when ingesting into a session whose stream
	// previously failed to decode (HTTP 400).
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

// session is one live profiling stream, structured as two stages joined
// by a bounded queue (see pipeline.go): the decode stage (ingest, under
// mu) validates and decodes wire bytes and enqueues sample blocks; the
// analysis stage (one worker goroutine, under anMu) drains them through
// the analyzer, the windower, and the attributor. Result-serving paths
// first drain (analyzed catches up to enqueued) so every read observes
// its own session's completed writes.
type session struct {
	id         string
	device     string
	sampleRate float64
	clockHz    float64
	created    time.Time

	mu         sync.Mutex
	lastActive time.Time
	an         *core.StreamAnalyzer
	// emit is the decode→analysis boundary bound once at session
	// creation, so the hot ingest loop passes a prebuilt func value to
	// the decoder instead of allocating a closure per request.
	emit      func([]float64)
	dec       *em.Decoder // nil until the first ingest chooses a wire format
	bytes     int64
	finalized bool
	final     *core.Profile
	poison    error // first decode error; the session rejects further ingest
	// pinned marks the session frozen for hand-off: ingest, snapshot and
	// finalize answer ErrPinned (503) until the move completes, so no
	// sample can land on two shards.
	pinned bool
	// ring retains the session's most recent analyzer decision events
	// (GET /v1/sessions/{id}/trace); nil when per-session tracing is
	// disabled. The ring is internally synchronised.
	ring *trace.Ring

	// Analysis stage (pipeline.go). queue carries sample blocks decode →
	// worker; free recycles their backing arrays (a channel, not a
	// sync.Pool — Put/Get of a slice would box it and break the zero-
	// alloc ingest path). enqueued/queueClosed are guarded by mu;
	// analyzed/workerErr by anMu; the worker never takes mu (lock order
	// is mu → anMu).
	queue       chan []float64
	free        chan []float64
	workerDone  chan struct{}
	enqueued    int64
	queueClosed bool

	anMu      sync.Mutex
	cond      *sync.Cond // signals analyzed advancing
	analyzed  int64
	workerErr error

	// Store stage (pipeline.go). winq carries sealed windows from the
	// seal point (analysis worker, or the finalize path) to a per-session
	// store worker, so persisting a window — encoding plus, in disk mode,
	// the write — never runs on the analysis stage. winqClosed is guarded
	// by mu (like queueClosed); winSealed/winStored by winMu; the store
	// worker takes only winMu (lock order is mu → anMu → winMu).
	winq       chan *core.ProfileWindow
	winqDone   chan struct{}
	winqClosed bool

	winMu     sync.Mutex
	winCond   *sync.Cond // signals winStored advancing
	winSealed int64
	winStored int64

	// win slices the analyzed stream into rolling windows; attr attributes
	// them to code regions. Both live on the analysis stage (anMu); nil
	// when the feature is off.
	win  *core.Windower
	attr *attrib.StreamAttributor
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

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Create opens a new session wrapping a streaming analyzer for a signal
// with the given acquisition metadata.
func (r *Registry) Create(device string, sampleRate, clockHz float64, cfg core.Config) (string, error) {
	return r.CreateWithID("", device, sampleRate, clockHz, cfg)
}

// CreateWithID opens a session under a client-assigned ID — the fleet
// router assigns IDs itself so that any node can recompute a session's
// owning shard from the ID alone. An empty id means server-assigned
// (Create). A duplicate ID is ErrConflict.
func (r *Registry) CreateWithID(id, device string, sampleRate, clockHz float64, cfg core.Config) (string, error) {
	return r.CreateSession(CreateOpts{ID: id, Device: device, SampleRate: sampleRate, ClockHz: clockHz, Config: cfg})
}

// CreateOpts parameterises CreateSession — the options-struct face of
// session creation, for callers that need more than the positional
// Create/CreateWithID surface.
type CreateOpts struct {
	// ID optionally assigns the session ID client-side; empty means
	// server-assigned.
	ID     string
	Device string
	// SampleRate and ClockHz are the signal's acquisition metadata
	// (required).
	SampleRate, ClockHz float64
	// Config is the profiler configuration (core.DefaultConfig for the
	// zero value — callers that want defaults must set it explicitly,
	// since the zero core.Config is not valid).
	Config core.Config
	// Attribution optionally attaches a trained model to this session,
	// overriding Config.Attrib; windows then carry Regions.
	Attribution *attrib.Model
}

// CreateSession opens a session from an options struct.
func (r *Registry) CreateSession(o CreateOpts) (string, error) {
	if err := validateSessionID(o.ID); err != nil {
		return "", err
	}
	if !(o.SampleRate > 0) || !(o.ClockHz > 0) {
		return "", fmt.Errorf("service: invalid acquisition metadata rate=%v clock=%v", o.SampleRate, o.ClockHz)
	}
	an, err := core.NewStreamAnalyzer(o.Config, o.SampleRate, o.ClockHz)
	if err != nil {
		return "", err
	}
	var win *core.Windower
	if r.cfg.WindowS > 0 {
		win, err = core.NewWindower(r.cfg.WindowS, r.cfg.WindowStrideS, o.SampleRate, o.ClockHz)
		if err != nil {
			return "", err
		}
	}
	var attr *attrib.StreamAttributor
	if model := firstModel(o.Attribution, r.cfg.Attrib); model != nil && win != nil {
		attr, err = attrib.NewStreamAttributor(model)
		if err != nil {
			return "", err
		}
	}
	r.attachObservers(an, win)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", ErrClosed
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.metrics.SessionsRejected.Add(1)
		return "", ErrFull
	}
	id := o.ID
	if id == "" {
		id = newSessionID()
	} else if _, ok := r.sessions[id]; ok {
		return "", fmt.Errorf("%w: session %q already exists", ErrConflict, id)
	}
	now := r.cfg.Now()
	s := &session{
		id:         id,
		device:     o.Device,
		sampleRate: o.SampleRate,
		clockHz:    o.ClockHz,
		created:    now,
		lastActive: now,
		an:         an,
		ring:       r.newRing(an),
		win:        win,
		attr:       attr,
	}
	r.startPipeline(s)
	r.sessions[s.id] = s
	r.metrics.SessionsTotal.Add(1)
	return s.id, nil
}

// firstModel picks the per-session attribution model over the daemon
// default.
func firstModel(models ...*attrib.Model) *attrib.Model {
	for _, m := range models {
		if m != nil {
			return m
		}
	}
	return nil
}

// validateSessionID bounds client-assigned IDs; empty means
// server-assigned and is always fine.
func validateSessionID(id string) error {
	if len(id) > 128 {
		return fmt.Errorf("service: session ID longer than 128 bytes")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '/' {
			return fmt.Errorf("service: session ID contains byte %q", c)
		}
	}
	return nil
}

// attachObservers wires a session analyzer into the shared metrics (the
// stall counter) and, when windowing is on, into the session's windower.
// The OnStall hook runs inside PushBlock on the analysis worker, so the
// windower needs no locking of its own.
func (r *Registry) attachObservers(an *core.StreamAnalyzer, win *core.Windower) {
	stalls := &r.metrics.StallsDetected
	if win == nil {
		an.OnStall = func(core.Stall) { stalls.Add(1) }
		return
	}
	an.OnStall = func(st core.Stall) {
		stalls.Add(1)
		win.Observe(st)
	}
}

// newRing assembles a session's decision-trace observers: the shared
// trace aggregator plus, unless disabled, a per-session ring retaining
// recent events for the trace endpoint. Observers are assembled as
// interfaces (never typed-nil pointers) so Multi can drop absent ones.
// It returns the ring (nil when disabled) after attaching the observer.
func (r *Registry) newRing(an *core.StreamAnalyzer) *trace.Ring {
	var sinks []trace.Observer
	var ring *trace.Ring
	if r.cfg.TraceRing > 0 {
		ring = trace.NewRing(r.cfg.TraceRing)
		sinks = append(sinks, ring)
	}
	if r.metrics.Trace != nil {
		sinks = append(sinks, r.metrics.Trace)
	}
	an.SetObserver(trace.Multi(sinks...))
	return ring
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

// wireFormat selects how an ingest body is decoded.
type wireFormat int

const (
	// formatRaw is a headerless stream of little-endian float64 samples;
	// the acquisition metadata came from session creation.
	formatRaw wireFormat = iota
	// formatCapture is the EMPROFCAP file format; its header metadata
	// must match the session's.
	formatCapture
)

// ingest feeds one body chunk-by-chunk into the session's decoder and
// analyzer. next returns successive byte chunks ((nil, io.EOF) at end);
// the caller owns transport concerns (deadlines, chunk sizing).
// declaredLen, when >= 0 (a Content-Length), is checked against the byte
// budget before anything is consumed, so a rejected request ingests
// nothing and is safe to retry. Bodies without a declared length are
// cut off mid-stream when the budget runs out.
//
// offset, when >= 0, is the session-stream index of the body's first
// sample (the X-Emprof-Offset header, raw format only): the portion of
// the body the session has already decoded — a retry of a push whose
// response was lost, or that died mid-body — is skipped instead of
// re-ingested, which is what makes client retries on 429/502/503 safe
// from double counting. An offset beyond the ingested stream is a
// conflict: samples in between were lost for good and the profile can
// no longer be trusted to match the capture.
func (r *Registry) ingest(s *session, format wireFormat, declaredLen, offset int64, next func() ([]byte, error)) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return IngestResult{}, ErrNotFound
	}
	if s.pinned {
		return IngestResult{}, ErrPinned
	}
	if s.poison != nil {
		return IngestResult{}, fmt.Errorf("%w: %v", ErrPoisoned, s.poison)
	}
	if err := s.pipelineErr(); err != nil {
		s.poison = err
		return IngestResult{}, fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	if offset >= 0 && format != formatRaw {
		return IngestResult{}, fmt.Errorf("service: push offsets apply to raw-format ingest only")
	}
	if declaredLen >= 0 {
		// Charge only the bytes this request can actually ingest: an
		// offset-tagged retry skips the already-decoded prefix, so that
		// prefix must not count against the budget again — otherwise a
		// retry of a push that mostly landed near MaxSessionBytes draws
		// 429 forever even though its effective new bytes fit.
		effective := declaredLen
		if offset >= 0 && s.dec != nil {
			if skip := (s.dec.Emitted() - offset) * 8; skip > 0 {
				if skip > effective {
					skip = effective
				}
				effective -= skip
			}
		}
		if s.bytes+effective > r.cfg.MaxSessionBytes {
			return IngestResult{}, ErrBudget
		}
	}
	if s.dec == nil {
		if format == formatCapture {
			s.dec = em.NewStreamDecoder()
		} else {
			s.dec = em.NewRawDecoder()
		}
	}
	var skip int64
	if offset >= 0 {
		cur := s.dec.Emitted()
		if offset > cur {
			return r.ingestTotals(s), fmt.Errorf("%w: push offset %d beyond ingested stream (%d samples)", ErrConflict, offset, cur)
		}
		// The already-decoded prefix of this body is skipped below. Any
		// half-assembled word left by an interrupted request is a prefix
		// of sample cur, which this body resends whole: drop it so the
		// resent bytes aren't appended to stale ones.
		skip = (cur - offset) * 8
		s.dec.DropFragment()
	}
	for {
		chunk, err := next()
		if skip > 0 && len(chunk) > 0 {
			n := int64(len(chunk))
			if n > skip {
				n = skip
			}
			chunk = chunk[n:]
			skip -= n
		}
		if len(chunk) > 0 {
			if s.bytes+int64(len(chunk)) > r.cfg.MaxSessionBytes {
				return r.ingestTotals(s), ErrBudget
			}
			before := s.dec.Emitted()
			if derr := s.dec.FeedBlock(chunk, s.emit); derr != nil {
				s.poison = derr
				return r.ingestTotals(s), derr
			}
			s.bytes += int64(len(chunk))
			r.metrics.IngestBytes.Add(int64(len(chunk)))
			r.metrics.SamplesIngested.Add(s.dec.Emitted() - before)
			if !s.headerOK() {
				s.poison = fmt.Errorf("capture header metadata does not match session (header %v/%v)",
					headerRate(s.dec), headerClock(s.dec))
				return r.ingestTotals(s), s.poison
			}
			if s.dec.Trailing() > 0 {
				s.poison = fmt.Errorf("stream continues past the capture's declared sample count")
				return r.ingestTotals(s), s.poison
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

// headerOK checks EMPROFCAP header metadata against the session's once
// the header is available.
func (s *session) headerOK() bool {
	if !s.dec.HeaderDone() {
		return true
	}
	rate, clock, _ := s.dec.Meta()
	if rate == 0 && clock == 0 {
		return true // raw decoder: no header to check
	}
	return rate == s.sampleRate && clock == s.clockHz
}

func headerRate(d *em.Decoder) float64  { r, _, _ := d.Meta(); return r }
func headerClock(d *em.Decoder) float64 { _, c, _ := d.Meta(); return c }

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

// Snapshot returns the live profile of a session.
func (r *Registry) Snapshot(id string) (*Snapshot, error) {
	s, err := r.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinned {
		return nil, ErrPinned
	}
	s.lastActive = r.cfg.Now()
	s.drainLocked()
	return s.snapshotLocked(), nil
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
	s.drainLocked()
	var prof *core.Profile
	if s.final == nil {
		view := s.an.SnapshotView()
		prof = &view
	}
	return json.NewEncoder(buf).Encode(s.buildSnapshotLocked(prof))
}

func (s *session) snapshotLocked() *Snapshot {
	var prof *core.Profile
	if s.final == nil {
		prof = s.an.Snapshot()
	}
	return s.buildSnapshotLocked(prof)
}

// buildSnapshotLocked assembles the snapshot around a profile view of
// the analyzer (cloned or clone-free); finalized sessions pass nil and
// use the stored final profile instead.
func (s *session) buildSnapshotLocked(prof *core.Profile) *Snapshot {
	state := "active"
	if s.finalized {
		state = "finalized"
	}
	if prof == nil {
		prof = s.final
	}
	snap := &Snapshot{
		ID:              s.id,
		Device:          s.device,
		State:           state,
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
	// Drain so the trace reflects every decision the ingested samples
	// produced — same read-your-writes contract as Snapshot.
	s.drainLocked()
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

// Finalize drains a session's pipeline, removes it from the registry, and
// returns its final profile — the same profile a batch analysis of the
// full capture would produce.
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
	delete(r.sessions, id)
	r.mu.Unlock()
	defer s.mu.Unlock()
	s.finalizeLocked()
	r.metrics.SessionsFinalized.Add(1)
	return s.final, nil
}

func (s *session) finalizeLocked() {
	if s.finalized {
		return
	}
	// Stop the analysis stage first: drain the queue, close it, wait for
	// the worker — after this the analyzer is exclusively ours.
	s.stopPipelineLocked()
	s.final = s.an.Finalize()
	if s.win != nil {
		// Seal the trailing window; its OnWindow hook hands it to the
		// store stage with the stream's final quality, completing the
		// mergeable sequence.
		s.win.Flush(s.an.Pushed())
	}
	// Stop the store stage last: a finalized session leaves the registry,
	// after which the store is the only copy queries can reach — every
	// queued window must have landed before we let go.
	s.stopStoreStageLocked()
	s.finalized = true
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
		s.drainLocked()
		snap := s.an.Snapshot()
		info := SessionInfo{
			ID:              s.id,
			Device:          s.device,
			State:           "active",
			SampleRate:      snap.SampleRate,
			ClockHz:         snap.ClockHz,
			BytesIngested:   s.bytes,
			SamplesIngested: s.an.Pushed(),
			Stalls:          len(snap.Stalls),
			CreatedAt:       s.created,
			LastActiveAt:    s.lastActive,
		}
		if s.finalized {
			info.State = "finalized"
		} else if s.pinned {
			info.State = "pinned"
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
	for id, s := range r.sessions {
		// Pinned sessions are swept too: a pin's lastActive is frozen, so
		// one still idle a full TTL later is an orphan of a hand-off that
		// never completed (router crash mid-move), not a live move.
		s.mu.Lock()
		stale := s.lastActive.Before(cutoff)
		s.mu.Unlock()
		if stale {
			idle = append(idle, s)
			delete(r.sessions, id)
		}
	}
	r.mu.Unlock()
	for _, s := range idle {
		s.mu.Lock()
		s.finalizeLocked()
		s.mu.Unlock()
		r.metrics.SessionsGC.Add(1)
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
	for id, s := range r.sessions {
		open = append(open, s)
		delete(r.sessions, id)
	}
	r.mu.Unlock()
	for _, s := range open {
		s.mu.Lock()
		s.finalizeLocked()
		s.mu.Unlock()
		r.metrics.SessionsFinalized.Add(1)
	}
	// Finalize above flushed every session's trailing window into the
	// store; only the internal memory store is ours to close.
	if r.ownStore {
		r.store.Close()
	}
}
