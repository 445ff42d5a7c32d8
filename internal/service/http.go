package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"emprof/internal/attrib"
	"emprof/internal/core"
)

// ContentTypeRaw marks an ingest body as headerless little-endian float64
// samples, the only ingest format. Any Content-Type is read as raw except
// an EMPROFCAP capture file's, which is refused (415) rather than have
// its header profiled as samples: stream a file's samples, and give its
// metadata to the session-create call.
const ContentTypeRaw = "application/octet-stream"

// ingestChunk sizes the per-read transfer buffer for sample ingest.
// 256 KiB keeps the read-syscall count low for the multi-hundred-KiB
// bodies streaming clients push while staying a modest per-connection
// cost (the buffers are pooled).
const ingestChunk = 256 * 1024

// ingestBufPool recycles the ingestChunk-sized transfer buffers across
// requests; handleIngest is the hot path of the whole daemon and used to
// allocate one per call.
var ingestBufPool = sync.Pool{
	New: func() any { b := make([]byte, ingestChunk); return &b },
}

// Server ties the registry, metrics, and HTTP handlers together.
type Server struct {
	reg *Registry
}

// New builds a service with the given limits.
func New(cfg Config) *Server {
	return &Server{reg: NewRegistry(cfg, NewMetrics())}
}

// Registry exposes the session registry (tests and the daemon's GC loop).
func (s *Server) Registry() *Registry { return s.reg }

// Close gracefully shuts the service down: every in-flight session is
// finalized and later requests are answered with 503.
func (s *Server) Close() { s.reg.Close() }

// StartGC launches the idle-session sweeper at the given interval and
// returns a function that stops it.
func (s *Server) StartGC(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = s.reg.cfg.IdleTTL / 4
		if interval < time.Second {
			interval = time.Second
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				s.reg.Sweep(now)
			}
		}
	}()
	return func() { close(done) }
}

// SessionPath is the route of one session's sub-resource, e.g.
// SessionPath(id, "/samples"), with the ID path-escaped: session IDs may
// hold '%', '?' and '#'.
func SessionPath(id, suffix string) string {
	return "/v1/sessions/" + url.PathEscape(id) + suffix
}

// Handler returns the service's HTTP routes, each served under the /v1
// prefix.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		pattern  string
		endpoint string // metrics label
		h        http.HandlerFunc
	}{
		{"POST /v1/sessions", "create", s.handleCreate},
		{"GET /v1/sessions", "list", s.handleList},
		{"POST /v1/sessions/{id}/samples", "ingest", s.handleIngest},
		{"GET /v1/sessions/{id}/profile", "profile", s.handleProfile},
		{"GET /v1/sessions/{id}/profiles", "profiles", s.handleProfiles},
		{"GET /v1/sessions/{id}/trace", "trace", reply(s.reg.Trace)},
		{"DELETE /v1/sessions/{id}", "finalize", reply(s.reg.Finalize)},
		{"GET /v1/metrics", "metrics", s.handleMetrics},
		// Hand-off protocol (fleet-internal; see handoff.go for the state
		// machine the router drives).
		{"POST /v1/sessions/{id}/pin", "pin", ack(s.reg.Pin)},
		{"POST /v1/sessions/{id}/unpin", "unpin", ack(s.reg.Unpin)},
		{"POST /v1/sessions/{id}/export", "export", reply(s.reg.Export)},
		{"POST /v1/sessions/{id}/forget", "forget", ack(s.reg.Forget)},
		{"POST /v1/sessions/import", "import", s.handleImport},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, s.instrument(rt.endpoint, rt.h))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline hooks through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with per-endpoint request/latency metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.reg.metrics.ObserveRequest(endpoint, sw.code, time.Since(start).Seconds())
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// respBufPool recycles response-encode buffers across requests; profile
// snapshots can run to hundreds of kilobytes and are requested every few
// pushes on the ingest hot path.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeBody(w, code, buf)
}

// writeBody sends an encoded JSON body with an explicit Content-Length,
// so the client can size its read buffer.
func writeBody(w http.ResponseWriter, code int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// writeErr maps registry errors onto status codes.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrFull), errors.Is(err, ErrBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, ErrPinned):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrWindowNotRetained):
		code = http.StatusGone
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// CreateRequest is the POST /v1/sessions body.
type CreateRequest struct {
	// SampleRate and ClockHz are the acquisition metadata of the signal
	// about to be streamed (required).
	SampleRate float64 `json:"sample_rate"`
	ClockHz    float64 `json:"clock_hz"`
	// Device optionally labels the profiled target.
	Device string `json:"device,omitempty"`
	// Config optionally overrides the profiler configuration; omitted
	// means core.DefaultConfig.
	Config *core.Config `json:"config,omitempty"`
	// ID optionally assigns the session ID client-side. The fleet router
	// uses this so a session's owning shard is computable from its ID
	// alone; ordinary clients leave it empty (server-assigned).
	ID string `json:"id,omitempty"`
	// Attribution optionally attaches a trained attribution model to the
	// session (overriding any daemon-wide model): rolling windows then
	// carry live stall→code-region attribution.
	Attribution *attrib.Model `json:"attribution,omitempty"`
}

// CreateResponse is the POST /v1/sessions reply.
type CreateResponse struct {
	ID string `json:"id"`
	// MaxSessionBytes echoes the per-session ingest budget so clients can
	// size their streams.
	MaxSessionBytes int64 `json:"max_session_bytes"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("service: bad create body: %w", err))
		return
	}
	cfg := core.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	id, err := s.reg.CreateSession(CreateOpts{
		ID: req.ID, Device: req.Device,
		SampleRate: req.SampleRate, ClockHz: req.ClockHz,
		Config: cfg, Attribution: req.Attribution,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{ID: id, MaxSessionBytes: s.reg.cfg.MaxSessionBytes})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if s.closedErr(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.reg.List())
}

func (s *Server) closedErr(w http.ResponseWriter) bool {
	s.reg.mu.Lock()
	closed := s.reg.closed
	s.reg.mu.Unlock()
	if closed {
		writeErr(w, ErrClosed)
	}
	return closed
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sess, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	// Per-request read deadline: a stalled or malicious uploader cannot
	// pin a session (and its lock) forever.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(s.reg.cfg.ReadTimeout))

	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-emprofcap") {
		writeJSON(w, http.StatusUnsupportedMediaType, apiError{Error: "service: capture files are not ingested; push their samples raw"})
		return
	}
	offset := int64(-1)
	if h := r.Header.Get(HeaderOffset); h != "" {
		v, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || v < 0 {
			writeErr(w, fmt.Errorf("service: bad %s header %q", HeaderOffset, h))
			return
		}
		offset = v
	}
	bp := ingestBufPool.Get().(*[]byte)
	defer ingestBufPool.Put(bp)
	buf := *bp
	next := func() ([]byte, error) {
		n, rerr := io.ReadFull(r.Body, buf)
		if rerr == io.ErrUnexpectedEOF {
			rerr = io.EOF
		}
		return buf[:n], rerr
	}
	res, err := s.reg.ingest(sess, r.ContentLength, offset, next)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// HeaderOffset is the ingest request header carrying the session-stream
// sample index of the body's first sample. Offset-tagged pushes are
// idempotent: a retry whose predecessor partially (or fully, with the
// response lost) landed skips the already-ingested prefix instead of
// double-counting it.
const HeaderOffset = "X-Emprof-Offset"

// ack serves a session route whose step answers nothing but success:
// 200 with an empty object, or the step's error.
func ack(step func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := step(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	}
}

// reply serves a session route whose step returns a value: 200 with it
// encoded, or the step's error.
func reply[T any](step func(id string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := step(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// maxImportBody bounds a hand-off import body (64 MiB: analyzer state is
// a few windows of float64s plus the stall list; far below this).
const maxImportBody = 64 << 20

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var st SessionState
	if err := json.NewDecoder(io.LimitReader(r.Body, maxImportBody)).Decode(&st); err != nil {
		writeErr(w, fmt.Errorf("service: bad import body: %w", err))
		return
	}
	if err := s.reg.Import(&st); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, struct{}{})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	// Encoded under the session lock (see Registry.SnapshotJSON); the
	// bytes are those writeJSON produces for the session's Snapshot.
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	if err := s.reg.SnapshotJSON(r.PathValue("id"), buf); err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.metrics.WriteTo(w, s.reg.ActiveSessions())
	if st := s.reg.Store(); st != nil {
		s.reg.metrics.WriteStoreStats(w, st.Stats())
	}
}
