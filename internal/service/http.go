package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"emprof/internal/attrib"
	"emprof/internal/core"
)

// ContentTypeCapture marks an ingest body in the EMPROFCAP file format
// (header + samples); anything else is treated as ContentTypeRaw.
const ContentTypeCapture = "application/x-emprofcap"

// ContentTypeRaw marks an ingest body as headerless little-endian float64
// samples.
const ContentTypeRaw = "application/octet-stream"

// ingestChunk sizes the per-read transfer buffer for sample ingest.
// 256 KiB keeps the read-syscall count low for the multi-hundred-KiB
// bodies streaming clients push while staying a modest per-connection
// cost (the buffers are pooled).
const ingestChunk = 256 * 1024

// ingestBufPool recycles the 64 KiB ingest transfer buffers across
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

// Handler returns the service's HTTP routes. Every route is served under
// the /v1 prefix (the stable, versioned surface) and, for compatibility
// with pre-versioning clients, at its bare unversioned path as an alias.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		pattern  string // method + path, without the version prefix
		endpoint string // metrics label
		h        http.HandlerFunc
	}{
		{"POST /sessions", "create", s.handleCreate},
		{"GET /sessions", "list", s.handleList},
		{"POST /sessions/{id}/samples", "ingest", s.handleIngest},
		{"GET /sessions/{id}/profile", "profile", s.handleProfile},
		{"GET /sessions/{id}/profiles", "profiles", s.handleProfiles},
		{"GET /sessions/{id}/trace", "trace", s.handleTrace},
		{"DELETE /sessions/{id}", "finalize", s.handleFinalize},
		{"GET /metrics", "metrics", s.handleMetrics},
		// Hand-off protocol (fleet-internal; see handoff.go for the state
		// machine the router drives).
		{"POST /sessions/{id}/pin", "pin", s.handlePin},
		{"POST /sessions/{id}/unpin", "unpin", s.handleUnpin},
		{"POST /sessions/{id}/export", "export", s.handleExport},
		{"POST /sessions/{id}/forget", "forget", s.handleForget},
		{"POST /sessions/import", "import", s.handleImport},
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		h := s.instrument(rt.endpoint, rt.h)
		mux.HandleFunc(method+" /v1"+path, h)
		mux.HandleFunc(rt.pattern, s.deprecated(h))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// deprecated wraps a bare unversioned alias route: it keeps serving
// (pre-versioning clients must not break), but every response carries a
// Deprecation header plus a Link to the /v1 successor, and the
// emprofd_deprecated_route_hits_total counter records the traffic so
// operators can see who still needs migrating. /v1 is the only supported
// surface; the aliases are scheduled for removal.
func (s *Server) deprecated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "</v1"+r.URL.Path+">; rel=\"successor-version\"")
		s.reg.metrics.DeprecatedRouteHits.Add(1)
		h(w, r)
	}
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

	format := formatRaw
	if strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeCapture) {
		format = formatCapture
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
	res, err := s.reg.ingest(sess, format, r.ContentLength, offset, next)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// HeaderOffset is the ingest request header carrying the session-stream
// sample index of the body's first sample (raw format only). Offset-
// tagged pushes are idempotent: a retry whose predecessor partially (or
// fully, with the response lost) landed skips the already-ingested
// prefix instead of double-counting it.
const HeaderOffset = "X-Emprof-Offset"

func (s *Server) handlePin(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Pin(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleUnpin(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Unpin(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.Export(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleForget(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Forget(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
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
	// bytes are those writeJSON produces for a Registry.Snapshot result.
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	if err := s.reg.SnapshotJSON(r.PathValue("id"), buf); err != nil {
		writeErr(w, err)
		return
	}
	writeBody(w, http.StatusOK, buf)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, err := s.reg.Trace(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	prof, err := s.reg.Finalize(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.metrics.WriteTo(w, s.reg.ActiveSessions())
	if st := s.reg.Store(); st != nil {
		s.reg.metrics.WriteStoreStats(w, st.Stats())
	}
}
