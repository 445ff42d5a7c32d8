package emprof

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"emprof/internal/service"
)

// SessionInfo is the service's list-endpoint view of one live profiling
// session.
type SessionInfo = service.SessionInfo

// SessionSnapshot is a live profile snapshot from the service: the causal
// profile so far, ingest progress, and a per-stall confidence histogram.
type SessionSnapshot = service.Snapshot

// SessionSpec describes a profiling session to open on an emprofd
// daemon.
type SessionSpec struct {
	// SampleRate and ClockHz are the acquisition metadata of the signal
	// about to be streamed (required; usually Capture.SampleRate and
	// Capture.ClockHz).
	SampleRate float64
	ClockHz    float64
	// Device optionally labels the profiled target.
	Device string
	// Config optionally overrides the profiler configuration; nil means
	// DefaultConfig.
	Config *Config
}

// Client talks to an emprofd profiling daemon (cmd/emprofd) or a fleet
// router (emprofd -router). The zero value is not usable; construct with
// NewClient.
//
// Transient failures — network errors and 429/502/503/504 — are retried
// with full-jitter exponential backoff (each sleep is uniform in
// [0, base<<attempt], so a fleet of clients released by one shard
// mark-down does not retry in lockstep). Every request is safe to retry:
// GETs and finalize are idempotent, a lost create response at worst
// leaks a session for the idle TTL to collect, and every push of samples
// is tagged with its stream offset (service.HeaderOffset), so the daemon
// skips whatever prefix of a retried body it already decoded. Uploads thus
// survive router hand-offs, dropped connections and lost responses
// without loss or double counting.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:7979".
	BaseURL string
	// HTTPClient, when nil, is a package-wide client whose transport
	// moves a full push per write (defaultHTTPClient).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts per request (default 4).
	MaxRetries int
	// RetryBaseDelay scales the backoff: attempt n sleeps uniform in
	// [0, RetryBaseDelay<<n] (default 100ms base).
	RetryBaseDelay time.Duration
	// RetryRand, when set, supplies the jitter draws in [0, 1) — tests
	// inject a deterministic source. Nil means math/rand.
	RetryRand func() float64
	// ChunkSamples is the number of samples per upload request in
	// StreamCapture (default 65536, i.e. 512 KiB bodies).
	ChunkSamples int
	// UserAgent, when non-empty, is sent as the User-Agent header on
	// every request (default: Go's http package default).
	UserAgent string
}

// ClientOption configures a Client at construction; see WithHTTPClient
// and WithUserAgent. The retry policy is set through the Client's
// exported fields (MaxRetries, RetryBaseDelay).
type ClientOption func(*Client)

// WithHTTPClient makes the client issue requests through hc instead of
// the package's shared pooled transport.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.HTTPClient = hc }
}

// WithUserAgent sets the User-Agent header sent with every request.
func WithUserAgent(ua string) ClientOption {
	return func(c *Client) { c.UserAgent = ua }
}

// NewClient returns a client for the daemon (or fleet router) at
// baseURL, configured by the given options.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{BaseURL: baseURL}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// defaultHTTPClient backs every Client that did not bring its own. The
// stock transport flushes request bodies through a 4 KiB write buffer,
// which turns each streamed push (hundreds of kilobytes of samples)
// into dozens of write syscalls; the enlarged buffers move a full chunk
// per syscall. Shared package-wide so idle connections pool across
// Client values, as they did with http.DefaultClient.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     256 << 10,
		ReadBufferSize:      256 << 10,
	},
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 4
}

// retryDelay draws the full-jitter backoff sleep for one attempt:
// uniform in [0, base<<attempt]. Decorrelated sleeps are what keep a
// fleet of clients from hammering a recovering shard in synchronized
// waves after a mark-down releases them all at once.
func (c *Client) retryDelay(attempt int) time.Duration {
	d := c.RetryBaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	r := c.RetryRand
	if r == nil {
		r = rand.Float64
	}
	return time.Duration(r() * float64(d<<attempt))
}

// transientStatus reports whether an HTTP status indicates a failure
// worth retrying.
func transientStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do issues one request with retry/backoff, decoding a JSON response into
// out when it is non-nil. body, when non-nil, is replayed on each retry;
// hdr, when non-nil, is added to every attempt.
func (c *Client) do(ctx context.Context, method, path, contentType string, hdr http.Header, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.retryDelay(attempt - 1)):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if c.UserAgent != "" {
			req.Header.Set("User-Agent", c.UserAgent)
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		bp := respBufPool.Get().(*[]byte)
		data, rerr := readBodyInto(bp, resp.Body, resp.ContentLength)
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			var derr error
			switch {
			case rerr != nil:
				derr = rerr
			case out == nil:
			default:
				// Types with a fast decoder (SessionSnapshot, Profile,
				// ProfilesResponse) decode directly: they parse the
				// compact shape encoding/json writes and fall back to
				// the stdlib for anything else, erring exactly when it
				// would (fuzzed), so skipping encoding/json's validation
				// pre-scan is safe. The decoders copy everything they
				// keep, so the read buffer can be recycled immediately.
				if u, ok := out.(json.Unmarshaler); ok {
					derr = u.UnmarshalJSON(data)
				} else {
					derr = json.Unmarshal(data, out)
				}
			}
			respBufPool.Put(bp)
			return derr
		}
		// A 404 without the service's JSON error body means the route is
		// absent from the daemon's mux (an older daemon that predates the
		// endpoint); APIError.Is surfaces it as ErrUnsupportedEndpoint
		// rather than ErrSessionNotFound.
		var ae apiError
		_ = json.Unmarshal(data, &ae)
		respBufPool.Put(bp)
		lastErr = &APIError{StatusCode: resp.StatusCode, Message: ae.Error}
		if !transientStatus(resp.StatusCode) {
			return lastErr
		}
	}
	return fmt.Errorf("%w: %w", ErrRetriesExhausted, lastErr)
}

// maxResponseBody bounds how much of a response the client will buffer.
const maxResponseBody = 64 << 20

// respBufPool recycles response read buffers. Profile snapshots run to
// hundreds of kilobytes and are fetched repeatedly while streaming;
// allocating a fresh buffer per response made the GC a measurable share
// of ingest throughput. Buffers go back to the pool inside do() once the
// decoded value (which copies everything it keeps) has been produced.
var respBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

// readBodyInto drains a response body into bp's buffer, growing it as
// needed and sizing it up front from Content-Length when the server
// declared one (the service sets it on profile responses).
func readBodyInto(bp *[]byte, body io.Reader, contentLength int64) ([]byte, error) {
	buf := (*bp)[:0]
	if n := contentLength; n > 0 && n <= maxResponseBody {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		*bp = buf
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	lr := io.LimitReader(body, maxResponseBody)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		*bp = buf
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// apiError mirrors the service's error body.
type apiError struct {
	Error string `json:"error"`
}

// CreateSession opens a profiling session on the daemon and returns its
// ID.
func (c *Client) CreateSession(ctx context.Context, spec SessionSpec) (string, error) {
	req := service.CreateRequest{
		SampleRate: spec.SampleRate,
		ClockHz:    spec.ClockHz,
		Device:     spec.Device,
		Config:     spec.Config,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var resp service.CreateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", "application/json", nil, body, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// PushSamplesAt uploads one block whose first sample is at session
// stream index offset (the total number of samples pushed to the
// session before this block, across all callers). The offset tag makes
// the push idempotent: if a previous attempt partially landed — or
// landed fully with the response lost — the daemon skips the decoded
// prefix of the retried body, so the block is retried on any transient
// failure, network errors included, without risking double ingest. It
// returns the session's ingest totals after the push.
func (c *Client) PushSamplesAt(ctx context.Context, id string, offset int64, samples []float64) (service.IngestResult, error) {
	hdr := http.Header{service.HeaderOffset: []string{strconv.FormatInt(offset, 10)}}
	var res service.IngestResult
	bp, body := encodeSamples(samples)
	err := c.do(ctx, http.MethodPost,
		service.SessionPath(id, "/samples"), service.ContentTypeRaw, hdr, body, &res)
	if err == nil {
		recycleEncBuf(bp)
	}
	return res, err
}

// encBufPool recycles sample-encode buffers across pushes. A buffer is
// returned to the pool ONLY after its request succeeded: on any failure
// the transport's write loop may still be draining the bytes.Reader
// asynchronously (e.g. the server replied before reading the whole
// body), so the buffer is dropped to the garbage collector instead of
// being handed to a concurrent push mid-read.
var encBufPool sync.Pool

// encodeSamples encodes samples into a pooled little-endian buffer. The
// caller must pass the returned handle to recycleEncBuf once — and only
// once — the request (including every retry) has completed successfully.
func encodeSamples(samples []float64) (*[]byte, []byte) {
	bp, _ := encBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	need := len(samples) * 8
	if cap(*bp) < need {
		*bp = make([]byte, need)
	}
	body := (*bp)[:need]
	*bp = body
	for i, v := range samples {
		binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(v))
	}
	return bp, body
}

func recycleEncBuf(bp *[]byte) { encBufPool.Put(bp) }

// sessionOffset asks the daemon for a session's current stream position
// via an empty push — idempotent by construction, so it retries freely.
func (c *Client) sessionOffset(ctx context.Context, id string) (int64, error) {
	var res service.IngestResult
	if err := c.do(ctx, http.MethodPost,
		service.SessionPath(id, "/samples"), service.ContentTypeRaw, nil, []byte{}, &res); err != nil {
		return 0, err
	}
	return res.SamplesIngested, nil
}

// StreamCapture uploads a whole capture to a session in ChunkSamples
// blocks — the file-less equivalent of SaveCapture + "emprof -i": the
// daemon profiles the samples as they arrive. It first learns the
// session's current stream position, then offset-tags every block
// (PushSamplesAt), so the upload rides out shard hand-offs and lost
// responses exactly once per sample — including when the capture
// continues an earlier upload to the same session.
func (c *Client) StreamCapture(ctx context.Context, id string, capture *Capture) error {
	chunk := c.ChunkSamples
	if chunk <= 0 {
		chunk = 65536
	}
	base, err := c.sessionOffset(ctx, id)
	if err != nil {
		return fmt.Errorf("reading session stream position: %w", err)
	}
	for off := 0; off < len(capture.Samples); off += chunk {
		end := off + chunk
		if end > len(capture.Samples) {
			end = len(capture.Samples)
		}
		if _, err := c.PushSamplesAt(ctx, id, base+int64(off), capture.Samples[off:end]); err != nil {
			return fmt.Errorf("streaming samples [%d:%d): %w", off, end, err)
		}
	}
	return nil
}

// Profile fetches the live snapshot of a session: the causal profile of
// everything decided so far, without disturbing the stream.
func (c *Client) Profile(ctx context.Context, id string) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	if err := c.do(ctx, http.MethodGet, service.SessionPath(id, "/profile"), "", nil, nil, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Finalize drains the session's pipeline and returns the final profile —
// identical to NewAnalyzer(cfg).Run over the same samples. The session is gone
// afterwards.
func (c *Client) Finalize(ctx context.Context, id string) (*Profile, error) {
	var prof Profile
	if err := c.do(ctx, http.MethodDelete, service.SessionPath(id, ""), "", nil, nil, &prof); err != nil {
		return nil, err
	}
	return &prof, nil
}

// SessionTrace is the trace endpoint's view of a session: the analyzer's
// retained decision events (oldest first) with drop accounting.
type SessionTrace = service.TraceResponse

// Trace fetches a session's retained decision-trace events — the ring of
// recent dip_candidate/stall_accepted/stall_rejected/resync/quality_flag
// records the daemon keeps per session — without disturbing the stream.
// Against a daemon too old to serve /v1/sessions/{id}/trace the error
// matches ErrUnsupportedEndpoint (and not ErrSessionNotFound); other
// session calls on the same client are unaffected.
func (c *Client) Trace(ctx context.Context, id string) (*SessionTrace, error) {
	var tr SessionTrace
	if err := c.do(ctx, http.MethodGet, service.SessionPath(id, "/trace"), "", nil, nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// ListSessions returns the daemon's live sessions.
func (c *Client) ListSessions(ctx context.Context) ([]SessionInfo, error) {
	var out []SessionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/sessions", "", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProfilesRequest selects a slice of a session's rolling profile
// windows. The zero value asks for every retained window.
type ProfilesRequest struct {
	// From and To bound the query in stream seconds: windows overlapping
	// [From, To) are returned. Zero means unbounded on that side.
	From, To float64
	// Limit caps the page size; pair with After to walk the sequence.
	Limit int
	// After is the pagination cursor: only windows with a strictly
	// greater index are returned. The cursor is sent when HasAfter is
	// set or After is positive; the zero value starts at the front.
	After int64
	// HasAfter marks After as an explicit cursor. Cursor loops should
	// copy a ProfilesResponse's NextAfter into After and set HasAfter: a
	// page can legitimately end at window index 0 (NextAfter = 0), which
	// a bare After cannot tell apart from "start at the front".
	HasAfter bool
	// Last, when positive, asks for the newest Last windows instead of
	// the oldest — what a live "tail" display wants.
	Last int
}

// ProfilesResponse is the daemon's answer to a Profiles query: the
// session's retained rolling windows, oldest first, with pagination
// cursors. MergeWindows over a session's complete tumbling sequence
// reproduces its Finalize profile exactly.
type ProfilesResponse = service.ProfilesResponse

// Profiles fetches a session's rolling profile windows — the continuous
// profiling timeline — from a daemon or a fleet router (which reassembles
// windows scattered across shards by hand-offs). Sessions remain
// queryable after Finalize for as long as the daemon's window store
// retains them; a query for a range that retention already evicted
// reports ErrWindowNotRetained.
func (c *Client) Profiles(ctx context.Context, id string, req ProfilesRequest) (*ProfilesResponse, error) {
	q := url.Values{}
	if req.From > 0 {
		q.Set("from", strconv.FormatFloat(req.From, 'g', -1, 64))
	}
	if req.To > 0 {
		q.Set("to", strconv.FormatFloat(req.To, 'g', -1, 64))
	}
	if req.Limit > 0 {
		q.Set("limit", strconv.Itoa(req.Limit))
	}
	if req.HasAfter || req.After > 0 {
		q.Set("after", strconv.FormatInt(req.After, 10))
	}
	if req.Last > 0 {
		q.Set("last", strconv.Itoa(req.Last))
	}
	path := service.SessionPath(id, "/profiles")
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp ProfilesResponse
	if err := c.do(ctx, http.MethodGet, path, "", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
