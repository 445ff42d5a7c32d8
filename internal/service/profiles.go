package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"emprof/internal/core"
	"emprof/internal/profstore"
)

// ProfilesResponse is the GET /v1/sessions/{id}/profiles view: the
// session's retained rolling windows overlapping the queried time range,
// oldest first, with pagination cursors. A session can be queried while
// live ("active"/"pinned") and after it ended, as long as the store
// retains its windows ("detached").
type ProfilesResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// WindowS echoes the window width in stream seconds (live sessions
	// only; 0 on detached ones).
	WindowS float64 `json:"window_s,omitempty"`
	// SampleRate/ClockHz echo the acquisition metadata (live sessions
	// only) — what core.MergeWindows needs to reassemble a full profile.
	SampleRate float64 `json:"sample_rate,omitempty"`
	ClockHz    float64 `json:"clock_hz,omitempty"`

	Windows []core.ProfileWindow `json:"windows"`
	// Truncated reports that part of the requested range was evicted by
	// retention; the returned windows are the retained part.
	Truncated bool `json:"truncated,omitempty"`
	// More/NextAfter page: pass NextAfter as the next request's after=.
	More      bool  `json:"more,omitempty"`
	NextAfter int64 `json:"next_after,omitempty"`
	// LatestIndex is the newest retained window index (-1: none yet).
	LatestIndex int64 `json:"latest_index"`
}

// Profiles answers a window range query for a session: the response
// envelope, with Windows empty, and the page's windows as the JSON bytes
// the store holds for them, oldest first (EncodeProfiles joins the two).
// The error contract, from the API redesign:
//
//   - a live session that has not sealed a window yet (or a daemon with
//     windowing disabled) answers an empty 200 list, never 404 — the
//     session exists, it just has no windows;
//   - an ID neither live nor remembered by the store is ErrNotFound;
//   - a range lying entirely in evicted windows is ErrWindowNotRetained
//     (410): the data existed and is gone for good.
//
// Unlike SnapshotJSON, a pinned session still serves its persisted
// windows — reading the store cannot race the state hand-off.
func (r *Registry) Profiles(id string, q profstore.Query) (*ProfilesResponse, [][]byte, error) {
	r.mu.Lock()
	closed := r.closed
	s := r.sessions[id]
	r.mu.Unlock()
	if closed {
		return nil, nil, ErrClosed
	}
	resp := &ProfilesResponse{ID: id, Windows: []core.ProfileWindow{}, LatestIndex: -1}
	if s != nil {
		s.mu.Lock()
		s.lastActive = r.cfg.Now()
		resp.State = s.stateLocked()
		resp.SampleRate, resp.ClockHz = s.sampleRate, s.clockHz
		if s.win != nil {
			resp.WindowS = float64(s.win.WidthSamples()) / s.sampleRate
		}
		s.mu.Unlock()
	}
	if r.store == nil {
		if s == nil {
			return nil, nil, ErrNotFound
		}
		return resp, nil, nil
	}
	if s == nil {
		if !r.store.HasSession(id) {
			return nil, nil, ErrNotFound
		}
		resp.State = "detached"
	}
	res, err := r.store.QueryRaw(id, q)
	if err != nil {
		if errors.Is(err, profstore.ErrNotRetained) {
			return nil, nil, fmt.Errorf("%w: %v", ErrWindowNotRetained, err)
		}
		return nil, nil, err
	}
	resp.Truncated = res.Truncated
	resp.More = res.More
	resp.NextAfter = res.NextAfter
	resp.LatestIndex = res.LatestIndex
	return resp, res.Windows, nil
}

// windowsSlot is the empty windows array in an encoded envelope.
var windowsSlot = []byte(`"windows":[]`)

// EncodeProfiles appends the profiles body to buf: env encoded by
// encoding/json with its Windows empty, and windows — each a window's
// JSON as encoding/json wrote it — spliced into the "windows" array. The
// bytes are those of encoding env with the windows decoded into it, so a
// page is served without decoding or re-encoding a window. The first
// `"windows":[]` in the envelope is the field: the quotes of one inside a
// string value would be escaped.
func EncodeProfiles(buf *bytes.Buffer, env *ProfilesResponse, windows [][]byte) error {
	e := *env
	e.Windows = []core.ProfileWindow{}
	size := 256 + len(e.ID) + len(e.State)
	for _, w := range windows {
		size += len(w) + 1
	}
	buf.Grow(size)
	start := buf.Len()
	if err := json.NewEncoder(buf).Encode(&e); err != nil {
		return err
	}
	slot := bytes.Index(buf.Bytes()[start:], windowsSlot)
	if slot < 0 {
		return errors.New("service: encoded profiles envelope has no empty windows array")
	}
	at := start + slot + len(windowsSlot) - 1
	// The tail after "[" is the closing bracket, the fields after
	// windows and the encoder's newline: at most a few dozen bytes.
	var tailBuf [128]byte
	tail := append(tailBuf[:0], buf.Bytes()[at:]...)
	buf.Truncate(at)
	for i, w := range windows {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(w)
	}
	buf.Write(tail)
	return nil
}

// parseProfilesQuery maps the profiles route's query string onto a store
// query: from/to (stream seconds), limit, last, after (index cursor).
func parseProfilesQuery(r *http.Request) (profstore.Query, error) {
	q := profstore.Query{}
	vals := r.URL.Query()
	getFloat := func(key string) (float64, bool, error) {
		raw := vals.Get(key)
		if raw == "" {
			return 0, false, nil
		}
		v, err := strconv.ParseFloat(raw, 64)
		// NaN and Inf parse cleanly but name no point in the stream.
		if err != nil || !(v >= 0) || math.IsInf(v, 1) {
			return 0, false, fmt.Errorf("service: bad %s=%q (want finite seconds >= 0)", key, raw)
		}
		return v, true, nil
	}
	getInt := func(key string) (int64, bool, error) {
		raw := vals.Get(key)
		if raw == "" {
			return 0, false, nil
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return 0, false, fmt.Errorf("service: bad %s=%q (want integer >= 0)", key, raw)
		}
		return v, true, nil
	}
	var err error
	var ok bool
	if q.FromS, _, err = getFloat("from"); err != nil {
		return q, err
	}
	var to float64
	if to, ok, err = getFloat("to"); err != nil {
		return q, err
	}
	if ok {
		if to <= q.FromS {
			return q, fmt.Errorf("service: empty range from=%g to=%g", q.FromS, to)
		}
		q.ToS = to
	}
	if v, ok, err := getInt("limit"); err != nil {
		return q, err
	} else if ok {
		q.Limit = int(v)
	}
	if v, ok, err := getInt("last"); err != nil {
		return q, err
	} else if ok {
		q.Last = int(v)
	}
	if v, ok, err := getInt("after"); err != nil {
		return q, err
	} else if ok {
		// after=0 is a real cursor (a page can end at window 0), so the
		// presence of the parameter, not its value, engages it.
		q.HasAfter = true
		q.AfterIndex = v
	}
	return q, nil
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	q, err := parseProfilesQuery(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp, windows, err := s.reg.Profiles(r.PathValue("id"), q)
	if err != nil {
		writeErr(w, err)
		return
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	defer respBufPool.Put(buf)
	buf.Reset()
	if err := EncodeProfiles(buf, resp, windows); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	writeBody(w, http.StatusOK, buf)
}
