package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
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
	resp := newProfilesResponse(id)
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

// newProfilesResponse is the envelope of a page with no windows yet.
func newProfilesResponse(id string) *ProfilesResponse {
	return &ProfilesResponse{ID: id, Windows: []core.ProfileWindow{}, LatestIndex: -1}
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

// RawWindow is one window of a profiles body: its index and its JSON as
// encoding/json wrote it.
type RawWindow struct {
	Index int64
	JSON  []byte
}

// ReadProfiles reads a profiles body in the compact shape EncodeProfiles
// writes: the envelope, with Windows empty, and each window as the bytes
// it spans, checked by core.ReadWindow without being built.
func ReadProfiles(r *jsonfast.Reader) (env ProfilesResponse, wins []RawWindow) {
	env.Windows = []core.ProfileWindow{}
	r.Object("")
	env.ID = r.String("id")
	env.State = r.String("state")
	if r.Has("window_s") {
		env.WindowS = r.Float("")
	}
	if r.Has("sample_rate") {
		env.SampleRate = r.Float("")
	}
	if r.Has("clock_hz") {
		env.ClockHz = r.Float("")
	}
	if r.Array("windows") {
		for r.Next() {
			at := r.Pos()
			w := core.ReadWindow(r, false)
			wins = append(wins, RawWindow{Index: w.Index, JSON: r.Since(at)})
		}
	}
	if r.Has("truncated") {
		env.Truncated = r.Bool("")
	}
	if r.Has("more") {
		env.More = r.Bool("")
	}
	if r.Has("next_after") {
		env.NextAfter = r.Int("")
	}
	env.LatestIndex = r.Int("latest_index")
	r.End()
	return env, wins
}

// SplitProfiles splits a profiles body into its envelope, with Windows
// empty, and its windows as byte slices of body. A body ReadProfiles
// does not take (an ID or region name with escapes, whitespace, another
// field order) goes through encoding/json, and its decoded windows are
// re-encoded. Either way the split errs exactly when json.Unmarshal into
// ProfilesResponse errs, and the windows decode to what it decodes
// (FuzzProfilesSplit).
func SplitProfiles(body []byte) (ProfilesResponse, []RawWindow, error) {
	r := jsonfast.NewReader(body)
	if env, wins := ReadProfiles(&r); r.Done() {
		return env, wins, nil
	}
	var resp ProfilesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return ProfilesResponse{}, nil, err
	}
	wins := make([]RawWindow, len(resp.Windows))
	for i := range resp.Windows {
		raw, err := json.Marshal(&resp.Windows[i])
		if err != nil {
			return ProfilesResponse{}, nil, err
		}
		wins[i] = RawWindow{Index: resp.Windows[i].Index, JSON: raw}
	}
	resp.Windows = []core.ProfileWindow{}
	return resp, wins, nil
}

// ProfilesMerge joins several servers' pages for one profiles query into
// one page: the fleet router fans the query out to every shard, since a
// session that moved has its windows spread over the shards it passed
// through. Windows merge deduplicated by index and sorted, so
// core.MergeWindows on the merged page works exactly as on one server's.
// The windows are relayed as the bytes the servers sent.
type ProfilesMerge struct {
	env  ProfilesResponse
	wins []RawWindow
}

// NewProfilesMerge starts a merge of pages for session id.
func NewProfilesMerge(id string) *ProfilesMerge {
	return &ProfilesMerge{env: *newProfilesResponse(id)}
}

// Add merges one server's 200 body; it errs when the body is no profiles
// page.
func (m *ProfilesMerge) Add(body []byte) error {
	env, wins, err := SplitProfiles(body)
	if err != nil {
		return err
	}
	m.wins = append(m.wins, wins...)
	m.env.Truncated = m.env.Truncated || env.Truncated
	m.env.More = m.env.More || env.More
	m.env.LatestIndex = max(m.env.LatestIndex, env.LatestIndex)
	// The server still holding the live session is authoritative for
	// state and acquisition metadata; store-only servers say "detached".
	if stateRank(env.State) > stateRank(m.env.State) {
		m.env.State, m.env.WindowS = env.State, env.WindowS
		m.env.SampleRate, m.env.ClockHz = env.SampleRate, env.ClockHz
	}
	return nil
}

// Len returns the number of windows merged, duplicates included.
func (m *ProfilesMerge) Len() int { return len(m.wins) }

// Encode appends the merged page to buf, as EncodeProfiles does; gone
// marks it truncated, for a server that answered 410 on part of the
// range. Each server enforced limit= and last= on its own fragment, so
// the union can overshoot: Encode trims it to those bounds and recomputes
// More and NextAfter against the merged sequence, keeping the cursor loop
// ("pass next_after as after=") valid.
func (m *ProfilesMerge) Encode(buf *bytes.Buffer, gone bool, limit, last int) error {
	// Sort by index and keep the first server's copy of a duplicate index.
	wins := m.wins
	sort.SliceStable(wins, func(i, j int) bool { return wins[i].Index < wins[j].Index })
	uniq := wins[:0]
	for _, w := range wins {
		if n := len(uniq); n == 0 || uniq[n-1].Index != w.Index {
			uniq = append(uniq, w)
		}
	}
	wins = uniq
	env := m.env
	env.Truncated = env.Truncated || gone
	// A server that capped its fragment (at limit=, or at the store's
	// default page size when the caller named none) still holds windows
	// past its last served index, while another may have served higher
	// indexes already. Serving the sorted union across that jump would
	// point NextAfter past the capped server's remainder and strand those
	// windows behind the cursor forever. Cut the page at the first index
	// discontinuity instead: the next "pass next_after as after="
	// iteration re-fetches from the gap and walks the full sequence.
	// Tail (last=) queries keep the newest windows by design and are not
	// cursor-walked, so they are served uncut.
	if env.More && last == 0 {
		for i := 1; i < len(wins); i++ {
			if wins[i].Index != wins[i-1].Index+1 {
				wins = wins[:i]
				break
			}
		}
	}
	if last > 0 && len(wins) > last {
		wins = wins[len(wins)-last:]
	}
	if limit > 0 && len(wins) > limit {
		wins = wins[:limit]
		env.More = true
	}
	if env.More && len(wins) > 0 {
		env.NextAfter = wins[len(wins)-1].Index
	}
	raws := make([][]byte, len(wins))
	for i := range wins {
		raws[i] = wins[i].JSON
	}
	return EncodeProfiles(buf, &env, raws)
}

// stateRank orders session states by authority for a merge: the live
// owner (active/pinned/finalized) beats store-only servers.
func stateRank(state string) int {
	switch state {
	case "active":
		return 4
	case "pinned":
		return 3
	case "finalized":
		return 2
	case "detached":
		return 1
	}
	return 0
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
