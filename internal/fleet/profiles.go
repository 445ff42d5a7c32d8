package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
	"emprof/internal/service"
)

// Profiles fan-in. Rolling windows are the one per-session resource that
// a hand-off scatters: sealed windows stay in the exporting shard's
// store while the live tail accrues on the importer, so a session that
// moved N times has its window sequence spread over N+1 shards. A plain
// owner proxy would serve only the newest fragment. The router therefore
// fans GET /v1/sessions/{id}/profiles out to every up shard with the
// caller's query verbatim and reassembles: windows merge deduplicated by
// index and sorted, so core.MergeWindows on the router's answer works
// exactly as against a single shard.
//
// Status merge, mirroring the shard-side contract:
//
//   - any 400 is relayed (a malformed query is malformed fleet-wide);
//   - 404 only when every reachable shard answered 404;
//   - 410 when some shard answered 410 (evicted range) and no shard
//     contributed a window — if any windows survive elsewhere they are
//     served with Truncated set instead;
//   - shard transport failures are 502, like the session list.
//
// Pagination is re-applied after the merge: each shard enforced limit=
// and last= on its own fragment, so the union can overshoot; the router
// trims to the caller's bounds and recomputes More/NextAfter against the
// merged sequence, keeping the cursor loop ("pass next_after as after=")
// valid against a fleet. When a shard capped its fragment (at limit= or
// the store's default page size) the union can also jump past windows
// that shard still holds; the merge never serves across such a jump —
// see the discontinuity cut below.
func (rt *Router) handleProfiles(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shards := rt.Ring().Shards()
	merged := service.ProfilesResponse{ID: id, Windows: []core.ProfileWindow{}, LatestIndex: -1}
	var wins []rawWindow
	var reachable, notFound int
	var goneSeen, anyMore bool
	for i, rep := range rt.fanOut(r.Context(), shards, r.URL.RequestURI()) {
		if rep.down {
			continue
		}
		if rep.err != nil {
			writeError(w, http.StatusBadGateway, "fleet: profiles from %s: %v", shards[i], rep.err)
			return
		}
		reachable++
		switch rep.status {
		case http.StatusOK:
		case http.StatusNotFound:
			notFound++
			continue
		case http.StatusGone:
			goneSeen = true
			continue
		case http.StatusBadRequest:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			w.Write(rep.body)
			return
		default:
			writeError(w, http.StatusBadGateway, "fleet: profiles from %s: HTTP %d", shards[i], rep.status)
			return
		}
		env, ws, err := splitProfiles(rep.body)
		if err != nil {
			writeError(w, http.StatusBadGateway, "fleet: profiles from %s: decoding profiles: %v", shards[i], err)
			return
		}
		wins = append(wins, ws...)
		merged.Truncated = merged.Truncated || env.Truncated
		anyMore = anyMore || env.More
		if env.LatestIndex > merged.LatestIndex {
			merged.LatestIndex = env.LatestIndex
		}
		// The shard still holding the live session is authoritative for
		// state and acquisition metadata; store-only shards say "detached".
		if stateRank(env.State) > stateRank(merged.State) {
			merged.State = env.State
			merged.WindowS = env.WindowS
			merged.SampleRate, merged.ClockHz = env.SampleRate, env.ClockHz
		}
	}
	if reachable == 0 {
		writeError(w, http.StatusBadGateway, "fleet: no shard reachable for session %s", id)
		return
	}
	if reachable == notFound {
		writeError(w, http.StatusNotFound, "fleet: unknown session %s", id)
		return
	}
	// Sort by index and keep the first shard's copy of a duplicate index.
	sort.SliceStable(wins, func(i, j int) bool { return wins[i].index < wins[j].index })
	uniq := wins[:0]
	for _, win := range wins {
		if n := len(uniq); n == 0 || uniq[n-1].index != win.index {
			uniq = append(uniq, win)
		}
	}
	wins = uniq
	if goneSeen && len(wins) == 0 {
		writeError(w, http.StatusGone, "fleet: requested windows for session %s no longer retained", id)
		return
	}
	// A 410 fragment means part of the sequence is gone even though other
	// shards still serve windows: surface it as a truncated range.
	merged.Truncated = merged.Truncated || goneSeen

	limit, last := pageBounds(r)
	// A shard that capped its fragment (at limit=, or at the store's
	// default page size when the caller named none) still holds windows
	// past its last served index, while a later shard may have served
	// higher indexes already. Serving the sorted union across that jump
	// would point NextAfter past the capped shard's remainder and strand
	// those windows behind the cursor forever. Cut the page at the first
	// index discontinuity instead: the next "pass next_after as after="
	// iteration re-fetches from the gap and walks the full sequence.
	// Tail (last=) queries keep the newest windows by design and are not
	// cursor-walked, so they are served uncut.
	if anyMore && last == 0 {
		for i := 1; i < len(wins); i++ {
			if wins[i].index != wins[i-1].index+1 {
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
		anyMore = true
	}
	merged.More = anyMore
	merged.NextAfter = 0
	if anyMore && len(wins) > 0 {
		merged.NextAfter = wins[len(wins)-1].index
	}
	raws := make([][]byte, len(wins))
	for i := range wins {
		raws[i] = wins[i].raw
	}
	buf := profilesBufPool.Get().(*bytes.Buffer)
	defer profilesBufPool.Put(buf)
	buf.Reset()
	if err := service.EncodeProfiles(buf, &merged, raws); err != nil {
		writeError(w, http.StatusInternalServerError, "fleet: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// profilesBufPool recycles the fan-in's response buffers.
var profilesBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// rawWindow is one window of a shard's answer, keyed by its index.
type rawWindow struct {
	index int64
	raw   []byte
}

// splitProfiles splits a shard's profiles body into its envelope, with
// Windows empty, and its windows as byte slices of body. The fast path
// takes the compact shape the shard writes (service.EncodeProfiles),
// checking each window with core.SkipWindowJSON; any other body goes
// through encoding/json and its decoded windows are re-encoded. Either
// way the split errs exactly when json.Unmarshal into
// service.ProfilesResponse errs, and the windows decode to what it
// decodes (FuzzProfilesSplit).
func splitProfiles(body []byte) (service.ProfilesResponse, []rawWindow, error) {
	if env, wins, ok := splitProfilesFast(jsonfast.TrimSpace(body)); ok {
		return env, wins, nil
	}
	var resp service.ProfilesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return service.ProfilesResponse{}, nil, err
	}
	wins := make([]rawWindow, len(resp.Windows))
	for i := range resp.Windows {
		raw, err := json.Marshal(&resp.Windows[i])
		if err != nil {
			return service.ProfilesResponse{}, nil, err
		}
		wins[i] = rawWindow{index: resp.Windows[i].Index, raw: raw}
	}
	resp.Windows = []core.ProfileWindow{}
	return resp, wins, nil
}

// splitProfilesFast parses the compact profiles body encoding/json
// writes for service.ProfilesResponse, reporting !ok for anything else.
func splitProfilesFast(data []byte) (env service.ProfilesResponse, wins []rawWindow, ok bool) {
	env.Windows = []core.ProfileWindow{}
	i := 0
	if i, ok = jsonfast.Eat(data, i, `{"id":`); !ok {
		return env, nil, false
	}
	if env.ID, i, ok = jsonfast.String(data, i); !ok {
		return env, nil, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"state":`); !ok {
		return env, nil, false
	}
	if env.State, i, ok = jsonfast.String(data, i); !ok {
		return env, nil, false
	}
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{`,"window_s":`, &env.WindowS}, {`,"sample_rate":`, &env.SampleRate},
		{`,"clock_hz":`, &env.ClockHz},
	} {
		if j, present := jsonfast.Eat(data, i, f.key); present {
			if *f.dst, i, ok = jsonfast.Float(data, j); !ok {
				return env, nil, false
			}
		}
	}
	if i, ok = jsonfast.Eat(data, i, `,"windows":[`); !ok {
		return env, nil, false
	}
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			idx, end, ok := core.SkipWindowJSON(data, i)
			if !ok {
				return env, nil, false
			}
			wins = append(wins, rawWindow{index: idx, raw: data[i:end:end]})
			i = end
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			if i >= len(data) || data[i] != ',' {
				return env, nil, false
			}
			i++
		}
	}
	if j, present := jsonfast.Eat(data, i, `,"truncated":`); present {
		if env.Truncated, i, ok = jsonfast.Bool(data, j); !ok {
			return env, nil, false
		}
	}
	if j, present := jsonfast.Eat(data, i, `,"more":`); present {
		if env.More, i, ok = jsonfast.Bool(data, j); !ok {
			return env, nil, false
		}
	}
	if j, present := jsonfast.Eat(data, i, `,"next_after":`); present {
		if env.NextAfter, i, ok = jsonfast.Int(data, j); !ok {
			return env, nil, false
		}
	}
	if i, ok = jsonfast.Eat(data, i, `,"latest_index":`); !ok {
		return env, nil, false
	}
	if env.LatestIndex, i, ok = jsonfast.Int(data, i); !ok {
		return env, nil, false
	}
	if i != len(data)-1 || data[i] != '}' {
		return env, nil, false
	}
	return env, wins, true
}

// stateRank orders session states by authority for the fan-in merge:
// the live owner (active/pinned/finalized) beats store-only shards.
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

// pageBounds extracts the caller's limit=/last= so the fan-in can
// re-apply them to the merged sequence. Values the shards rejected never
// reach here (their 400 is relayed), so parse failures read as unset.
func pageBounds(r *http.Request) (limit, last int) {
	vals := r.URL.Query()
	if v, err := strconv.Atoi(vals.Get("limit")); err == nil && v > 0 {
		limit = v
	}
	if v, err := strconv.Atoi(vals.Get("last")); err == nil && v > 0 {
		last = v
	}
	return limit, last
}
