package fleet

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"emprof/internal/service"
)

// Profiles fan-in. Rolling windows are the one per-session resource that
// a hand-off scatters: sealed windows stay in the exporting shard's
// store while the live tail accrues on the importer, so a session that
// moved N times has its window sequence spread over N+1 shards. A plain
// owner proxy would serve only the newest fragment. The router therefore
// fans GET /v1/sessions/{id}/profiles out to every up shard with the
// caller's query verbatim and reassembles the pages with
// service.ProfilesMerge, which knows the page's fields: windows merge
// deduplicated by index and sorted, and pagination is re-applied to the
// merged sequence, never across a jump past windows a capped shard still
// holds.
//
// Status merge, mirroring the shard-side contract:
//
//   - any 400 is relayed (a malformed query is malformed fleet-wide);
//   - 404 only when every reachable shard answered 404;
//   - 410 when some shard answered 410 (evicted range) and no shard
//     contributed a window — if any windows survive elsewhere they are
//     served marked truncated instead;
//   - shard transport failures are 502, like the session list, and so
//     is a 200 body that is no profiles page.
func (rt *Router) handleProfiles(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shards := rt.Ring().Shards()
	merged := service.NewProfilesMerge(id)
	var reachable, notFound int
	var goneSeen bool
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
		if err := merged.Add(rep.body); err != nil {
			writeError(w, http.StatusBadGateway, "fleet: profiles from %s: decoding profiles: %v", shards[i], err)
			return
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
	if goneSeen && merged.Len() == 0 {
		writeError(w, http.StatusGone, "fleet: requested windows for session %s no longer retained", id)
		return
	}
	limit, last := pageBounds(r)
	buf := profilesBufPool.Get().(*bytes.Buffer)
	defer profilesBufPool.Put(buf)
	buf.Reset()
	// A 410 fragment means part of the sequence is gone even though other
	// shards still serve windows: the page is marked truncated.
	if err := merged.Encode(buf, goneSeen, limit, last); err != nil {
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
