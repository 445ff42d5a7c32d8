package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
	"emprof/internal/profstore"
	"emprof/internal/service"
)

// TestProfilesFanInCutsAtGap pins the fan-in's discontinuity cut. When
// the caller passes no limit=, each shard still caps its fragment at the
// store's default page size; the router must not merge a later shard's
// higher-index windows past the truncated shard's cap — that would set
// NextAfter beyond the capped shard's remaining windows and strand them
// behind the cursor forever. The page has to end at the gap, with
// NextAfter pointing the documented "pass next_after as after=" loop
// back into it.
func TestProfilesFanInCutsAtGap(t *testing.T) {
	win := func(i int64) core.ProfileWindow {
		const w = 1e-3
		return core.ProfileWindow{Index: i, StartS: float64(i) * w, EndS: float64(i+1) * w}
	}
	// Shard A holds windows 0..4 but serves at most 3 per page — the
	// shape of a store enforcing its default limit on an unbounded query.
	shardA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		after := int64(-1)
		if raw := r.URL.Query().Get("after"); raw != "" {
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad after=%q", raw)
				return
			}
			after = v
		}
		resp := service.ProfilesResponse{ID: "s1", State: "detached", Windows: []core.ProfileWindow{}, LatestIndex: 4}
		for i := after + 1; i <= 4 && len(resp.Windows) < 3; i++ {
			resp.Windows = append(resp.Windows, win(i))
		}
		if n := len(resp.Windows); n > 0 && resp.Windows[n-1].Index < 4 {
			resp.More, resp.NextAfter = true, resp.Windows[n-1].Index
		}
		writeJSON(w, http.StatusOK, &resp)
	}))
	defer shardA.Close()
	// Shard B holds the post-hand-off tail 5..7, well within its page.
	shardB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		after := int64(-1)
		if raw := r.URL.Query().Get("after"); raw != "" {
			after, _ = strconv.ParseInt(raw, 10, 64)
		}
		resp := service.ProfilesResponse{ID: "s1", State: "detached", Windows: []core.ProfileWindow{}, LatestIndex: 7}
		for i := int64(5); i <= 7; i++ {
			if i > after {
				resp.Windows = append(resp.Windows, win(i))
			}
		}
		writeJSON(w, http.StatusOK, &resp)
	}))
	defer shardB.Close()

	rt, err := NewRouter(Config{Shards: []string{shardA.URL, shardB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	getPage := func(query string) service.ProfilesResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s1/profiles"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("fan-in%s: HTTP %d: %s", query, rec.Code, rec.Body)
		}
		var resp service.ProfilesResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := getPage("")
	if n := len(first.Windows); n != 3 || first.Windows[n-1].Index != 2 {
		t.Fatalf("first page spans windows %v, want exactly 0..2 (cut at shard A's cap)", first.Windows)
	}
	if !first.More || first.NextAfter != 2 {
		t.Fatalf("first page more=%v next_after=%d, want more with next_after=2", first.More, first.NextAfter)
	}

	// The cursor loop must then walk the complete gapless sequence.
	all := first.Windows
	for page := first; page.More; {
		page = getPage("?after=" + strconv.FormatInt(page.NextAfter, 10))
		all = append(all, page.Windows...)
		if len(all) > 8 {
			t.Fatalf("cursor loop runs past the sequence: %d windows", len(all))
		}
	}
	if len(all) != 8 {
		t.Fatalf("cursor walk collected %d windows, want 8", len(all))
	}
	for i, w := range all {
		if w.Index != int64(i) {
			t.Fatalf("cursor walk gapped at position %d: index %d", i, w.Index)
		}
	}
}

// oracleFanIn answers a profiles request the way the fan-in did before
// it relayed window bytes: every shard's answer decoded, merged as
// decoded windows, and the result re-encoded by writeJSON.
func oracleFanIn(t *testing.T, shards []string, target string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	type answer struct {
		status int
		resp   plainProfiles
		body   []byte
	}
	var out []answer
	for _, s := range shards {
		resp, err := http.Get(s + target)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		a := answer{status: resp.StatusCode, body: body}
		if a.status == http.StatusOK {
			if err := json.Unmarshal(body, &a.resp); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, a)
	}
	id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/profiles")
	merged := service.ProfilesResponse{ID: id, Windows: []core.ProfileWindow{}, LatestIndex: -1}
	seen := make(map[int64]bool)
	var notFound int
	var goneSeen, anyMore bool
	for _, sp := range out {
		switch sp.status {
		case http.StatusOK:
		case http.StatusNotFound:
			notFound++
			continue
		case http.StatusGone:
			goneSeen = true
			continue
		case http.StatusBadRequest:
			rec.Header().Set("Content-Type", "application/json")
			rec.WriteHeader(http.StatusBadRequest)
			rec.Write(sp.body)
			return rec.Code, rec.Body.Bytes()
		default:
			t.Fatalf("shard answered HTTP %d", sp.status)
		}
		for _, win := range sp.resp.Windows {
			if seen[win.Index] {
				continue
			}
			seen[win.Index] = true
			merged.Windows = append(merged.Windows, win)
		}
		merged.Truncated = merged.Truncated || sp.resp.Truncated
		anyMore = anyMore || sp.resp.More
		if sp.resp.LatestIndex > merged.LatestIndex {
			merged.LatestIndex = sp.resp.LatestIndex
		}
		if stateRank(sp.resp.State) > stateRank(merged.State) {
			merged.State = sp.resp.State
			merged.WindowS = sp.resp.WindowS
			merged.SampleRate, merged.ClockHz = sp.resp.SampleRate, sp.resp.ClockHz
		}
	}
	if len(out) == notFound {
		writeError(rec, http.StatusNotFound, "fleet: unknown session %s", merged.ID)
		return rec.Code, rec.Body.Bytes()
	}
	sort.Slice(merged.Windows, func(i, j int) bool {
		return merged.Windows[i].Index < merged.Windows[j].Index
	})
	if goneSeen && len(merged.Windows) == 0 {
		writeError(rec, http.StatusGone, "fleet: requested windows for session %s no longer retained", merged.ID)
		return rec.Code, rec.Body.Bytes()
	}
	merged.Truncated = merged.Truncated || goneSeen
	limit, last := pageBounds(r)
	if anyMore && last == 0 {
		for i := 1; i < len(merged.Windows); i++ {
			if merged.Windows[i].Index != merged.Windows[i-1].Index+1 {
				merged.Windows = merged.Windows[:i]
				break
			}
		}
	}
	if last > 0 && len(merged.Windows) > last {
		merged.Windows = merged.Windows[len(merged.Windows)-last:]
	}
	if limit > 0 && len(merged.Windows) > limit {
		merged.Windows = merged.Windows[:limit]
		anyMore = true
	}
	merged.More = anyMore
	merged.NextAfter = 0
	if anyMore && len(merged.Windows) > 0 {
		merged.NextAfter = merged.Windows[len(merged.Windows)-1].Index
	}
	writeJSON(rec, http.StatusOK, &merged)
	return rec.Code, rec.Body.Bytes()
}

// stateRank is the oracle's own ranking of session states for the
// merge: the live owner (active/pinned/finalized) beats store-only
// shards.
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

// splitProfilesFast reads a shard's profiles body with the fast reader
// alone, reporting whether it took the whole body.
func splitProfilesFast(data []byte) (service.ProfilesResponse, []service.RawWindow, bool) {
	r := jsonfast.NewReader(data)
	env, wins := service.ReadProfiles(&r, false)
	return env, wins, r.Done()
}

// fanInFixture is two real shards whose stores split sessions the way
// hand-offs and retention leave them, behind a router.
type fanInFixture struct {
	shards []string
	router http.Handler
}

func newFanInFixture(t *testing.T) *fanInFixture {
	t.Helper()
	win := func(i int64) *core.ProfileWindow {
		w := &core.ProfileWindow{
			Index: i, StartSample: i * 4000, EndSample: (i + 1) * 4000,
			StartS: float64(i) * 1e-4, EndS: float64(i+1) * 1e-4,
			Stalls: []core.Stall{{StartSample: int(i*4000 + 7), EndSample: int(i*4000 + 19), StartS: float64(i)*1e-4 + 1e-7, DurationS: 3e-7, Cycles: 302.4, Depth: 0.05, Confidence: 0.93}},
			Misses: 1, StallCycles: 302.4, MeanConfidence: 0.93,
			Quality: core.Quality{Samples: (i + 1) * 4000},
		}
		switch {
		case i == 6:
			// A name encoding/json escapes: the shard body then takes the
			// splitter's stdlib fallback.
			w.Regions = []core.WindowRegion{{Region: 1, Name: "inner<loop>&co", Misses: 1, StallCycles: 302.4}}
		case i%3 == 0:
			w.Regions = []core.WindowRegion{{Region: 1, Name: "fa", Misses: 1, StallCycles: 302.4}, {Region: 2}}
		}
		return w
	}
	// Shard A: s1's windows 0..5 and the head of s2; a retention budget
	// that evicts the head of ev. Shard B: s1's 5..9 (5 is held by both,
	// as after a hand-off) with the Final window, and ev's tail.
	layout := []struct {
		opt   profstore.Options
		spans map[string][2]int64
	}{
		{profstore.Options{MaxBytes: 8 << 10, SegmentBytes: 1 << 10}, map[string][2]int64{"s1": {0, 6}, "s2": {0, 3}, "ev": {0, 30}}},
		{profstore.Options{}, map[string][2]int64{"s1": {5, 10}, "ev": {30, 33}}},
	}
	var shards []string
	for _, l := range layout {
		l.opt.Dir = t.TempDir()
		st, err := profstore.Open(l.opt)
		if err != nil {
			t.Fatal(err)
		}
		// ev goes first, so retention evicts from it alone.
		for _, s := range []string{"ev", "s1", "s2"} {
			span := l.spans[s]
			for i := span[0]; i < span[1]; i++ {
				w := win(i)
				w.Final = s == "s1" && i == 9
				if err := st.Append(s, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv := service.New(service.Config{Store: st})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		shards = append(shards, ts.URL)
	}
	rt, err := NewRouter(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return &fanInFixture{shards: shards, router: rt.Handler()}
}

// requireMatchesOracle serves target through the router and requires
// status and body to equal the oracle's byte for byte, with a
// Content-Length on every 200. It returns the decoded page (nil on a
// non-200 status).
func (f *fanInFixture) requireMatchesOracle(t *testing.T, target string) *service.ProfilesResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	f.router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	code, want := oracleFanIn(t, f.shards, target)
	if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s: HTTP %d differs from the oracle's HTTP %d\n got: %s\nwant: %s", target, rec.Code, code, rec.Body, want)
	}
	if code != http.StatusOK {
		return nil
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", target, cl, rec.Body.Len())
	}
	var resp service.ProfilesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestFanInBodyMatchesOracle pins the fan-in's bytes: merging the
// shards' raw window bytes must answer exactly what decoding, merging and
// re-encoding them did — duplicates across shards, the gap cut, paging,
// tails, ranges, truncation and the merged error statuses included.
func TestFanInBodyMatchesOracle(t *testing.T) {
	f := newFanInFixture(t)
	for _, q := range []string{
		"", "?limit=2", "?limit=4", "?last=3", "?last=7&limit=2", "?after=3", "?after=0&limit=1",
		"?from=0.00025&to=0.00071", "?from=0.0004", "?limit=-1", "?after=9",
	} {
		f.requireMatchesOracle(t, "/v1/sessions/s1/profiles"+q)
		f.requireMatchesOracle(t, "/v1/sessions/s2/profiles"+q)
	}
	// Cursor walk across the shards' gap: each shard caps at limit=3, so
	// the union jumps and the page is cut there.
	var walked []int64
	for target := "/v1/sessions/s1/profiles?limit=3"; ; {
		page := f.requireMatchesOracle(t, target)
		for _, w := range page.Windows {
			walked = append(walked, w.Index)
		}
		if !page.More {
			break
		}
		if len(walked) > 10 {
			t.Fatalf("cursor walk runs past the sequence: %v", walked)
		}
		target = "/v1/sessions/s1/profiles?limit=3&after=" + strconv.FormatInt(page.NextAfter, 10)
	}
	for i, idx := range walked {
		if idx != int64(i) {
			t.Fatalf("cursor walk %v is not 0..9", walked)
		}
	}
	if len(walked) != 10 {
		t.Fatalf("cursor walk %v is not 0..9", walked)
	}
	// ev: shard A evicted its head, so the full range is truncated and a
	// range inside the evicted head is 410 fleet-wide.
	if page := f.requireMatchesOracle(t, "/v1/sessions/ev/profiles"); !page.Truncated {
		t.Fatal("ev: full range not truncated; shrink shard A's MaxBytes")
	}
	if f.requireMatchesOracle(t, "/v1/sessions/ev/profiles?from=0&to=0.00005") != nil {
		t.Fatal("ev: evicted range served")
	}
	f.requireMatchesOracle(t, "/v1/sessions/nope/profiles")

	// Shard bodies without escaped strings take the splitter's fast path.
	for _, s := range f.shards {
		resp, err := http.Get(s + "/v1/sessions/s1/profiles?to=0.0006")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, wins, ok := splitProfilesFast(jsonfast.TrimSpace(body)); !ok || len(wins) == 0 {
			t.Fatalf("shard body fell back to the stdlib (fast path ok=%v, %d windows)", ok, len(wins))
		}
	}
}

// TestFanInSetsContentLength checks that a routed profiles page carries
// a Content-Length, so the client sizes its read buffer up front.
func TestFanInSetsContentLength(t *testing.T) {
	f := newFanInFixture(t)
	srv := httptest.NewServer(f.router)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sessions/s1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength <= 0 || resp.ContentLength != int64(len(body)) {
		t.Fatalf("HTTP %d, Content-Length %d for a %d-byte body", resp.StatusCode, resp.ContentLength, len(body))
	}
}

// plainProfiles is service.ProfilesResponse without its decoder, so the
// references below decode a page through encoding/json alone.
type plainProfiles service.ProfilesResponse

// FuzzProfilesSplit checks the splitter the fan-in reads shard bodies
// with (service.SplitProfiles) against encoding/json: it must err exactly
// when json.Unmarshal into plainProfiles errs, and otherwise yield the
// same envelope and windows that decode — and so re-encode — to the
// stdlib's.
func FuzzProfilesSplit(f *testing.F) {
	page := func(env service.ProfilesResponse, ws ...core.ProfileWindow) []byte {
		var buf bytes.Buffer
		raws := make([][]byte, len(ws))
		for i := range ws {
			raws[i], _ = json.Marshal(&ws[i])
		}
		if err := service.EncodeProfiles(&buf, &env, raws); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	w0 := core.ProfileWindow{Index: 0, EndSample: 4000, EndS: 1e-4, Stalls: []core.Stall{}}
	w1 := core.ProfileWindow{
		Index: 1, StartSample: 4000, EndSample: 8000, StartS: 1e-4, EndS: 2e-4, Final: true,
		Stalls: []core.Stall{{StartSample: 4007, EndSample: 4019, StartS: 1.0001e-4, DurationS: 3e-7, Cycles: 302.4, Depth: 0.05, Refresh: true, Confidence: 0.93}},
		Misses: 1, StallCycles: 302.4, MeanConfidence: 0.93, Quality: core.Quality{Samples: 8000, Resyncs: 1},
		Regions: []core.WindowRegion{{Region: 1, Name: "fa", Misses: 1, StallCycles: 302.4}, {Region: 2}},
	}
	live := service.ProfilesResponse{ID: "abc", State: "active", WindowS: 1e-4, SampleRate: 40e6, ClockHz: 1e9, LatestIndex: 1}
	f.Add(page(live, w0, w1))
	f.Add(page(service.ProfilesResponse{ID: "abc", State: "detached", Truncated: true, More: true, NextAfter: 7, LatestIndex: 9}, w1))
	f.Add(page(service.ProfilesResponse{ID: "dev<7>", State: "detached", LatestIndex: -1}))
	f.Add([]byte(`{"id":"a","state":"active","windows":null,"latest_index":-1}`))
	f.Add([]byte(`{"id":"a","state":"active","windows":[{"index":1}],"latest_index":1,"more":true}`))
	f.Add([]byte(`{"id":"a","state":"x","windows":[],"latest_index":99999999999999999999}`))
	f.Add([]byte(` {"latest_index":3,"windows":[] } `))
	// Names encoding/json escapes, and non-ASCII ones.
	named := w1
	named.Regions = []core.WindowRegion{{Region: 1, Name: "inner<loop>&co", Misses: 1}, {Region: 2, Name: "boucle intérieure ✓"}}
	f.Add(page(service.ProfilesResponse{ID: "émigré", State: "active", LatestIndex: 1}, w0, named))
	f.Fuzz(func(t *testing.T, body []byte) {
		env, wins, err := service.SplitProfiles(body)
		var want plainProfiles
		werr := json.Unmarshal(body, &want)
		if (err != nil) != (werr != nil) {
			t.Fatalf("split err %v, stdlib err %v on %q", err, werr, body)
		}
		if err != nil {
			return
		}
		if len(wins) != len(want.Windows) {
			t.Fatalf("split %d windows, stdlib %d on %q", len(wins), len(want.Windows), body)
		}
		for i, rw := range wins {
			var got core.ProfileWindow
			if err := json.Unmarshal(rw.JSON, &got); err != nil {
				t.Fatalf("window %d does not decode: %v", i, err)
			}
			if rw.Index != want.Windows[i].Index || got.Index != rw.Index {
				t.Fatalf("window %d keyed %d, decodes to %d, stdlib %d", i, rw.Index, got.Index, want.Windows[i].Index)
			}
			a, _ := json.Marshal(&got)
			b, _ := json.Marshal(&want.Windows[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("window %d differs from the stdlib's\n got: %s\nwant: %s", i, a, b)
			}
		}
		if len(env.Windows) != 0 {
			t.Fatalf("envelope carries %d windows", len(env.Windows))
		}
		env.Windows, want.Windows = nil, nil
		if !reflect.DeepEqual(env, service.ProfilesResponse(want)) {
			t.Fatalf("envelope %+v, stdlib %+v", env, want)
		}
	})
}

// TestFanInMalformedShardBody checks that a shard's 200 body the splitter
// cannot read — cut short, or valid JSON of the wrong shape — answers
// 502, never a partial page.
func TestFanInMalformedShardBody(t *testing.T) {
	for _, body := range []string{
		`{"id":"s1","state":"detached","windows":[{"index":1,"start_sample":0`,
		`{"id":"s1","state":"detached","windows":5,"latest_index":1}`,
		`{"id":"s1","state":"detached","windows":[{"index":"1"}],"latest_index":1}`,
	} {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(body))
		}))
		rt, err := NewRouter(Config{Shards: []string{shard.URL}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s1/profiles", nil))
		shard.Close()
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("body %q: HTTP %d, want 502", body, rec.Code)
		}
	}
}
