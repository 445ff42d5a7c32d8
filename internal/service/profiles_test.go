package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"emprof/internal/core"
	"emprof/internal/profstore"
)

// TestProfilesQueryRejectsNonFinite checks that from and to must be
// finite. NaN and Inf parse as floats, so without the check from=NaN
// answered 200 with an empty page (skipping the retention check),
// to=NaN meant "no upper bound" and from=Inf an empty 200.
func TestProfilesQueryRejectsNonFinite(t *testing.T) {
	_, ts := newTestServer(t, Config{WindowS: 1e-5})
	capture := testSignal(20000)
	id := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, msg)
	}
	for _, q := range []string{
		"from=NaN", "from=nan", "from=Inf", "from=%2BInf", "from=infinity", "from=-Inf",
		"to=NaN", "from=0&to=NaN", "to=Inf", "to=%2BInf", "from=0.0001&to=inf", "to=-Inf",
	} {
		if _, code := getProfiles(t, ts, id, "?"+q); code != http.StatusBadRequest {
			t.Errorf("query %q: HTTP %d, want 400", q, code)
		}
	}
}

// FuzzProfilesQuery feeds arbitrary raw query strings to the profiles
// route's parser. It must never panic, and any query it accepts must be
// one the store can serve: a finite FromS >= 0, either no upper bound
// (ToS == 0) or a finite ToS > FromS, and non-negative Limit, Last and
// AfterIndex.
func FuzzProfilesQuery(f *testing.F) {
	for _, seed := range []string{
		"", "from=0.5&to=1", "from=NaN", "to=Inf", "from=1e400", "from=-0&to=-0",
		"limit=3&after=0", "last=8", "after=-1", "limit=9223372036854775807", "from=%zz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := parseProfilesQuery(&http.Request{URL: &url.URL{RawQuery: raw}})
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(q.FromS) || q.FromS < 0 {
			t.Fatalf("%q: accepted FromS %v", raw, q.FromS)
		}
		if q.ToS != 0 && !(finite(q.ToS) && q.ToS > q.FromS) {
			t.Fatalf("%q: accepted ToS %v with FromS %v", raw, q.ToS, q.FromS)
		}
		if q.Limit < 0 || q.Last < 0 || q.AfterIndex < 0 {
			t.Fatalf("%q: accepted limit %d last %d after %d", raw, q.Limit, q.Last, q.AfterIndex)
		}
	})
}

// oracleProfilesBody answers a profiles request the way the route did
// before it spliced stored window bytes: the registry's envelope with the
// page's windows decoded from the store, encoded by writeJSON.
func oracleProfilesBody(t *testing.T, srv *Server, id, query string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	q, err := parseProfilesQuery(httptest.NewRequest(http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/profiles"+query, nil))
	if err != nil {
		writeErr(rec, err)
		return rec.Code, rec.Body.Bytes()
	}
	resp, _, err := srv.reg.Profiles(id, q)
	if err != nil {
		writeErr(rec, err)
		return rec.Code, rec.Body.Bytes()
	}
	if st := srv.reg.Store(); st != nil {
		res, err := st.Query(id, q)
		if err != nil {
			t.Fatalf("oracle query %s%s: %v", id, query, err)
		}
		resp.Windows = res.Windows
	}
	writeJSON(rec, http.StatusOK, resp)
	return rec.Code, rec.Body.Bytes()
}

// requireProfilesMatchOracle fetches a profiles page over HTTP and
// requires status and body to equal the oracle's byte for byte, with a
// Content-Length on every answer. It returns the decoded page (nil on a
// non-200 status).
func requireProfilesMatchOracle(t *testing.T, srv *Server, ts *httptest.Server, id, query string) *ProfilesResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + url.PathEscape(id) + "/profiles" + query)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("%s%s: Content-Length %d for a %d-byte body", id, query, resp.ContentLength, len(body))
	}
	code, want := oracleProfilesBody(t, srv, id, query)
	if resp.StatusCode != code || !bytes.Equal(body, want) {
		t.Fatalf("%s%s: HTTP %d differs from the oracle's HTTP %d\n got: %s\nwant: %s", id, query, resp.StatusCode, code, body, want)
	}
	if code != http.StatusOK {
		return nil
	}
	var pr ProfilesResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return &pr
}

// TestProfilesBodyMatchesOracle pins the profiles route's bytes: splicing
// the stored window bytes into the envelope must answer exactly what
// decoding the windows and re-encoding the response did. It covers live,
// finalized (with the Final window) and store-only sessions, regions,
// every query parameter, a cursor walk, a truncated range and the error
// statuses.
func TestProfilesBodyMatchesOracle(t *testing.T) {
	store, err := profstore.Open(profstore.Options{Dir: t.TempDir(), MaxBytes: 12 << 10, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{WindowS: 1e-4, Store: store})
	capture := testSignal(30000)
	// The finalized session streams first, so retention evicts from it.
	done := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	live := createSession(t, ts, capture.SampleRate, capture.ClockHz)
	for _, id := range []string{done, live} {
		if code, msg := postSamples(t, ts, id, rawBytes(capture.Samples), ContentTypeRaw); code != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", code, msg)
		}
		if id == done {
			if _, err := srv.Registry().Finalize(done); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A store-only session whose windows carry regions, one name needing
	// HTML escapes, under an ID that needs them too.
	const stored = "dev<7>&x"
	for i := int64(0); i < 6; i++ {
		w := core.ProfileWindow{
			Index: i, StartSample: i * 4000, EndSample: (i + 1) * 4000,
			StartS: float64(i) * 1e-4, EndS: float64(i+1) * 1e-4, Final: i == 5,
			Stalls: []core.Stall{{StartSample: int(i*4000 + 7), EndSample: int(i*4000 + 19), StartS: float64(i)*1e-4 + 1e-7, DurationS: 3e-7, Cycles: 302.4, Depth: 0.05, Confidence: 0.93}},
			Misses: 1, StallCycles: 302.4, MeanConfidence: 0.93,
			Quality: core.Quality{Samples: (i + 1) * 4000},
			Regions: []core.WindowRegion{{Region: 1, Name: "inner<loop>&co", Misses: 1, StallCycles: 302.4}, {Region: 2, StallCycles: 0}},
		}
		if err := store.Append(stored, &w); err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range []string{live, done, stored} {
		all := requireProfilesMatchOracle(t, srv, ts, id, "")
		if len(all.Windows) < 2 {
			t.Fatalf("%s: %d windows, want several", id, len(all.Windows))
		}
		mid := all.Windows[len(all.Windows)/2]
		for _, q := range []string{
			"?limit=2", "?last=3", "?last=2&limit=1", "?after=0", "?after=0&limit=1",
			"?from=" + floatQuery(mid.StartS), "?from=0&to=" + floatQuery(mid.EndS),
			"?after=" + strconv.FormatInt(all.LatestIndex, 10),
		} {
			requireProfilesMatchOracle(t, srv, ts, id, q)
		}
		// Cursor walk.
		query := "?limit=3"
		for page := 0; ; page++ {
			pr := requireProfilesMatchOracle(t, srv, ts, id, query)
			if !pr.More {
				break
			}
			if page > len(all.Windows) {
				t.Fatalf("%s: cursor walk does not end", id)
			}
			query = "?limit=3&after=" + strconv.FormatInt(pr.NextAfter, 10)
		}
	}

	// Retention evicted the finalized session's oldest windows: its full
	// range is truncated, the evicted part gone.
	all := requireProfilesMatchOracle(t, srv, ts, done, "")
	if !all.Truncated || !all.Windows[len(all.Windows)-1].Final {
		t.Fatalf("finalized session: truncated %v, %d windows; resize MaxBytes", all.Truncated, len(all.Windows))
	}
	for _, c := range []struct {
		id, query string
		code      int
	}{
		{done, "?from=0&to=" + floatQuery(all.Windows[0].StartS/2), http.StatusGone},
		{"nope", "", http.StatusNotFound},
		{live, "?limit=-1", http.StatusBadRequest},
	} {
		requireProfilesMatchOracle(t, srv, ts, c.id, c.query)
		if _, code := getProfiles(t, ts, c.id, c.query); code != c.code {
			t.Fatalf("%s%s: HTTP %d, want %d", c.id, c.query, code, c.code)
		}
	}

	// Without a store: an empty page for a live session.
	srv2, ts2 := newTestServer(t, Config{})
	requireProfilesMatchOracle(t, srv2, ts2, createSession(t, ts2, 40e6, 1e9), "")
}
