package service

import (
	"math"
	"net/http"
	"net/url"
	"testing"
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
