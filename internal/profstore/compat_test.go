package profstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"emprof/internal/core"
)

// compatSegment is a segment written by the store's earlier hand-rolled
// record encoder from compatRecords under compatNow. It pins the on-disk
// format: today's store must read it back, and must write the same
// bytes from the same windows.
var compatSegment = filepath.Join("testdata", "compat", "00000000.seg")

func compatNow() time.Time { return time.Unix(1700000000, 123456789) }

type compatRecord struct {
	session string
	w       *core.ProfileWindow
}

// compatRecords covers what a record can hold: two sessions (one ID
// needing HTML escapes), empty and populated stall lists, a final
// window, regions with and without names, and floats on both sides of
// encoding/json's exponent switch.
func compatRecords() []compatRecord {
	var out []compatRecord
	for i := int64(0); i < 6; i++ {
		w := testWindow(i, 5e-4)
		if i == 2 {
			w.Stalls[0].StartS = 1e-7
			w.Stalls[0].DurationS = 1.0 / 3.0
			w.Stalls[0].Depth = 0.42
			w.Stalls[1].Refresh = true
			w.RefreshStalls = 1
			w.Misses--
			w.MeanConfidence = 0.9
			w.Quality = core.Quality{Samples: 3000, DroppedSamples: 7, Resyncs: 1}
			w.Regions = []core.WindowRegion{
				{Region: 1, Name: "inner<loop>&co", Misses: 1, StallCycles: 125},
				{Region: 65535, Misses: 0, StallCycles: 1e21},
			}
		}
		out = append(out, compatRecord{"sess-a", w})
		if i%2 == 1 {
			v := testWindow(i/2, 1e-3)
			v.Final = i == 5
			out = append(out, compatRecord{"dev<7>&x", v})
		}
	}
	return out
}

func TestCompatSegmentReopens(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(compatSegment)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000000.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openTest(t, dir, Options{Now: compatNow})
	want := map[string][]core.ProfileWindow{}
	for _, r := range compatRecords() {
		want[r.session] = append(want[r.session], *r.w)
	}
	for session, ws := range want {
		res, err := st.Query(session, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Windows, ws) {
			t.Fatalf("session %q: fixture windows diverged\n got: %+v\nwant: %+v", session, res.Windows, ws)
		}
	}
}

func TestCompatSegmentByteIdentical(t *testing.T) {
	want, err := os.ReadFile(compatSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openTest(t, dir, Options{Now: compatNow})
	for _, r := range compatRecords() {
		if err := st.Append(r.session, r.w); err != nil {
			t.Fatal(err)
		}
	}
	// The raw query serves each window as a decode and re-encode of the
	// fixture's records would, from the store that wrote them and from
	// the committed segment reopened.
	oracle := oracleWindows(t, filepath.Dir(compatSegment))
	requireRawMatchesOracle(t, st, oracle)
	st.Close()
	got, err := os.ReadFile(filepath.Join(dir, "00000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from the fixture\n got: %q\nwant: %q", got, want)
	}
	reopenDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(reopenDir, "00000000.seg"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	requireRawMatchesOracle(t, openTest(t, reopenDir, Options{Now: compatNow}), oracle)
}
