package profstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"emprof/internal/core"
)

// oracleRecord is one record as the store read windows before it served
// stored bytes: frame checked, payload decoded as a whole record.
type oracleRecord struct {
	rec      record
	frameEnd int64 // offset just past the frame in its segment
}

// oracleSegment scans a segment file frame by frame, stopping at the
// first frame that fails its checks or does not decode.
func oracleSegment(t *testing.T, name string) []oracleRecord {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []oracleRecord
	for off := 0; off+frameHeader <= len(data); {
		hdr := data[off : off+frameHeader]
		n := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if [4]byte(hdr[:4]) != frameMagic || n <= 0 || n > maxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[8:12]) {
			break
		}
		var rec record
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		off += frameHeader + n
		out = append(out, oracleRecord{rec: rec, frameEnd: int64(off)})
	}
	return out
}

// oracleWindows is what the decode-and-re-encode read path served for
// every session in dir: encoding/json of each decoded window, ordered by
// window index.
func oracleWindows(t *testing.T, dir string) map[string][]core.ProfileWindow {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	out := map[string][]core.ProfileWindow{}
	for _, name := range names {
		for _, r := range oracleSegment(t, name) {
			out[r.rec.Session] = append(out[r.rec.Session], r.rec.Window)
		}
	}
	for _, ws := range out {
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].Index < ws[j].Index })
	}
	return out
}

// requireRawMatchesOracle checks that the raw query serves, for every
// session, exactly the bytes encoding/json writes for the oracle's
// decoded windows.
func requireRawMatchesOracle(t *testing.T, st *Store, oracle map[string][]core.ProfileWindow) {
	t.Helper()
	for session, ws := range oracle {
		res, err := st.QueryRaw(session, Query{Limit: len(ws) + 1})
		if err != nil {
			t.Fatalf("session %q: %v", session, err)
		}
		if len(res.Windows) != len(ws) {
			t.Fatalf("session %q: raw query served %d windows, oracle %d", session, len(res.Windows), len(ws))
		}
		for i := range ws {
			want, err := json.Marshal(&ws[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Windows[i], want) {
				t.Fatalf("session %q window %d:\n got: %s\nwant: %s", session, ws[i].Index, res.Windows[i], want)
			}
		}
	}
}

// appendFrame writes one hand-framed record payload to a segment file.
func appendFrame(t *testing.T, name string, payload string) {
	t.Helper()
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := append([]byte(nil), frameMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
	if _, err := f.Write(append(b, payload...)); err != nil {
		t.Fatal(err)
	}
}

// TestRawQueryMatchesOracle requires the raw query to serve the bytes a
// decode and re-encode of each record would, for records the store
// wrote (disk and memory, before and after reopen) and for CRC-valid
// records in another shape, which it cannot serve from disk verbatim.
func TestRawQueryMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, Options{})
	mem := openTest(t, "", Options{})
	for i := int64(0); i < 8; i++ {
		for _, s := range []string{"a", "dev<7>&x"} {
			w := testWindow(i, 1e-3)
			w.Final = s == "a" && i == 7
			if i%3 == 1 {
				w.Regions = []core.WindowRegion{{Region: 1, Name: "fa", Misses: 1, StallCycles: 1e-7}, {Region: 9, StallCycles: 1e21}}
			}
			for _, x := range []*Store{st, mem} {
				if err := x.Append(s, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	oracle := oracleWindows(t, dir)
	requireRawMatchesOracle(t, st, oracle)
	requireRawMatchesOracle(t, mem, oracle)
	st.Close()

	// Records in other shapes: whitespace, reordered fields, numbers
	// spelled differently, an escaped key, a repeated window field.
	name := filepath.Join(dir, "00000000.seg")
	for _, p := range []string{
		`{"session":"odd","sealed_ns":1,"window":{"index":0,"start_sample":0,"end_sample":10,"start_s":0,"end_s":1.0e-3,"stalls":[],"misses":0,"refresh_stalls":0,"stall_cycles":0,"mean_confidence":0,"quality":{"Samples":10,"NaNSamples":0,"DroppedSamples":0,"ClippedSamples":0,"BurstSamples":0,"StepSamples":0,"Resyncs":0,"AbortedDips":0}}}`,
		`{"window": {"end_s": 0.002, "start_s": 0.001, "index": 1, "stalls": null}, "sealed_ns": 2, "session": "odd"}`,
		`{"session":"odd","sealed_ns":3,"window":{"index":2,"start_s":0.002,"end_s":0.003,"final":true,"regions":[{"region":1,"name":"\u0066a","misses":2,"stall_cycles":5}]} }`,
		`{"session":"odd","sealed_ns":4,"window":{"index":3},"window":{"start_s":0.003,"end_s":0.004}}`,
	} {
		appendFrame(t, name, p)
	}
	st2 := openTest(t, dir, Options{})
	oracle = oracleWindows(t, dir)
	if len(oracle["odd"]) != 4 {
		t.Fatalf("oracle decoded %d odd records, want 4", len(oracle["odd"]))
	}
	requireRawMatchesOracle(t, st2, oracle)
	// Only the records in another shape keep their encoding in memory.
	for session, entries := range st2.index {
		for _, e := range entries {
			if (e.off < 0) != (session == "odd") {
				t.Fatalf("session %q window %d: held in memory = %v", session, e.idx, e.off < 0)
			}
		}
	}
	// Query is the raw query decoded.
	res, err := st2.Query("odd", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Windows, oracle["odd"]) {
		t.Fatalf("decoded query diverged from the oracle\n got: %+v\nwant: %+v", res.Windows, oracle["odd"])
	}
}

// FuzzStoreReopen damages a segment of a store that has rolled and
// evicted — truncating it or overwriting bytes at a fuzzed offset — and
// reopens it. Reopening must not fail or panic; it must serve, for every
// session, exactly the decode-and-re-encode oracle's windows, every
// record before the damage included, each decoding to the window that
// was appended; no served window may sit below its session's eviction
// watermark; and the store must keep appending.
func FuzzStoreReopen(f *testing.F) {
	f.Add(uint8(0), uint32(0), []byte{0xFF}, false)
	f.Add(uint8(1), uint32(40), []byte{}, true)
	f.Add(uint8(2), uint32(700), []byte("EMPW\x10\x00\x00\x00"), false)
	f.Add(uint8(3), uint32(1<<31), []byte("}"), false)
	f.Add(uint8(0), uint32(12), []byte(`{"session":"b","sealed_ns":1,"window":{}}`), false)
	f.Fuzz(func(t *testing.T, pick uint8, at uint32, patch []byte, truncate bool) {
		dir := t.TempDir()
		opt := Options{Dir: dir, SegmentBytes: 2 << 10, MaxBytes: 6 << 10}
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		sessions := []string{"a", "b", "c<&>"}
		appended := map[string]map[int64]*core.ProfileWindow{}
		for i := int64(0); i < 12; i++ {
			for k, s := range sessions {
				w := testWindow(i, 1e-3*float64(k+1))
				w.Final = i == 11
				if i%4 == int64(k) {
					w.Regions = []core.WindowRegion{{Region: uint16(k), Name: "r", Misses: 1, StallCycles: 3.5}}
				}
				if err := st.Append(s, w); err != nil {
					t.Fatal(err)
				}
				if appended[s] == nil {
					appended[s] = map[int64]*core.ProfileWindow{}
				}
				appended[s][i] = w
			}
		}
		if st.Stats().Evictions == 0 {
			t.Fatal("set-up evicted nothing; shrink MaxBytes")
		}
		st.Close()

		names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		sort.Strings(names)
		name := names[int(pick)%len(names)]
		before := oracleSegment(t, name)
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(at % uint32(len(data)+1))
		if truncate {
			data = data[:pos]
		} else {
			if end := pos + len(patch); end > len(data) {
				data = append(data, make([]byte, end-len(data))...)
			}
			copy(data[pos:], patch)
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		oracle := oracleWindows(t, dir)
		served := map[string][]core.ProfileWindow{}
		for _, s := range sessions {
			res, err := st2.QueryRaw(s, Query{Limit: 1 << 20})
			if err != nil {
				if !errors.Is(err, ErrNotRetained) || len(oracle[s]) > 0 || st2.evicted[s] == 0 {
					t.Fatalf("session %q: %v (oracle holds %d windows)", s, err, len(oracle[s]))
				}
				continue
			}
			for _, raw := range res.Windows {
				var w core.ProfileWindow
				if err := json.Unmarshal(raw, &w); err != nil {
					t.Fatalf("session %q: served window does not decode: %v", s, err)
				}
				if w.Index < st2.evicted[s] {
					t.Fatalf("session %q: served window %d below the eviction watermark %d", s, w.Index, st2.evicted[s])
				}
				if want := appended[s][w.Index]; want == nil || !reflect.DeepEqual(&w, want) {
					t.Fatalf("session %q: window %d decodes to %+v, appended %+v", s, w.Index, w, want)
				}
				served[s] = append(served[s], w)
			}
		}
		requireRawMatchesOracle(t, st2, oracle)
		// Every frame the damage left whole is still served.
		for _, r := range before {
			if r.frameEnd > int64(pos) && (truncate || len(patch) > 0) {
				break
			}
			found := false
			for _, w := range served[r.rec.Session] {
				found = found || w.Index == r.rec.Window.Index
			}
			if !found {
				t.Fatalf("window %d of session %q, before the damage at %d, is gone", r.rec.Window.Index, r.rec.Session, pos)
			}
		}
		// The reopened store keeps appending, and serves what it appends.
		for _, s := range sessions {
			w := testWindow(100, 1e-3)
			if err := st2.Append(s, w); err != nil {
				t.Fatal(err)
			}
			res, err := st2.Query(s, Query{Last: 1})
			if err != nil || len(res.Windows) != 1 || !reflect.DeepEqual(&res.Windows[0], w) {
				t.Fatalf("session %q: append after reopen not served: %v", s, err)
			}
		}
	})
}
