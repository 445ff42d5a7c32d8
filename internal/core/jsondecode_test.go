package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"emprof/internal/jsonfast"
	"emprof/internal/sim"
)

// bitEqual reports whether a and b hold the same values, walking them
// field by field: floats compare by bit pattern and nil slices differ
// from empty ones. a and b may be different types of the same shape — a
// type and its method-free mirror.
func bitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8, reflect.Uint16:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && bitEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.NumField() != b.NumField() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("bitEqual: unsupported kind " + a.Kind().String())
}

// checkDecodeParity decodes data with the fast decoder, called directly
// as the client calls it (no stdlib validation pre-scan), and with
// encoding/json into a method-free mirror. Both must fail, or both must
// succeed with bit-identical values.
func checkDecodeParity(t *testing.T, data []byte, fast json.Unmarshaler, mirror any) {
	t.Helper()
	fastErr := fast.UnmarshalJSON(data)
	refErr := json.Unmarshal(data, mirror)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("fast decoder err = %v, encoding/json err = %v on %q", fastErr, refErr, data)
	}
	if fastErr == nil && !bitEqual(reflect.ValueOf(fast).Elem(), reflect.ValueOf(mirror).Elem()) {
		t.Fatalf("decoded values differ on %q\nfast: %+v\n std: %+v", data, fast, mirror)
	}
}

func addMarshalSeed(f *testing.F, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
}

func FuzzStallListDecode(f *testing.F) {
	rng := sim.NewRNG(5)
	for i := 0; i < 8; i++ {
		addMarshalSeed(f, randomStalls(rng, i%5))
	}
	addMarshalSeed(f, StallList(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast StallList
		var mirror []rawStall
		checkDecodeParity(t, data, &fast, &mirror)
	})
}

func FuzzProfileDecode(f *testing.F) {
	rng := sim.NewRNG(6)
	for i := 0; i < 8; i++ {
		addMarshalSeed(f, randomProfile(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast Profile
		var mirror rawProfile
		checkDecodeParity(t, data, &fast, &mirror)
	})
}

func FuzzWindowDecode(f *testing.F) {
	rng := sim.NewRNG(7)
	for i := 0; i < 8; i++ {
		addMarshalSeed(f, randomWindow(rng))
	}
	// A window whose region name takes the fast string path.
	w := randomWindow(rng)
	w.Regions = []WindowRegion{{Region: 3, Name: "hot_loop", Misses: 2, StallCycles: 250}}
	addMarshalSeed(f, w)
	// Names encoding/json escapes, and non-ASCII ones.
	w.Regions = []WindowRegion{{Region: 1, Name: "inner<loop>&co", Misses: 1}, {Region: 2, Name: "boucle intérieure ✓ 𝄞"}}
	addMarshalSeed(f, w)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast ProfileWindow
		var mirror rawWindow
		checkDecodeParity(t, data, &fast, &mirror)
	})
}

// TestDecodersRejectNonJSONNumbers pins the number grammar: literals
// strconv accepts but JSON forbids must fail the fast path, so the
// stdlib decides — and it rejects every one of them.
func TestDecodersRejectNonJSONNumbers(t *testing.T) {
	stalls := func(start, startS string) []byte {
		return []byte(`[{"StartSample":` + start + `,"EndSample":9,"StartS":` + startS +
			`,"DurationS":0.5,"Cycles":1,"Depth":0.25,"Refresh":false,"Confidence":1}]`)
	}
	var cases [][]byte
	for _, lit := range []string{"+1", "01", "1.", ".5", "-.5", "1e", "1e+", "-", "00", "1.5.5", "1e5e5", "--1"} {
		cases = append(cases, stalls("3", lit))
	}
	for _, lit := range []string{"007", "+7", "-07", "7.", "7e0"} {
		cases = append(cases, stalls(lit, "0.5"))
	}
	for _, in := range cases {
		var fast StallList
		if err := fast.UnmarshalJSON(in); err == nil {
			t.Errorf("accepted %s as %+v", in, fast)
		}
		var mirror []rawStall
		if json.Unmarshal(in, &mirror) == nil {
			t.Errorf("encoding/json accepts %s; the table is wrong", in)
		}
	}
	// Every legal spelling still decodes, bit-exactly.
	for _, c := range []struct{ start, startS string }{
		{"0", "0"}, {"-0", "-0"}, {"12", "1.25"}, {"-3", "-0.5e-3"}, {"1234567890123456789", "1E+2"}, {"5", "0.0"},
	} {
		checkDecodeParity(t, stalls(c.start, c.startS), new(StallList), new([]rawStall))
	}
}

// TestWindowRegionRange pins the uint16 region number to the stdlib:
// out-of-range and signed values, "-0" included, must fail.
func TestWindowRegionRange(t *testing.T) {
	for _, region := range []string{"0", "65535", "65536", "-1", "-0", "70000"} {
		in := []byte(`{"index":0,"start_sample":0,"end_sample":1,"start_s":0,"end_s":1,"stalls":[],` +
			`"misses":0,"refresh_stalls":0,"stall_cycles":0,"mean_confidence":0,"quality":{"Samples":0,` +
			`"NaNSamples":0,"DroppedSamples":0,"ClippedSamples":0,"BurstSamples":0,"StepSamples":0,` +
			`"Resyncs":0,"AbortedDips":0},"regions":[{"region":` + region + `,"misses":1,"stall_cycles":2}]}`)
		checkDecodeParity(t, in, new(ProfileWindow), new(rawWindow))
	}
}

// TestStallListSizing checks the look-ahead that sizes a kept stall list:
// a list reserves room for its own stalls exactly, and a forged list of
// bare braces, which no decoder takes, no more than its bytes allow.
func TestStallListSizing(t *testing.T) {
	p := benchProfile()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Profile
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(got.Stalls) != len(p.Stalls) || cap(got.Stalls) != len(got.Stalls) {
		t.Fatalf("%d stalls in room for %d, encoded %d", len(got.Stalls), cap(got.Stalls), len(p.Stalls))
	}
	forged := []byte("[" + strings.Repeat("{", 10000) + "]")
	r := jsonfast.NewReader(forged)
	out := readStalls(&r, "", true)
	if r.Done() {
		t.Fatal("bare braces read as a stall list")
	}
	if c := cap(out); c > len(forged)/minStallJSON+1 {
		t.Fatalf("%d bytes of bare braces reserved room for %d stalls", len(forged), c)
	}
}

// benchProfile is a live-session-sized profile: 306 stalls over a
// 240,000-sample capture at a 20 MHz sample rate and an 800 MHz clock,
// about 51 KB of JSON — the shape of a finalized Samsung gzip session.
func benchProfile() *Profile {
	rng := sim.NewRNG(2018)
	const rate, clock = 20e6, 800e6
	p := &Profile{SampleRate: rate, ClockHz: clock, ExecCycles: 240000 / rate * clock}
	at := 0
	for i := 0; i < 306; i++ {
		at += 200 + rng.Intn(1160)
		n := 6 + rng.Intn(30)
		s := Stall{
			StartSample: at, EndSample: at + n,
			StartS: float64(at) / rate, DurationS: float64(n) / rate,
			Depth: 0.1 + 0.5*rng.Float64(), Refresh: i%29 == 0,
			Confidence: 0.5 + 0.5*rng.Float64(),
		}
		s.Cycles = s.DurationS * clock
		p.Stalls = append(p.Stalls, s)
		p.StallCycles += s.Cycles
		if s.Refresh {
			p.RefreshStalls++
		} else {
			p.Misses++
		}
	}
	p.Quality.Samples = 240000
	return p
}

// BenchmarkProfileDecode times Profile.UnmarshalJSON, as the client calls
// it, against encoding/json decoding the same bytes into the method-free
// mirror.
func BenchmarkProfileDecode(b *testing.B) {
	blob, err := json.Marshal(benchProfile())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p Profile
			if err := p.UnmarshalJSON(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p rawProfile
			if err := json.Unmarshal(blob, &p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
