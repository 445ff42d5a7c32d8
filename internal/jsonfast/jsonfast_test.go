package jsonfast

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestNumberGrammar pins Int and Float to encoding/json: each consumes
// a whole literal exactly when json.Unmarshal accepts it into an int64
// or a float64, and to the same value. A trailing comma stands in for
// the rest of an object, as the decoders see numbers; a parse that stops
// short of the comma leaves the caller's next match to fail.
func TestNumberGrammar(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "7", "-7", "10", "1234567890", "123456789012345678", "1234567890123456789",
		"-9223372036854775808", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
		"0.5", "-0.5", "1.25e3", "1E3", "1e+3", "1e-3", "2.5E-15", "1e400", "1e-400", "0e0", "0.0",
		"+1", "+7", "01", "007", "-07", "00", "1.", ".5", "-.5", "1e", "1e+", "1.e5", "-", "--1",
		"1.5.5", "1e5e5", "0x10", "1_000", "Inf", "NaN", "", "e5", "-e5", "1-", "1+1",
	} {
		data := []byte(lit + ",")
		var wantI int64
		errI := json.Unmarshal([]byte(lit), &wantI)
		r := NewReader(data)
		gotI := r.Int("")
		if okI := !r.bad && r.Pos() == len(lit); okI != (errI == nil) || okI && gotI != wantI {
			t.Errorf("Int(%q) = %d, %d, %v; encoding/json: %d, %v", lit, gotI, r.Pos(), okI, wantI, errI)
		}
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		r = NewReader(data)
		gotF := r.Float("")
		if okF := !r.bad && r.Pos() == len(lit); okF != (errF == nil) || okF && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("Float(%q) = %v, %d, %v; encoding/json: %v, %v", lit, gotF, r.Pos(), okF, wantF, errF)
		}
	}
}

// shape is a small type read through every Reader form: required and
// optional fields, a nullable object, number and object arrays.
type shape struct {
	A    int64
	Opt  string
	Obj  *shape
	Nums []float64
	List []shape
	Flag bool
}

func readShape(r *Reader, key string) (s shape) {
	r.Object(key)
	s.A = r.Int("a")
	if r.Has("opt") {
		s.Opt = r.String("")
	}
	if !r.Null("obj") {
		o := readShape(r, "")
		s.Obj = &o
	}
	s.Nums = r.Floats("nums")
	if r.Array("list") {
		s.List = []shape{}
		for r.Next() {
			s.List = append(s.List, readShape(r, ""))
		}
	}
	s.Flag = r.Bool("flag")
	r.End()
	return s
}

// TestReaderShape pins the Reader's compact shape, one case per form: a
// mismatch fails every later read, optional keys may be present or
// absent, null, [] and one or many elements read as the stdlib reads
// them, and a byte after the value is refused.
func TestReaderShape(t *testing.T) {
	leaf := `{"a":2,"obj":null,"nums":null,"list":null,"flag":false}`
	for _, tc := range []struct {
		name, in string
		ok       bool
		want     shape
	}{
		{"required only", leaf, true, shape{A: 2}},
		{"optional present", `{"a":1,"opt":"x","obj":null,"nums":[],"list":[],"flag":true}`, true,
			shape{A: 1, Opt: "x", Nums: []float64{}, List: []shape{}, Flag: true}},
		{"nested object", `{"a":1,"obj":` + leaf + `,"nums":[0.5],"list":null,"flag":false}`, true,
			shape{A: 1, Obj: &shape{A: 2}, Nums: []float64{0.5}}},
		{"one element", `{"a":1,"obj":null,"nums":null,"list":[` + leaf + `],"flag":false}`, true,
			shape{A: 1, List: []shape{{A: 2}}}},
		{"many elements", `{"a":1,"obj":null,"nums":[1,-2,3e2],"list":[` + leaf + `,` + leaf + `,` + leaf + `],"flag":false}`, true,
			shape{A: 1, Nums: []float64{1, -2, 300}, List: []shape{{A: 2}, {A: 2}, {A: 2}}}},
		{"surrounding whitespace", " \n" + leaf + "\r\n\t", true, shape{A: 2}},
		{"trailing byte", leaf + "x", false, shape{}},
		{"trailing value", leaf + leaf, false, shape{}},
		{"reordered keys", `{"obj":null,"a":2,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"unknown key", `{"a":2,"zz":1,"obj":null,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"optional out of place", `{"a":2,"obj":null,"opt":"x","nums":null,"list":null,"flag":false}`, false, shape{}},
		{"inner whitespace", `{"a": 2,"obj":null,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"escaped string", `{"a":1,"opt":"\u0078","obj":null,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"missing element", `{"a":1,"obj":null,"nums":[1,,2],"list":null,"flag":false}`, false, shape{}},
		{"leading comma", `{"a":1,"obj":null,"nums":[,1],"list":null,"flag":false}`, false, shape{}},
		{"comma after brace", `{,"a":1,"obj":null,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"missing comma", `{"a":1"obj":null,"nums":null,"list":null,"flag":false}`, false, shape{}},
		{"trailing comma", `{"a":1,"obj":null,"nums":[1,],"list":null,"flag":false}`, false, shape{}},
		{"unclosed array", `{"a":1,"obj":null,"nums":[1`, false, shape{}},
		{"null object", `null`, false, shape{}},
		{"cut short", leaf[:len(leaf)-1], false, shape{}},
		{"empty", ``, false, shape{}},
	} {
		r := NewReader([]byte(tc.in))
		got := readShape(&r, "")
		if r.Done() != tc.ok {
			t.Errorf("%s: Done() = %v, want %v on %q", tc.name, r.Done(), tc.ok, tc.in)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: read %+v, want %+v", tc.name, got, tc.want)
		}
		if tc.ok {
			var std shape
			if err := json.Unmarshal([]byte(tc.in), &std); err != nil || !reflect.DeepEqual(got, std) {
				t.Errorf("%s: read %+v, encoding/json %+v (%v)", tc.name, got, std, err)
			}
		}
	}

	// A failed Reader reads nothing more: every later read returns the
	// zero value and leaves the position where the mismatch was.
	r := NewReader([]byte(`{"a":1,"b":2,"c":[3],"d":"x","e":true}`))
	r.Object("")
	if r.Int("a") != 1 || r.Int("x") != 0 {
		t.Fatal("mismatched key read a value")
	}
	pos := r.Pos()
	if r.Int("b") != 0 || r.Has("b") || !r.Null("c") || r.Array("c") || r.Next() ||
		r.String("d") != "" || r.Bool("e") || r.Floats("c") != nil || r.Done() || r.Pos() != pos {
		t.Fatalf("a read after a mismatch succeeded or moved (at %d, was %d)", r.Pos(), pos)
	}
}
