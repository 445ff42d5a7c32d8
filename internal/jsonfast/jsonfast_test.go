package jsonfast

import (
	"encoding/json"
	"math"
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
		gotI, endI, okI := Int(data, 0)
		if okI = okI && endI == len(lit); okI != (errI == nil) || okI && gotI != wantI {
			t.Errorf("Int(%q) = %d, %d, %v; encoding/json: %d, %v", lit, gotI, endI, okI, wantI, errI)
		}
		var wantF float64
		errF := json.Unmarshal([]byte(lit), &wantF)
		gotF, endF, okF := Float(data, 0)
		if okF = okF && endF == len(lit); okF != (errF == nil) || okF && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("Float(%q) = %v, %d, %v; encoding/json: %v, %v", lit, gotF, endF, okF, wantF, errF)
		}
	}
}
