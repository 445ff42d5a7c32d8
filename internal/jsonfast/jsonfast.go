// Package jsonfast reads JSON in exactly the compact shape encoding/json
// writes it: no whitespace, object fields in declaration order, optional
// (omitempty) fields either absent or present in place. The fast
// decoders on the client's and the router's read paths (core.StallList,
// core.Profile, core.ProfileWindow, service.Snapshot and the profiles
// envelope) are each their type's fields listed in wire order over one
// Reader. The Reader owns the shape: separators, key literals, null,
// arrays and their elements. The first byte that does not fit fails it
// for good, including numbers outside the JSON grammar and strings with
// escapes, and the caller then hands the input to the stdlib decoder,
// which decides.
package jsonfast

import (
	"math"
	"strconv"
)

// Reader is a cursor over one compact JSON value. Every read names the
// key of the field it reads; the empty key reads a bare value: the
// top-level value, an array element, or the value after Has or Null read
// its key. A read on a failed Reader reads nothing and returns the zero
// value.
type Reader struct {
	data []byte
	i    int
	bad  bool
}

// NewReader returns a Reader over data less its leading and trailing
// JSON whitespace, so that the newline json.Encoder appends keeps the
// fast path.
func NewReader(data []byte) Reader { return Reader{data: TrimSpace(data)} }

// TrimSpace strips leading and trailing JSON whitespace.
func TrimSpace(data []byte) []byte {
	i, j := 0, len(data)
	for i < j && isSpace(data[i]) {
		i++
	}
	for j > i && isSpace(data[j-1]) {
		j--
	}
	return data[i:j]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// Done reports whether every read fitted and the value ended the input.
func (r *Reader) Done() bool { return !r.bad && r.i == len(r.data) }

// Len returns the number of bytes left to read.
func (r *Reader) Len() int { return len(r.data) - r.i }

// Pos returns the read position, for Since.
func (r *Reader) Pos() int { return r.i }

// Since returns the input read from position pos on, capped so that an
// append to it cannot write into the input.
func (r *Reader) Since(pos int) []byte { return r.data[pos:r.i:r.i] }

// eat consumes the byte c, failing the Reader if it is not next.
func (r *Reader) eat(c byte) {
	if r.bad || r.i >= len(r.data) || r.data[r.i] != c {
		r.bad = true
		return
	}
	r.i++
}

// lit consumes the literal s if it is next.
func (r *Reader) lit(s string) bool {
	if len(r.data)-r.i < len(s) || string(r.data[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// field reads the key of the next field: the separator (a comma, or
// none right after the object's opening brace), the quoted key and the
// colon. The empty key reads none.
func (r *Reader) field(key string) bool {
	if r.bad || key == "" {
		return !r.bad
	}
	d, i := r.data, r.i
	if i < len(d) && d[i] == ',' {
		i++
	} else if i == 0 || d[i-1] != '{' {
		r.bad = true
		return false
	}
	end := i + len(key) + 3
	if end > len(d) || d[i] != '"' || d[end-2] != '"' || d[end-1] != ':' || string(d[i+1:end-2]) != key {
		r.bad = true
		return false
	}
	r.i = end
	return true
}

// Has reads the key of an optional field and reports whether it is the
// next field; the field's value is then read with the empty key. An
// absent field fails nothing.
func (r *Reader) Has(key string) bool {
	if r.bad {
		return false
	}
	if r.field(key) {
		return true
	}
	r.bad = false
	return false
}

// Null reads key and reports whether its value is null, consuming it if
// so. Otherwise the value is left to a read with the empty key. A failed
// Reader reports true: there is no value to read.
func (r *Reader) Null(key string) bool {
	if !r.field(key) {
		return true
	}
	return r.lit("null")
}

// Object reads key and the opening brace of an object value. Its fields
// follow; End closes it.
func (r *Reader) Object(key string) {
	if r.field(key) {
		r.eat('{')
	}
	// A comma right after the brace is never a separator.
	if !r.bad && r.i < len(r.data) && r.data[r.i] == ',' {
		r.bad = true
	}
}

// End reads the closing brace of the object being read.
func (r *Reader) End() { r.eat('}') }

// Array reads key and an array value's opening bracket, reporting whether
// there is one: null, like a failed read, reports false. The elements
// follow, one per true Next.
func (r *Reader) Array(key string) bool {
	if r.Null(key) {
		return false
	}
	r.eat('[')
	return !r.bad
}

// Next reads up to the next element of the array being read and reports
// whether there is one; at the closing bracket, or on a failed Reader, it
// reports false. Each element is read with the empty key.
func (r *Reader) Next() bool {
	if r.bad || r.i >= len(r.data) {
		r.bad = true
		return false
	}
	switch {
	case r.data[r.i] == ']':
		r.i++
		return false
	case r.i > 0 && r.data[r.i-1] == '[':
		return true
	case r.data[r.i] == ',':
		r.i++
		return true
	}
	r.bad = true
	return false
}

// Int reads an integer. Runs of up to 18 digits are decoded in place
// without the string conversion strconv.ParseInt needs; longer ones take
// the strconv path, which rejects overflow.
func (r *Reader) Int(key string) int64 {
	if !r.field(key) {
		return 0
	}
	j, integer, ok := numEnd(r.data, r.i)
	if !ok || !integer {
		r.bad = true
		return 0
	}
	k := r.i
	if r.data[k] == '-' {
		k++
	}
	if j-k > 18 {
		v, err := strconv.ParseInt(string(r.data[r.i:j]), 10, 64)
		if err != nil {
			r.bad = true
			return 0
		}
		r.i = j
		return v
	}
	var v int64
	for _, c := range r.data[k:j] {
		v = v*10 + int64(c-'0')
	}
	if k > r.i {
		v = -v
	}
	r.i = j
	return v
}

// Uint16 reads an integer in [0, 65535]. encoding/json refuses any sign
// on an unsigned field, even "-0".
func (r *Reader) Uint16(key string) uint16 {
	if !r.field(key) {
		return 0
	}
	if r.i < len(r.data) && r.data[r.i] == '-' {
		r.bad = true
		return 0
	}
	v := r.Int("")
	if v > math.MaxUint16 {
		r.bad = true
		return 0
	}
	return uint16(v)
}

// Float reads a number.
func (r *Reader) Float(key string) float64 {
	if !r.field(key) {
		return 0
	}
	j, _, ok := numEnd(r.data, r.i)
	if !ok {
		r.bad = true
		return 0
	}
	v, err := strconv.ParseFloat(string(r.data[r.i:j]), 64)
	if err != nil {
		r.bad = true
		return 0
	}
	r.i = j
	return v
}

// Floats reads a number array: null is nil, [] an empty slice.
func (r *Reader) Floats(key string) []float64 {
	if !r.Array(key) {
		return nil
	}
	out := []float64{}
	for r.Next() {
		if cap(out) == 0 {
			out = make([]float64, 0, 64)
		}
		out = append(out, r.Float(""))
	}
	return out
}

// Bool reads true or false.
func (r *Reader) Bool(key string) bool {
	if !r.field(key) {
		return false
	}
	if r.lit("true") {
		return true
	}
	if !r.lit("false") {
		r.bad = true
	}
	return false
}

// String reads a string. Only escape-free printable ASCII fits; any
// escape or byte outside it fails the Reader.
func (r *Reader) String(key string) string {
	if !r.field(key) {
		return ""
	}
	if r.i < len(r.data) && r.data[r.i] == '"' {
		for j := r.i + 1; j < len(r.data); j++ {
			c := r.data[j]
			if c == '"' {
				s := string(r.data[r.i+1 : j])
				r.i = j + 1
				return s
			}
			if c == '\\' || c < 0x20 || c >= 0x80 {
				break
			}
		}
	}
	r.bad = true
	return ""
}

// numEnd scans the JSON number at data[i] by RFC 8259's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, returning the index
// past it and whether it is a plain integer. It reports !ok when no
// well-formed number starts at i or one runs straight into another
// number character ("01", "1.", "1e", "+1"), so every literal the stdlib
// would reject is left to it.
func numEnd(data []byte, i int) (end int, integer, ok bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	switch {
	case j < len(data) && data[j] == '0':
		j++
	case j < len(data) && data[j] >= '1' && data[j] <= '9':
		j = digits(data, j+1)
	default:
		return i, false, false
	}
	integer = true
	if j < len(data) && data[j] == '.' {
		k := digits(data, j+1)
		if k == j+1 {
			return i, false, false
		}
		j, integer = k, false
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		j++
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		k := digits(data, j)
		if k == j {
			return i, false, false
		}
		j, integer = k, false
	}
	if j < len(data) && isNumChar(data[j]) {
		return i, false, false
	}
	return j, integer, true
}

func digits(data []byte, j int) int {
	for j < len(data) && data[j] >= '0' && data[j] <= '9' {
		j++
	}
	return j
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
