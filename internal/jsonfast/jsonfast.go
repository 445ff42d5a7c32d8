// Package jsonfast holds the tiny parse primitives shared by the fast
// JSON decoders on the client's read path (core.StallList, core.Profile,
// core.ProfileWindow, service.Snapshot). Every value is written by
// encoding/json; the parsers accept exactly the compact shape it emits
// and report !ok for anything else — including numbers outside the JSON
// grammar — so callers fall back to the stdlib decoder, which then
// decides.
package jsonfast

import "strconv"

// Eat matches the literal lit at data[i], returning the index past it.
func Eat(data []byte, i int, lit string) (int, bool) {
	if i+len(lit) > len(data) || string(data[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
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

// Int parses a JSON integer at data[i]. Runs of up to 18 digits are
// decoded in place without the string conversion strconv.ParseInt
// needs; longer ones take the strconv path, which rejects overflow.
func Int(data []byte, i int) (int64, int, bool) {
	j, integer, ok := numEnd(data, i)
	if !ok || !integer {
		return 0, i, false
	}
	k := i
	if data[k] == '-' {
		k++
	}
	if j-k > 18 {
		v, err := strconv.ParseInt(string(data[i:j]), 10, 64)
		if err != nil {
			return 0, i, false
		}
		return v, j, true
	}
	var v int64
	for _, c := range data[k:j] {
		v = v*10 + int64(c-'0')
	}
	if k > i {
		v = -v
	}
	return v, j, true
}

// Float parses a JSON number at data[i].
func Float(data []byte, i int) (float64, int, bool) {
	j, _, ok := numEnd(data, i)
	if !ok {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(data[i:j]), 64)
	if err != nil {
		return 0, i, false
	}
	return v, j, true
}

// Bool parses a JSON boolean at data[i].
func Bool(data []byte, i int) (bool, int, bool) {
	if i+4 <= len(data) && string(data[i:i+4]) == "true" {
		return true, i + 4, true
	}
	if i+5 <= len(data) && string(data[i:i+5]) == "false" {
		return false, i + 5, true
	}
	return false, i, false
}

// String parses a JSON string at data[i]. Only escape-free printable
// ASCII takes the fast path; escaped or non-ASCII content reports !ok so
// the caller falls back to the stdlib decoder.
func String(data []byte, i int) (string, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return "", i, false
	}
	for j := i + 1; j < len(data); j++ {
		c := data[j]
		if c == '"' {
			return string(data[i+1 : j]), j + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return "", i, false
		}
	}
	return "", i, false
}

// TrimSpace strips leading/trailing JSON whitespace, so decoders accept
// the trailing newline json.Encoder appends without losing the fast
// path.
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
