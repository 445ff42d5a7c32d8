package core

import (
	"encoding/json"

	"emprof/internal/jsonfast"
)

// StallList is the stall array of a Profile with a fast JSON decoder.
// encoding/json writes it as a plain []Stall; a profile's bytes are
// dominated by this array, so decoding it without the stdlib's
// reflection walk is most of what keeps Profile.UnmarshalJSON fast.
type StallList []Stall

// UnmarshalJSON decodes a stall array. The fast path parses exactly the
// compact shape encoding/json emits (fields in declaration order, no
// whitespace); any other input — reordered or unknown fields,
// whitespace, numbers outside the JSON grammar — falls back to the
// stdlib decoder, so it accepts and rejects exactly what a plain
// []Stall does (FuzzStallListDecode).
func (sl *StallList) UnmarshalJSON(data []byte) error {
	data = jsonfast.TrimSpace(data)
	if out, i, ok := parseStallsSpan(data, 0); ok && i == len(data) {
		*sl = out
		return nil
	}
	var xs []Stall
	if err := json.Unmarshal(data, &xs); err != nil {
		return err
	}
	*sl = xs
	return nil
}

// parseStallsSpan parses a compact stall array (or null) starting at
// data[i], returning the index just past it.
func parseStallsSpan(data []byte, i int) (StallList, int, bool) {
	if j, ok := jsonfast.Eat(data, i, "null"); ok {
		return nil, j, true
	}
	if i >= len(data) || data[i] != '[' {
		return nil, i, false
	}
	i++
	if i < len(data) && data[i] == ']' {
		return StallList{}, i + 1, true
	}
	// Size the output from the remaining span: compact stalls run ~170
	// bytes each, and a snapshot's blob is dominated by this array, so
	// the estimate spares the doubling-growth garbage of large decodes.
	out := make(StallList, 0, (len(data)-i)/170+4)
	for {
		var s Stall
		var ok bool
		if i, ok = parseStallFast(data, i, &s); !ok {
			return nil, i, false
		}
		out = append(out, s)
		if i < len(data) && data[i] == ']' {
			return out, i + 1, true
		}
		if i >= len(data) || data[i] != ',' {
			return nil, i, false
		}
		i++
	}
}

// parseStallFast parses one compact stall object starting at data[i],
// returning the index just past its closing brace.
func parseStallFast(data []byte, i int, s *Stall) (int, bool) {
	var ok bool
	var n int64
	if i, ok = jsonfast.Eat(data, i, `{"StartSample":`); !ok {
		return i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return i, false
	}
	s.StartSample = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"EndSample":`); !ok {
		return i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return i, false
	}
	s.EndSample = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"StartS":`); !ok {
		return i, false
	}
	if s.StartS, i, ok = jsonfast.Float(data, i); !ok {
		return i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"DurationS":`); !ok {
		return i, false
	}
	if s.DurationS, i, ok = jsonfast.Float(data, i); !ok {
		return i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Cycles":`); !ok {
		return i, false
	}
	if s.Cycles, i, ok = jsonfast.Float(data, i); !ok {
		return i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Depth":`); !ok {
		return i, false
	}
	if s.Depth, i, ok = jsonfast.Float(data, i); !ok {
		return i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Refresh":`); !ok {
		return i, false
	}
	if s.Refresh, i, ok = jsonfast.Bool(data, i); !ok {
		return i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Confidence":`); !ok {
		return i, false
	}
	if s.Confidence, i, ok = jsonfast.Float(data, i); !ok {
		return i, false
	}
	if i >= len(data) || data[i] != '}' {
		return i, false
	}
	return i + 1, true
}
