package service

import (
	"encoding/json"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
)

// UnmarshalJSON decodes a snapshot: the fast path accepts exactly the
// compact shape encoding/json emits, everything else falls back to the
// reflection decoder, so it accepts and rejects exactly what the plain
// struct does (FuzzSnapshotDecode). The client decodes every live
// profile poll through it.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	data = jsonfast.TrimSpace(data)
	if out, ok := parseSnapshotFast(data); ok {
		*s = out
		return nil
	}
	// plainSnapshot shadows Snapshot without its methods so the fallback
	// cannot recurse; decoding starts from the current value to keep the
	// stdlib's merge semantics for partial objects.
	type plainSnapshot Snapshot
	out := plainSnapshot(*s)
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*s = Snapshot(out)
	return nil
}

func parseSnapshotFast(data []byte) (Snapshot, bool) {
	var s Snapshot
	var ok bool
	i := 0
	if i, ok = jsonfast.Eat(data, i, `{"id":`); !ok {
		return s, false
	}
	if s.ID, i, ok = jsonfast.String(data, i); !ok {
		return s, false
	}
	if j, present := jsonfast.Eat(data, i, `,"device":`); present {
		if s.Device, i, ok = jsonfast.String(data, j); !ok {
			return s, false
		}
	}
	if i, ok = jsonfast.Eat(data, i, `,"state":`); !ok {
		return s, false
	}
	if s.State, i, ok = jsonfast.String(data, i); !ok {
		return s, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"samples_ingested":`); !ok {
		return s, false
	}
	if s.SamplesIngested, i, ok = jsonfast.Int(data, i); !ok {
		return s, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"samples_decided":`); !ok {
		return s, false
	}
	if s.SamplesDecided, i, ok = jsonfast.Int(data, i); !ok {
		return s, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"bytes_ingested":`); !ok {
		return s, false
	}
	if s.BytesIngested, i, ok = jsonfast.Int(data, i); !ok {
		return s, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"profile":`); !ok {
		return s, false
	}
	if j, isNull := jsonfast.Eat(data, i, "null"); isNull {
		i = j
	} else {
		prof, j, ok := core.ParseProfileJSON(data, i)
		if !ok {
			return s, false
		}
		s.Profile = &prof
		i = j
	}
	if i, ok = jsonfast.Eat(data, i, `,"mean_confidence":`); !ok {
		return s, false
	}
	if s.MeanConfidence, i, ok = jsonfast.Float(data, i); !ok {
		return s, false
	}
	if i, ok = jsonfast.Eat(data, i, `,"confidence_hist":[`); !ok {
		return s, false
	}
	for k := range s.ConfidenceHist {
		if k > 0 {
			if i, ok = jsonfast.Eat(data, i, ","); !ok {
				return s, false
			}
		}
		var n int64
		if n, i, ok = jsonfast.Int(data, i); !ok {
			return s, false
		}
		s.ConfidenceHist[k] = int(n)
	}
	if i, ok = jsonfast.Eat(data, i, "]}"); !ok || i != len(data) {
		return s, false
	}
	return s, true
}
