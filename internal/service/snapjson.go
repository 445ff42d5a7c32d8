package service

import (
	"encoding/json"

	"emprof/internal/core"
	"emprof/internal/jsonfast"
)

// UnmarshalJSON decodes a snapshot: its fields in wire order over a
// jsonfast.Reader, which takes exactly the compact shape encoding/json
// emits; everything else falls back to the reflection decoder, so it
// accepts and rejects exactly what the plain struct does
// (FuzzSnapshotDecode). Both paths replace the receiver, as Profile's
// do. The client decodes every live profile poll through it.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	r := jsonfast.NewReader(data)
	if out := readSnapshot(&r); r.Done() {
		*s = out
		return nil
	}
	// plainSnapshot shadows Snapshot without its methods so the fallback
	// cannot recurse.
	type plainSnapshot Snapshot
	var out plainSnapshot
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*s = Snapshot(out)
	return nil
}

func readSnapshot(r *jsonfast.Reader) (s Snapshot) {
	r.Object("")
	s.ID = r.String("id")
	if r.Has("device") {
		s.Device = r.String("")
	}
	s.State = r.String("state")
	s.SamplesIngested = r.Int("samples_ingested")
	s.SamplesDecided = r.Int("samples_decided")
	s.BytesIngested = r.Int("bytes_ingested")
	if !r.Null("profile") {
		p := core.ReadProfile(r)
		s.Profile = &p
	}
	s.MeanConfidence = r.Float("mean_confidence")
	if r.Array("confidence_hist") {
		// Like encoding/json, elements past the array's length are
		// dropped and missing ones read as zero.
		for k := 0; r.Next(); k++ {
			if n := r.Int(""); k < len(s.ConfidenceHist) {
				s.ConfidenceHist[k] = int(n)
			}
		}
	}
	r.End()
	return s
}
