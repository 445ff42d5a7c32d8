package core

import (
	"bytes"
	"encoding/json"

	"emprof/internal/jsonfast"
)

// The fast JSON decoders of the client's read path. Each type's reader
// lists its fields in the order encoding/json writes them, over a
// jsonfast.Reader that accepts exactly the compact shape the stdlib
// emits. Any other input (whitespace, reordered or unknown fields,
// numbers outside the JSON grammar, region numbers outside uint16,
// strings with escapes) fails the reader, and UnmarshalJSON hands it to
// the stdlib decoder over a method-free copy of the type, so each codec
// accepts and rejects exactly what the plain type does
// (FuzzStallListDecode, FuzzProfileDecode, FuzzWindowDecode).
//
// They are kept for end-to-end speed: DESIGN.md "JSON: the stdlib
// writes, one reader reads" has the numbers.

// StallList is the stall array of a Profile with a fast JSON decoder. A
// profile's bytes are dominated by this array.
type StallList []Stall

// UnmarshalJSON decodes a stall array.
func (sl *StallList) UnmarshalJSON(data []byte) error {
	r := jsonfast.NewReader(data)
	if out := readStalls(&r, "", true); r.Done() {
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

// UnmarshalJSON decodes a profile. Both paths replace the receiver: the
// fallback decodes into a zero value too, so a field the input lacks
// reads as zero whichever path took it. The plainProfile shadow cannot
// recurse, and its StallList field keeps its own codec.
func (p *Profile) UnmarshalJSON(data []byte) error {
	r := jsonfast.NewReader(data)
	if out := ReadProfile(&r); r.Done() {
		*p = out
		return nil
	}
	type plainProfile Profile
	var out plainProfile
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*p = Profile(out)
	return nil
}

// UnmarshalJSON decodes a window, falling back as Profile's does.
func (w *ProfileWindow) UnmarshalJSON(data []byte) error {
	r := jsonfast.NewReader(data)
	if out := ReadWindow(&r, true); r.Done() {
		*w = out
		return nil
	}
	type plainWindow ProfileWindow
	var out plainWindow
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	*w = ProfileWindow(out)
	return nil
}

// ReadProfile reads a profile object. Decoders of types that embed a
// profile (service.Snapshot) read it in the same pass.
func ReadProfile(r *jsonfast.Reader) (p Profile) {
	r.Object("")
	p.Stalls = readStalls(r, "Stalls", true)
	p.Misses = int(r.Int("Misses"))
	p.RefreshStalls = int(r.Int("RefreshStalls"))
	p.StallCycles = r.Float("StallCycles")
	p.ExecCycles = r.Float("ExecCycles")
	p.SampleRate = r.Float("SampleRate")
	p.ClockHz = r.Float("ClockHz")
	p.Normalized = r.Floats("Normalized")
	p.Quality = readQuality(r, "Quality")
	r.End()
	return p
}

// ReadWindow reads a window object. With keep false it checks the stall
// and region lists without building them: the fleet router checks and
// keys the window bytes it relays that way.
func ReadWindow(r *jsonfast.Reader, keep bool) (w ProfileWindow) {
	r.Object("")
	w.Index = r.Int("index")
	w.StartSample = r.Int("start_sample")
	w.EndSample = r.Int("end_sample")
	w.StartS = r.Float("start_s")
	w.EndS = r.Float("end_s")
	if r.Has("final") {
		w.Final = r.Bool("")
	}
	w.Stalls = readStalls(r, "stalls", keep)
	w.Misses = int(r.Int("misses"))
	w.RefreshStalls = int(r.Int("refresh_stalls"))
	w.StallCycles = r.Float("stall_cycles")
	w.MeanConfidence = r.Float("mean_confidence")
	w.Quality = readQuality(r, "quality")
	if r.Has("regions") && r.Array("") {
		w.Regions = []WindowRegion{}
		for r.Next() {
			if g := readRegion(r); keep {
				w.Regions = append(w.Regions, g)
			}
		}
	}
	r.End()
	return w
}

// readStalls reads the stall array at key; with keep false it only
// checks it.
func readStalls(r *jsonfast.Reader, key string, keep bool) StallList {
	if !r.Array(key) {
		return nil
	}
	out := StallList{}
	if keep {
		// Size the list to its own stalls, sparing a large decode the
		// garbage of doubling growth. A stall holds no array, so the
		// list's stalls are the braces before its first closing
		// bracket; no stall is shorter than minStallJSON, so a forged
		// list of bare braces reserves no more than its own size.
		rest := r.Rest()
		if end := bytes.IndexByte(rest, ']'); end > 0 {
			out = make(StallList, 0, min(bytes.Count(rest[:end], []byte("{")), end/minStallJSON+1))
		}
	}
	for r.Next() {
		if s := readStall(r); keep {
			out = append(out, s)
		}
	}
	return out
}

// minStallJSON is the length of the shortest stall encoding/json writes.
const minStallJSON = len(`{"StartSample":0,"EndSample":0,"StartS":0,"DurationS":0,"Cycles":0,"Depth":0,"Refresh":true,"Confidence":0}`)

func readStall(r *jsonfast.Reader) (s Stall) {
	r.Object("")
	s.StartSample = int(r.Int("StartSample"))
	s.EndSample = int(r.Int("EndSample"))
	s.StartS = r.Float("StartS")
	s.DurationS = r.Float("DurationS")
	s.Cycles = r.Float("Cycles")
	s.Depth = r.Float("Depth")
	s.Refresh = r.Bool("Refresh")
	s.Confidence = r.Float("Confidence")
	r.End()
	return s
}

func readQuality(r *jsonfast.Reader, key string) (q Quality) {
	r.Object(key)
	q.Samples = r.Int("Samples")
	q.NaNSamples = r.Int("NaNSamples")
	q.DroppedSamples = r.Int("DroppedSamples")
	q.ClippedSamples = r.Int("ClippedSamples")
	q.BurstSamples = r.Int("BurstSamples")
	q.StepSamples = r.Int("StepSamples")
	q.Resyncs = int(r.Int("Resyncs"))
	q.AbortedDips = int(r.Int("AbortedDips"))
	r.End()
	return q
}

func readRegion(r *jsonfast.Reader) (g WindowRegion) {
	r.Object("")
	g.Region = r.Uint16("region")
	if r.Has("name") {
		g.Name = r.String("")
	}
	g.Misses = int(r.Int("misses"))
	g.StallCycles = r.Float("stall_cycles")
	r.End()
	return g
}
