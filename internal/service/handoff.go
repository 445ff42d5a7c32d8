package service

import (
	"fmt"
	"time"

	"emprof/internal/core"
	"emprof/internal/em"
)

// This file implements the shard side of fleet session hand-off. The
// protocol, driven by the router (internal/fleet), is:
//
//	1. Pin(id) on the current owner — ingest/snapshot/finalize start
//	   answering 503 (ErrPinned), which clients retry; no sample can
//	   land while the state is in flight.
//	2. Export(id) on the owner — the complete session state (analyzer,
//	   wire decoder, metadata) as one JSON document.
//	3. Import(state) on the new owner — the session resumes replay-free;
//	   pushing the remaining samples yields a profile bit-identical to
//	   one shard having seen the whole stream.
//	4. Forget(id) on the old owner — the moved session is dropped
//	   without finalizing. On any failure the router calls Unpin(id)
//	   instead and the session keeps serving where it was.
//
// Per-session decision-trace rings deliberately do not travel: they are
// debugging state, unbounded-ish, and the new owner starts a fresh ring.

// SessionState is the hand-off wire format: everything a shard needs to
// resume a live session another shard started.
type SessionState struct {
	ID         string    `json:"id"`
	Device     string    `json:"device,omitempty"`
	SampleRate float64   `json:"sample_rate"`
	ClockHz    float64   `json:"clock_hz"`
	Created    time.Time `json:"created_at"`
	Bytes      int64     `json:"bytes_ingested"`

	Stream *core.StreamState `json:"stream"`
	// Decoder is the word reassembly position. Import reads a missing
	// one as zero samples emitted.
	Decoder *em.DecoderState `json:"decoder,omitempty"`
	// Windows is the rolling-window emitter's position, so the new owner
	// continues the window sequence seamlessly (same indexes, no gap, no
	// overlap); nil when the exporting shard ran without windowing.
	// Already-sealed windows stay in the exporting shard's store — the
	// fleet router's profiles fan-in reassembles the full sequence.
	// Attribution state deliberately does not travel (like trace rings):
	// the streaming attributor's frame alignment cannot be rebuilt
	// mid-stream, so post-hand-off windows simply carry no Regions.
	Windows *core.WindowerState `json:"windows,omitempty"`
}

// Pin freezes a session for hand-off: until Unpin (or Forget), ingest,
// snapshot and finalize answer ErrPinned. Pinning is idempotent.
func (r *Registry) Pin(id string) error {
	s, err := r.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return ErrNotFound
	}
	s.pinned = true
	return nil
}

// Unpin lifts a hand-off pin after a failed move; the session resumes
// serving on this shard.
func (r *Registry) Unpin(id string) error {
	s, err := r.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinned = false
	return nil
}

// Export snapshots a pinned session's complete state. The session must
// be pinned first — exporting a live session would race its ingest — and
// stays in the registry (still pinned) until Forget or Unpin.
func (r *Registry) Export(id string) (*SessionState, error) {
	s, err := r.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.pinned {
		return nil, fmt.Errorf("%w: session %q not pinned", ErrConflict, id)
	}
	if s.finalized {
		return nil, ErrNotFound
	}
	if s.poison != nil {
		return nil, s.poisoned()
	}
	// Pinning froze ingest, and the session lock keeps the exported
	// analyzer and windower a consistent pair. Every window sealed here is
	// already in this shard's store, where fleet fan-in queries expect it
	// once the importer owns the session.
	ds := s.dec.State()
	st := &SessionState{
		ID:         s.id,
		Device:     s.device,
		SampleRate: s.sampleRate,
		ClockHz:    s.clockHz,
		Created:    s.created,
		Bytes:      s.bytes,
		Stream:     s.an.ExportState(),
		Decoder:    &ds,
	}
	if s.win != nil {
		st.Windows = s.win.ExportState()
	}
	r.metrics.SessionsExported.Add(1)
	return st, nil
}

// Import installs a session exported by another shard. The imported
// session is live (not pinned) immediately; its analyzer resumes exactly
// where the exporting shard stopped. The state must pass the rule
// CreateSession applies, fit this shard's byte budget, and be consistent
// with itself: the envelope's acquisition metadata is the stream's, the
// decoder (none counts as zero samples) has emitted exactly what the
// analyzer was pushed, so an offset-tagged push continues the stream, and
// the windower has sealed every window the analyzer's frontier has
// passed. ErrConflict if the ID already exists here, ErrFull under the
// session cap.
func (r *Registry) Import(st *SessionState) error {
	if st == nil || st.Stream == nil {
		return fmt.Errorf("service: import without stream state")
	}
	if st.ID == "" {
		return fmt.Errorf("service: import without session ID")
	}
	if err := checkSession(st.ID, st.SampleRate, st.ClockHz); err != nil {
		return err
	}
	if st.SampleRate != st.Stream.SampleRate || st.ClockHz != st.Stream.ClockHz {
		return fmt.Errorf("service: import metadata rate=%v clock=%v disagrees with its stream state rate=%v clock=%v",
			st.SampleRate, st.ClockHz, st.Stream.SampleRate, st.Stream.ClockHz)
	}
	if st.Bytes < 0 || st.Bytes > r.cfg.MaxSessionBytes {
		return fmt.Errorf("service: import byte count %d outside this shard's budget [0, %d]", st.Bytes, r.cfg.MaxSessionBytes)
	}
	an, err := core.ResumeStreamAnalyzer(st.Stream)
	if err != nil {
		return err
	}
	s := &session{
		id: st.ID, device: st.Device, sampleRate: st.SampleRate, clockHz: st.ClockHz,
		created: st.Created, an: an, bytes: st.Bytes,
	}
	// Resume the window sequence where the exporter stopped; an exporter
	// that ran without windowing leaves this shard's windowing off for
	// the session too (a fresh windower would re-emit indexes from 0 and
	// corrupt the fleet-merged sequence).
	if st.Windows != nil {
		if s.win, err = core.ResumeWindower(st.Windows, st.SampleRate, st.ClockHz); err != nil {
			return err
		}
		// A sum that overflows lands here too.
		if end := st.Windows.Next + st.Windows.WidthSamples; an.Frontier() >= end {
			return fmt.Errorf("service: import windower ends at sample %d behind the analyzer frontier %d", end, an.Frontier())
		}
	}
	if st.Decoder != nil {
		dec, err := em.RestoreDecoder(*st.Decoder)
		if err != nil {
			return err
		}
		s.dec = *dec
	}
	if s.dec.Emitted() != an.Pushed() {
		return fmt.Errorf("service: import decoder at sample %d but analyzer at %d", s.dec.Emitted(), an.Pushed())
	}
	return r.admit(s, &r.metrics.SessionsImported)
}

// Forget drops a session without finalizing it — the completion of a
// hand-off, once the new owner has acknowledged the import. The profile
// lives on at the importing shard.
func (r *Registry) Forget(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.sessions[id]; !ok {
		return ErrNotFound
	}
	delete(r.sessions, id)
	return nil
}
