package service

import (
	"fmt"

	"emprof/internal/core"
)

// This file is the analysis half of the session. Ingest decodes wire
// bytes and analyses them on the request goroutine, under s.mu
// (service.go): the decoder's callback is analyzeBlock, which pushes each
// block through the analyzer, the attributor and the windower. A window
// is persisted where it seals, still under s.mu.
//
//	HTTP body ──decode+analyze+seal+store (s.mu)──▶ window store
//
// Backpressure is the handler's own work: while a push is analysed and
// its windows are stored its body is not read, which fills the client's
// TCP window. A slow disk slows the request that sealed the window, so
// memory stays bounded end to end.
//
// A push returns only after its samples are analysed and its sealed
// windows stored, so every result-serving path, the window store and
// every metrics counter included, sees them without waiting. Lock order
// is s.mu → Store.mu; the store never calls back into the service.

// analyzeBlock pushes one decoded block through the analysis chain,
// straight from the decoder's scratch, under the session's panic guard:
// after a panic the rest of the body is analysed no further, and ingest
// rejects this push and every later one. Runs under s.mu.
func (s *session) analyzeBlock(blk []float64) {
	if s.poison != nil {
		return
	}
	s.guard(func() {
		s.an.PushBlock(blk)
		if s.attr != nil {
			s.attr.Push(blk)
		}
		if s.win != nil {
			s.win.Advance(s.an.Frontier())
		}
	})
}

// guard runs one analysis step — a block on ingest, or a finalize — so
// that a panic becomes the session's poison instead of killing the
// daemon. It holds the package's only recover. Runs under s.mu.
func (s *session) guard(step func()) {
	defer func() {
		if p := recover(); p != nil && s.poison == nil {
			s.poison = fmt.Errorf("service: analysis stage failed: %v", p)
		}
	}()
	step()
}

// windowSink decorates each sealed window and appends it to the store.
// It runs where the windower seals, under s.mu: on ingest (Advance) or
// on the finalize path (Flush). In both cases the analyzer is quiescent
// at the seal point, so the cumulative quality read is consistent.
func (r *Registry) windowSink(s *session) func(*core.ProfileWindow) {
	return func(pw *core.ProfileWindow) {
		pw.Quality = s.an.Quality()
		if s.attr != nil {
			pw.Regions = s.attr.Summarize(pw.Stalls)
			// Decisions below the next window's start can never be asked
			// for again.
			s.attr.Drop(s.win.NextStart())
		}
		if r.store == nil {
			return
		}
		if err := r.store.Append(s.id, pw); err != nil {
			// The window is gone — profile history silently shrinks — so
			// make the loss observable: count every drop, and log the
			// first per session (a sick disk fails every append; one line
			// names the cause without flooding at window rate).
			r.metrics.WindowsDropped.Add(1)
			if !s.dropLogged {
				s.dropLogged = true
				r.cfg.Logf("service: session %s: window %d dropped, store append failed: %v", s.id, pw.Index, err)
			}
			return
		}
		r.metrics.WindowsSealed.Add(1)
	}
}
