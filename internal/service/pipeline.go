package service

import (
	"fmt"
	"sync"

	"emprof/internal/core"
)

// This file is the staged half of the session. Ingest decodes wire
// bytes and analyses them on the request goroutine, under s.mu
// (service.go): the decoder's callback is analyzeBlock, which pushes each
// block through the analyzer, the attributor and the windower. Sealed
// windows leave that stage through a bounded queue to a per-session
// store worker.
//
//	HTTP body ──decode+analyze (s.mu)──▶ analyzer/attributor/windower
//	                                                │ seal
//	                 winq ──worker (s.winMu)──▶ window store
//
// Backpressure is the handler's own work: while a push is analysed its
// body is not read, which fills the client's TCP window. When the store
// falls behind (a slow disk), winq fills and the seal blocks the ingest
// request in turn, so memory stays bounded end to end.
//
// A push returns only after its samples are analysed and its sealed
// windows handed to winq, so every result-serving path sees them without
// waiting. Paths that read the window store cross the one barrier,
// drainWindowsLocked, for the same read-your-writes guarantee.

// storeQueueWindows bounds the seal→store queue. Windows are sealed at
// the window stride — orders of magnitude slower than sample blocks —
// so a short queue absorbs disk latency jitter without meaningfully
// delaying the drain barrier.
const storeQueueWindows = 16

// startPipeline wires a session's analysis chain and launches its store
// stage. Called before the session is published in the registry.
func (r *Registry) startPipeline(s *session) {
	s.emit = s.analyzeBlock
	if s.win != nil {
		s.win.OnWindow = r.windowSink(s)
		if r.store != nil {
			s.winq = make(chan *core.ProfileWindow, storeQueueWindows)
			s.winqDone = make(chan struct{})
			s.winCond = sync.NewCond(&s.winMu)
			go s.storeWorker(r)
		}
	}
}

// analyzeBlock pushes one decoded block through the analysis chain,
// straight from the decoder's scratch. A panic becomes the session's
// poison instead of killing the daemon: the rest of the body is analysed
// no further, and ingest rejects this push and every later one. Runs
// under s.mu.
func (s *session) analyzeBlock(blk []float64) {
	defer func() {
		if p := recover(); p != nil && s.poison == nil {
			s.poison = fmt.Errorf("service: analysis stage failed: %v", p)
		}
	}()
	if s.poison != nil {
		return
	}
	s.an.PushBlock(blk)
	if s.attr != nil {
		s.attr.Push(blk)
	}
	if s.win != nil {
		s.win.Advance(s.an.Frontier())
	}
}

// windowSink decorates each sealed window and hands it to the store
// stage. It runs where the windower seals, under s.mu: on ingest
// (Advance) or on the finalize path (Flush). In both cases the analyzer
// is quiescent at the seal point, so the cumulative quality read is
// consistent. The seal point counts the window before enqueueing it, so
// a drain that starts after a seal always waits for that window.
func (r *Registry) windowSink(s *session) func(*core.ProfileWindow) {
	return func(pw *core.ProfileWindow) {
		pw.Quality = s.an.Quality()
		if s.attr != nil {
			pw.Regions = s.attr.Summarize(pw.Stalls)
			// Decisions below the next window's start can never be asked
			// for again.
			s.attr.Drop(s.win.NextStart())
		}
		if s.winq == nil {
			return
		}
		s.winMu.Lock()
		s.winSealed++
		s.winMu.Unlock()
		s.winq <- pw
	}
}

// storeWorker is the session's store stage: it persists sealed windows
// so encoding and disk writes never run on the ingest request. It takes
// only winMu — never mu, which ingest and finalize hold while blocking on
// a full winq.
func (s *session) storeWorker(r *Registry) {
	defer close(s.winqDone)
	var dropLogged bool
	for pw := range s.winq {
		if err := r.store.Append(s.id, pw); err != nil {
			// The window is gone — profile history silently shrinks — so
			// make the loss observable: count every drop, and log the
			// first per session (a sick disk fails every append; one line
			// names the cause without flooding at window rate).
			r.metrics.WindowsDropped.Add(1)
			if !dropLogged {
				dropLogged = true
				r.cfg.Logf("service: session %s: window %d dropped, store append failed: %v", s.id, pw.Index, err)
			}
		} else {
			r.metrics.WindowsSealed.Add(1)
		}
		s.winMu.Lock()
		s.winStored++
		s.winMu.Unlock()
		s.winCond.Broadcast()
	}
}

// drainWindowsLocked blocks until the store stage has persisted every
// window sealed so far — the read-your-writes barrier crossed by paths
// that query the window store. Requires s.mu, which guarantees no seal is
// in flight; the store worker only needs winMu, so it progresses.
func (s *session) drainWindowsLocked() {
	if s.winq == nil {
		return
	}
	s.winMu.Lock()
	for s.winStored < s.winSealed {
		s.winCond.Wait()
	}
	s.winMu.Unlock()
}

// stopStoreStageLocked closes the store queue and waits for the worker
// to persist everything still on it. Requires s.mu, and nothing may seal
// after it: callers are finalize (after the trailing Flush) and Forget;
// idempotent.
func (s *session) stopStoreStageLocked() {
	if s.winq == nil || s.winqClosed {
		return
	}
	s.winqClosed = true
	close(s.winq)
	<-s.winqDone
}
