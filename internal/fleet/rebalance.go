package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"emprof/internal/service"
)

// Membership changes move live sessions with the shard-side hand-off
// protocol (internal/service/handoff.go): pin on the old owner — its
// ingest answers 503, which clients retry, so no sample can land twice
// — then export, import on the new owner, swap the ring, and finally
// forget on the old owner. The ring swaps only after every mover is
// imported, so a push racing the rebalance either reaches the old owner
// (pinned: 503, retried) or, after the swap, the new owner (which has
// the session). A session whose move fails is unpinned where it is and
// recorded in the override table so it keeps routing to its old shard
// until it finalizes.

// AddShard grows the fleet by one shard and hands it the sessions the
// new ring assigns to it.
func (rt *Router) AddShard(url string) error {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	cur := rt.Ring()
	next, err := cur.With(url)
	if err != nil {
		return err
	}
	return rt.rebalance(cur, next, cur.Shards())
}

// RemoveShard shrinks the fleet, streaming every session off the
// removed shard first. The shard must be reachable: hand-off reads its
// state (a dead shard's sessions are simply lost — there is no replica
// to recover them from).
func (rt *Router) RemoveShard(url string) error {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	cur := rt.Ring()
	next, err := cur.Without(url)
	if err != nil {
		return err
	}
	// Only the removed shard's sessions move; no need to scan the rest.
	return rt.rebalance(cur, next, []string{url})
}

type mover struct {
	id       string
	from, to string
}

// rebalance migrates every session on the source shards whose owner
// changes from the current to the next ring, then installs next.
//
// Every shard call is individually bounded by cfg.MoveTimeout: the
// whole run happens under rebalanceMu, so an unbounded call to a
// wedged shard would block membership changes (and creates, which
// read-lock the same mutex) forever. A timed-out listing fails the
// rebalance before anything moved; a timed-out move fails just that
// session into the unpin + override path.
func (rt *Router) rebalance(cur, next *Ring, sources []string) error {
	defer rt.rebalances.Add(1)
	var movers []mover
	for _, shard := range sources {
		infos, err := func() ([]service.SessionInfo, error) {
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.MoveTimeout)
			defer cancel()
			return rt.listShard(ctx, shard)
		}()
		if err != nil {
			return fmt.Errorf("fleet: listing %s for rebalance: %w", shard, err)
		}
		for _, info := range infos {
			if to := next.Owner(info.ID); to != shard {
				movers = append(movers, mover{id: info.ID, from: shard, to: to})
			}
		}
	}

	// Moves run concurrently (bounded) so a session is pinned only for
	// its own export+import, not the whole batch: its clients see 503s
	// for one move's duration, well inside their retry budget.
	oks := make([]bool, len(movers))
	errs := make([]error, len(movers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range movers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			oks[i], errs[i] = rt.moveSession(movers[i])
		}(i)
	}
	wg.Wait()

	var moved []mover
	var failed []error
	for i, m := range movers {
		switch {
		case errs[i] != nil:
			rt.movesFailed.Add(1)
			failed = append(failed, errs[i])
			// The session stays (unpinned) on its old shard; route it
			// there until it finalizes.
			rt.mu.Lock()
			rt.overrides[m.id] = m.from
			rt.mu.Unlock()
		case oks[i]:
			moved = append(moved, m)
		}
		// Neither: the session finalized between listing and pinning —
		// nothing moved, nothing to forget.
	}

	// Install the new ring. From here on the moved sessions route to
	// their importers; stragglers route via the override table.
	rt.mu.Lock()
	rt.ring = next
	seen := map[string]bool{}
	for _, s := range next.Shards() {
		seen[s] = true
		if rt.health[s] == nil {
			rt.health[s] = &shardHealth{}
		}
	}
	for s := range rt.health {
		if !seen[s] {
			delete(rt.health, s)
		}
	}
	// An override that now matches the ring is redundant.
	for id, s := range rt.overrides {
		if next.Owner(id) == s {
			delete(rt.overrides, id)
		}
	}
	rt.mu.Unlock()

	// Drop the moved sessions from their old owners. A failed forget is
	// benign: the session stays pinned there, untouchable, until the
	// shard's idle-TTL sweeper collects it.
	for _, m := range moved {
		fctx, cancel := context.WithTimeout(context.Background(), rt.cfg.MoveTimeout)
		rt.post(fctx, m.from, "/v1/sessions/"+m.id+"/forget", nil)
		cancel()
		rt.sessionsMoved.Add(1)
	}
	if len(failed) > 0 {
		return fmt.Errorf("fleet: %d of %d hand-offs failed (sessions kept on their old shards): first: %w",
			len(failed), len(movers), failed[0])
	}
	return nil
}

// moveSession runs pin → export → import for one session; moved
// reports whether the session actually changed shards. On any failure
// after the pin, the pin is lifted and the session keeps serving where
// it was. The whole pin→export→import chain shares one MoveTimeout
// deadline; the unpin rollback gets a fresh one, because the move's
// deadline may be the very thing that just expired.
func (rt *Router) moveSession(m mover) (moved bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.MoveTimeout)
	defer cancel()
	code, _, err := rt.post(ctx, m.from, "/v1/sessions/"+m.id+"/pin", nil)
	if err != nil {
		return false, fmt.Errorf("pinning %s on %s: %w", m.id, m.from, err)
	}
	if code == http.StatusNotFound {
		return false, nil // finalized while we were listing; nothing to move
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("pinning %s on %s: HTTP %d", m.id, m.from, code)
	}
	unpin := func() {
		uctx, ucancel := context.WithTimeout(context.Background(), rt.cfg.MoveTimeout)
		defer ucancel()
		rt.post(uctx, m.from, "/v1/sessions/"+m.id+"/unpin", nil)
	}

	code, blob, err := rt.post(ctx, m.from, "/v1/sessions/"+m.id+"/export", nil)
	if err != nil || code != http.StatusOK {
		unpin()
		if err == nil {
			err = fmt.Errorf("HTTP %d", code)
		}
		return false, fmt.Errorf("exporting %s from %s: %w", m.id, m.from, err)
	}
	code, _, err = rt.post(ctx, m.to, "/v1/sessions/import", blob)
	if err != nil || code != http.StatusCreated {
		unpin()
		if err == nil {
			err = fmt.Errorf("HTTP %d", code)
		}
		return false, fmt.Errorf("importing %s into %s: %w", m.id, m.to, err)
	}
	return true, nil
}

// post issues one JSON POST to a shard and returns the status and body.
func (rt *Router) post(ctx context.Context, shard, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}
