package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestProxyStatusSplit pins the 502/504 contract the client's retry
// table depends on: 502 strictly for failures before any byte is
// forwarded (shard marked down) — safe for even an untagged push to
// retry — and 504 when the shard connection fails, where the shard may
// hold a decoded prefix of the body and only idempotent requests may
// resend.
func TestProxyStatusSplit(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore: every Do fails

	rt, err := NewRouter(Config{Shards: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/abc/samples", strings.NewReader("xxxxxxxx")))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("unreachable shard: HTTP %d, want 504", rec.Code)
	}

	rt.mu.Lock()
	rt.health[deadURL].down = true
	rt.mu.Unlock()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/abc/samples", strings.NewReader("xxxxxxxx")))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("marked-down shard: HTTP %d, want 502", rec.Code)
	}
}

// TestFinalizeOverrideLifecycle checks that handleFinalize drops a
// session's routing override only once its shard confirms the session
// gone. Dropping it on a failed DELETE would route every later request
// — including the client's own retry — to the ring owner, which knows
// nothing of the session, stranding it and its profile forever.
func TestFinalizeOverrideLifecycle(t *testing.T) {
	// The ring owner never holds the session; with an override in place
	// it must never even be asked.
	ringOwner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such session")
	}))
	defer ringOwner.Close()

	newRouterWithOverride := func(t *testing.T, shard string) *Router {
		t.Helper()
		rt, err := NewRouter(Config{Shards: []string{ringOwner.URL}})
		if err != nil {
			t.Fatal(err)
		}
		rt.overrides["s1"] = shard
		return rt
	}
	finalize := func(rt *Router) int {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sessions/s1", nil))
		return rec.Code
	}
	hasOverride := func(rt *Router) bool {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		_, ok := rt.overrides["s1"]
		return ok
	}

	t.Run("failed DELETE keeps the override", func(t *testing.T) {
		gone := httptest.NewServer(http.NotFoundHandler())
		goneURL := gone.URL
		gone.Close() // unreachable: the session still lives there
		rt := newRouterWithOverride(t, goneURL)
		if code := finalize(rt); code != http.StatusGatewayTimeout {
			t.Fatalf("finalize against unreachable override shard: HTTP %d, want 504", code)
		}
		if !hasOverride(rt) {
			t.Fatal("override dropped although the DELETE never reached the shard")
		}
		if rt.owner("s1") != goneURL {
			t.Fatalf("session re-routed to %s, want override %s", rt.owner("s1"), goneURL)
		}
	})

	t.Run("successful DELETE drops the override", func(t *testing.T) {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodDelete {
				writeError(w, http.StatusMethodNotAllowed, "unexpected %s", r.Method)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"misses": 0})
		}))
		defer shard.Close()
		rt := newRouterWithOverride(t, shard.URL)
		if code := finalize(rt); code != http.StatusOK {
			t.Fatalf("finalize against override shard: HTTP %d, want 200", code)
		}
		if hasOverride(rt) {
			t.Fatal("override kept after the shard finalized the session")
		}
	})

	t.Run("relayed 404 drops the override", func(t *testing.T) {
		shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, "no such session")
		}))
		defer shard.Close()
		rt := newRouterWithOverride(t, shard.URL)
		if code := finalize(rt); code != http.StatusNotFound {
			t.Fatalf("finalize of a gone session: HTTP %d, want 404", code)
		}
		if hasOverride(rt) {
			t.Fatal("override kept although its shard no longer knows the session")
		}
	})
}

// TestRebalanceTimeoutOnWedgedShard drives a membership change against
// a shard that accepts connections but never answers. moveTimeout must
// fail the rebalance promptly — it runs under the membership lock, so
// without the bound one wedged shard would block the admin routes (and
// creates, which share the lock) forever.
func TestRebalanceTimeoutOnWedgedShard(t *testing.T) {
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer wedged.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, []any{})
	}))
	defer healthy.Close()

	rt, err := NewRouter(Config{Shards: []string{wedged.URL, healthy.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.moveTimeout = 50 * time.Millisecond
	start := time.Now()
	if err := rt.RemoveShard(wedged.URL); err == nil {
		t.Fatal("rebalance off a wedged shard reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rebalance blocked %v despite moveTimeout", elapsed)
	}
	// The listing failed before anything moved: membership is unchanged
	// and the next attempt is free to try again.
	if got := len(rt.Ring().Shards()); got != 2 {
		t.Fatalf("ring has %d shards after failed rebalance, want 2", got)
	}
}

// TestPinnedPushWaitsForRebalance stretches a hand-off: the owner
// answers a push 503 (pinned) while the router's membership change is
// in flight. The router must hold the push until the change finishes
// and replay it once, so the client sees one success however long the
// move takes. Outside a membership change a 503 is relayed as-is.
func TestPinnedPushWaitsForRebalance(t *testing.T) {
	var calls, released atomic.Int32
	refused := make(chan struct{}, 1)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if released.Load() == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"service: session pinned for hand-off"}`)
			refused <- struct{}{}
			return
		}
		io.WriteString(w, `{"samples_ingested":1,"bytes_ingested":8}`)
	}))
	defer shard.Close()
	rt, err := NewRouter(Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	push := func() int {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/samples", strings.NewReader("xxxxxxxx")))
		return rec.Code
	}

	if code := push(); code != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Fatalf("503 outside a membership change: HTTP %d after %d deliveries, want 503 after 1", code, calls.Load())
	}
	<-refused

	rt.rebalanceMu.Lock() // a membership change is moving the session
	done := make(chan int, 1)
	go func() { done <- push() }()
	<-refused
	released.Store(1)
	rt.rebalances.Add(1) // the change finishes, as rebalance does
	rt.rebalanceMu.Unlock()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("push during a move: HTTP %d, want 200", code)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("shard saw %d deliveries, want 3 (one relayed 503, one refused, one replayed)", n)
	}
}
