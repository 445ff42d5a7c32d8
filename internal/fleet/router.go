package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emprof/internal/service"
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the initial shard membership: emprofd base URLs, e.g.
	// "http://10.0.0.1:7979". Membership can change at runtime via
	// AddShard/RemoveShard (or the /v1/fleet/shards admin routes), which
	// trigger live session hand-off.
	Shards []string
	// Seed remixes the ring's hash space. Every router replica in front
	// of the same fleet must use the same seed.
	Seed uint64
	// HTTPClient issues shard requests; nil means a shared client whose
	// transport moves a full relayed chunk per write (defaultRelayClient).
	HTTPClient *http.Client
}

const (
	// healthInterval spaces the shard health probes started by Start.
	healthInterval = 2 * time.Second
	// failThreshold is how many consecutive probe failures mark a shard
	// down. A down shard answers 502 for its sessions (clients retry)
	// until a probe succeeds again; it is NOT removed from the ring —
	// hand-off needs the source alive, so membership changes are always
	// explicit.
	failThreshold = 3
	// moveTimeout bounds each shard call a rebalance makes (the source
	// listing and each session's export/import/unpin/forget) and the
	// proxied delivery of a create. Rebalancing holds the membership
	// lock, so without a bound one wedged shard — an accepted connection
	// that never answers — would block the admin routes and all future
	// membership changes forever. A timed-out move fails into the normal
	// unpin + override recovery path.
	moveTimeout = 30 * time.Second
)

// Router is the stateless front of an emprofd fleet. All per-session
// state lives on the shards; the router only holds the ring, the health
// table, and a small override map for sessions stranded by a failed
// hand-off. Kill a router and start another with the same shard list
// and seed: every session routes identically.
type Router struct {
	client *http.Client
	// moveTimeout is the constant of that name, a field only so a test
	// can shorten it.
	moveTimeout time.Duration

	mu        sync.RWMutex
	ring      *Ring
	health    map[string]*shardHealth
	overrides map[string]string // session ID -> shard, for failed moves

	// rebalanceMu serializes membership changes (writers); hand-off is
	// incremental and two concurrent rebalances would race pin/forget.
	// Creates take it as readers across owner resolution + delivery, so
	// every session either exists on its shard before a rebalance lists
	// the sources (and is considered for moving) or resolves its owner
	// from the post-rebalance ring — a create can never land on a source
	// shard after the listing and be stranded by the ring swap.
	rebalanceMu sync.RWMutex
	// rebalances counts finished membership changes (bumped under
	// rebalanceMu), so a proxied request can tell whether one ran while
	// it was in flight.
	rebalances atomic.Int64

	sessionsMoved atomic.Int64
	movesFailed   atomic.Int64
	proxiedTotal  atomic.Int64
	proxyErrors   atomic.Int64
}

type shardHealth struct {
	fails int
	down  bool
}

// defaultRelayClient carries proxied traffic for routers that did not
// supply their own client. Relayed ingest bodies run to hundreds of
// kilobytes; the enlarged transport buffers move a full chunk per write
// syscall instead of the stock 4 KiB. Shared across routers so idle
// shard connections pool, as they did with http.DefaultClient.
var defaultRelayClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     256 << 10,
		ReadBufferSize:      256 << 10,
	},
}

// NewRouter builds a router over the configured shards.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one shard")
	}
	for _, s := range cfg.Shards {
		if err := checkShardURL(s); err != nil {
			return nil, err
		}
	}
	rt := &Router{
		client:      cfg.HTTPClient,
		moveTimeout: moveTimeout,
		ring:        NewRing(cfg.Shards, cfg.Seed),
		health:      make(map[string]*shardHealth),
		overrides:   make(map[string]string),
	}
	if rt.client == nil {
		rt.client = defaultRelayClient
	}
	for _, s := range rt.ring.Shards() {
		rt.health[s] = &shardHealth{}
	}
	return rt, nil
}

// checkShardURL is the rule every shard URL passes before it joins the
// ring: the router appends request paths to it verbatim.
func checkShardURL(s string) error {
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		return fmt.Errorf("fleet: shard %q is not an http(s) URL", s)
	}
	return nil
}

// Ring returns the current ring (immutable; swapped atomically on
// membership change).
func (rt *Router) Ring() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// Start launches the health-probe loop and returns a stop function.
func (rt *Router) Start() (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(healthInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				rt.ProbeShards()
			}
		}
	}()
	return func() { close(done) }
}

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// ProbeShards runs one health-check round: GET /v1/sessions on every
// member, each bounded by probeTimeout; failThreshold consecutive
// failures mark a shard down, one success marks it up.
func (rt *Router) ProbeShards() {
	for _, s := range rt.Ring().Shards() {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		code, _, _ := rt.call(ctx, http.MethodGet, s, "/v1/sessions", nil)
		cancel()
		rt.noteProbe(s, code > 0 && code < 500)
	}
}

func (rt *Router) noteProbe(shard string, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := rt.health[shard]
	if h == nil {
		return // raced a membership change
	}
	if ok {
		h.fails = 0
		h.down = false
		return
	}
	h.fails++
	if h.fails >= failThreshold {
		h.down = true
	}
}

func (rt *Router) isDown(shard string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	h := rt.health[shard]
	return h != nil && h.down
}

// owner resolves a session ID to its shard: the override table first
// (sessions stranded where the ring no longer points by a failed
// hand-off), then the ring.
func (rt *Router) owner(id string) string {
	rt.mu.RLock()
	if s, ok := rt.overrides[id]; ok {
		rt.mu.RUnlock()
		return s
	}
	ring := rt.ring
	rt.mu.RUnlock()
	return ring.Owner(id)
}

func (rt *Router) dropOverride(id string) {
	rt.mu.Lock()
	delete(rt.overrides, id)
	rt.mu.Unlock()
}

// Handler returns the router's HTTP surface: the emprofd session API
// (proxied per-session, aggregated fleet-wide) plus the /v1/fleet admin
// routes. Paths mirror the shard surface so emprof.Client works
// unchanged against a router.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/samples", rt.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/profile", rt.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/profiles", rt.handleProfiles)
	mux.HandleFunc("GET /v1/sessions/{id}/trace", rt.handleSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleFinalize)
	mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleetStatus)
	mux.HandleFunc("POST /v1/fleet/shards", rt.membership(rt.AddShard))
	mux.HandleFunc("POST /v1/fleet/shards/remove", rt.membership(rt.RemoveShard))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, a ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, a...)})
}

// maxShardBody bounds every shard answer the router buffers: listings,
// metrics, profiles fragments and hand-off blobs.
const maxShardBody = 256 << 20

// call sends one request to a shard and reads its whole answer. The
// status is the shard's whenever it answered, even if reading the body
// then failed; 0 means no answer. A non-nil body is sent as JSON.
func (rt *Router) call(ctx context.Context, method, shard, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, shard+path, rd)
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
	// Shards send Content-Length: read the body into a buffer of that
	// size instead of growing one, which would leave about as much
	// garbage again per read.
	var data []byte
	if n := resp.ContentLength; n > 0 && n <= maxShardBody {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	}
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// forward relays the client's request to a shard — method, escaped path
// and query, headers (the idempotency offset tag included) and body, n
// bytes of it or -1 if unknown — and returns the shard's response with
// its status. When there is no response it has answered the client
// itself and returns nil with the status it wrote.
//
// Shard trouble splits into two statuses by what the shard may have
// seen. 502 is reserved for failures *before* any byte is sent (shard
// marked down): it can never leave partial state behind, so even an
// untagged push retries it safely. A Do error is different — the
// connection can break mid-body after the shard decoded a prefix — so
// it surfaces as 504, which only idempotent (offset-tagged or GET)
// requests may retry. The package's Client tags every push; untagged
// pushes come only from third-party callers (curl and the like), and
// collapsing both statuses to 502 would let one of them resend a body
// whose prefix already landed: a double ingest.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, shard string, body io.Reader, n int64) (*http.Response, int) {
	if rt.isDown(shard) {
		rt.proxyErrors.Add(1)
		writeError(w, http.StatusBadGateway, "fleet: shard %s marked down", shard)
		return nil, http.StatusBadGateway
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, shard+r.URL.RequestURI(), body)
	var resp *http.Response
	if err == nil {
		req.Header = r.Header.Clone()
		req.ContentLength = n
		resp, err = rt.client.Do(req)
	}
	if err != nil {
		rt.proxyErrors.Add(1)
		writeError(w, http.StatusGatewayTimeout, "fleet: shard %s unreachable: %v", shard, err)
		return nil, http.StatusGatewayTimeout
	}
	return resp, resp.StatusCode
}

// proxy streams one request to a shard, relays the response and returns
// the status written to the client.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shard string) int {
	rt.proxiedTotal.Add(1)
	resp, code := rt.forward(w, r, shard, r.Body, r.ContentLength)
	if resp != nil {
		relay(w, resp)
	}
	return code
}

// relay copies a shard response — status, headers, body — to the client.
// The copy goes through the server's response writer's ReadFrom, which
// brings its own buffer.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req service.CreateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "fleet: bad create body: %v", err)
		return
	}
	if req.ID == "" {
		// The router assigns IDs itself: ownership is computed from the
		// ID, so it has to exist before any shard is picked.
		req.ID = service.NewSessionID()
	}
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "fleet: %v", err)
		return
	}
	// The read-lock spans owner resolution AND delivery: released only
	// once the session exists on its shard (or the create failed), so a
	// rebalance that starts afterwards lists it, and one already holding
	// the write lock forces this create to resolve from the next ring.
	// Without it, a create resolved on the old ring could land on a
	// source shard after the rebalance listed it — the ring swap would
	// then route every request to the new owner, 404, forever.
	rt.rebalanceMu.RLock()
	defer rt.rebalanceMu.RUnlock()
	owner := rt.Ring().Owner(req.ID)
	// Bound the delivery so a wedged shard (or a client that never
	// cancels) cannot hold the read lock forever and wedge membership
	// changes with it. A timed-out create answers 504; the client
	// retries creates freely.
	ctx, cancel := context.WithTimeout(r.Context(), rt.moveTimeout)
	defer cancel()
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	rt.proxy(w, r2, owner)
}

// replaySessionBody bounds the bodies proxySession buffers for
// ownership-race replay. Bodies above it — and bodies of unknown
// length — are streamed straight through to the owner instead of being
// held in router memory (the old path io.ReadAll-buffered every proxied
// request, up to 256 MiB each).
const replaySessionBody = 4 << 20

// replayBufPool recycles the bounded replay buffers across proxied
// requests. A buffer is returned ONLY after the forwarded request
// succeeded end to end: on any error or non-2xx path the transport's
// write loop may still be draining the bytes.Reader asynchronously, so
// the buffer is dropped to the garbage collector instead.
var replayBufPool sync.Pool

// proxySession forwards a per-session route to its owner and returns
// the status written to the client. Bodies of known, bounded size are
// buffered (in a pooled buffer) so the request can be replayed: a
// hand-off can land between owner resolution and delivery — the request
// reaches the old shard after Forget and draws a 404 even though the
// session is alive on its new owner — so a 404 re-resolves ownership
// and retries once if it moved. A genuine unknown session resolves to
// the same owner twice and the 404 is relayed as-is. Likewise a 503
// while this router changes membership is a session pinned for its
// move, refused before any byte was consumed: the request waits for the
// change to finish and, if one ran since it was forwarded, is replayed
// once to wherever the session landed, so a move never spends the
// client's retry budget however long it takes. Oversized or
// length-less bodies skip the replay: they stream to the first resolved
// owner, and an ownership-race 404 is relayed for the client's own
// retry to resolve (the emprof client offset-tags its pushes, so its
// retry is loss- and duplicate-free either way).
//
// Both sends go through forward, so the 502/504 split holds for each.
func (rt *Router) proxySession(w http.ResponseWriter, r *http.Request, id string) int {
	if r.ContentLength < 0 || r.ContentLength > replaySessionBody {
		return rt.proxy(w, r, rt.owner(id))
	}
	var body []byte
	var bp *[]byte
	if r.ContentLength > 0 {
		bp, _ = replayBufPool.Get().(*[]byte)
		if bp == nil {
			bp = new([]byte)
		}
		if int64(cap(*bp)) < r.ContentLength {
			*bp = make([]byte, r.ContentLength)
		}
		body = (*bp)[:r.ContentLength]
		if _, err := io.ReadFull(r.Body, body); err != nil {
			writeError(w, http.StatusBadRequest, "fleet: reading body: %v", err)
			return http.StatusBadRequest
		}
	}
	rt.proxiedTotal.Add(1)
	rebalances := rt.rebalances.Load()
	shard := rt.owner(id)
	resp, code := rt.forward(w, r, shard, bytes.NewReader(body), int64(len(body)))
	if resp == nil {
		return code
	}
	replay := false
	switch resp.StatusCode {
	case http.StatusNotFound:
		replay = rt.owner(id) != shard
	case http.StatusServiceUnavailable:
		rt.rebalanceMu.RLock() // wait out a membership change in flight
		rt.rebalanceMu.RUnlock()
		replay = rt.rebalances.Load() != rebalances
	}
	if again := rt.owner(id); replay && !rt.isDown(again) {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp, code = rt.forward(w, r, again, bytes.NewReader(body), int64(len(body))); resp == nil {
			return code
		}
	}
	relay(w, resp)
	if bp != nil && code >= 200 && code < 300 {
		replayBufPool.Put(bp)
	}
	return code
}

func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	rt.proxySession(w, r, r.PathValue("id"))
}

func (rt *Router) handleFinalize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code := rt.proxySession(w, r, id)
	// The override routes a stranded session to its off-ring shard; it
	// may only be dropped once that shard says the session is gone — a
	// 2xx (finalized) or a relayed 404 (already gone; with an override
	// in place owner() resolves to the overridden shard, so the 404 is
	// its answer). Dropping it on a failed DELETE (502/504: shard down
	// or unreachable — the session still lives there) would re-route
	// the client's retry to the ring owner, which 404s, making the
	// session and its profile permanently unreachable.
	if (code >= 200 && code < 300) || code == http.StatusNotFound {
		rt.dropOverride(id)
	}
}

// shardReply is one shard's answer to a fan-out.
type shardReply struct {
	down   bool // marked down, so not asked
	status int
	body   []byte
	err    error
}

// fanOut GETs path on every shard not marked down, all at once, and
// returns the replies in shard order.
func (rt *Router) fanOut(ctx context.Context, shards []string, path string) []shardReply {
	out := make([]shardReply, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		if rt.isDown(s) {
			out[i].down = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].status, out[i].body, out[i].err = rt.call(ctx, http.MethodGet, s, path, nil)
		}()
	}
	wg.Wait()
	return out
}

// sessionList decodes a shard's answer to GET /v1/sessions.
func sessionList(status int, body []byte, err error) ([]service.SessionInfo, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", status)
	}
	var infos []service.SessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// handleList fans GET /v1/sessions out to every shard and merges the
// results into one fleet-wide view, sorted by creation time. Down
// shards are skipped (their sessions are unreachable anyway).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	shards := rt.Ring().Shards()
	all := []service.SessionInfo{}
	for i, rep := range rt.fanOut(r.Context(), shards, r.URL.RequestURI()) {
		if rep.down {
			continue
		}
		infos, err := sessionList(rep.status, rep.body, rep.err)
		if err != nil {
			writeError(w, http.StatusBadGateway, "fleet: listing %s: %v", shards[i], err)
			return
		}
		all = append(all, infos...)
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].CreatedAt.Equal(all[j].CreatedAt) {
			return all[i].CreatedAt.Before(all[j].CreatedAt)
		}
		return all[i].ID < all[j].ID
	})
	writeJSON(w, http.StatusOK, all)
}

// ShardStatus is one row of the fleet status document.
type ShardStatus struct {
	URL  string `json:"url"`
	Down bool   `json:"down"`
}

// FleetStatus is the GET /v1/fleet reply.
type FleetStatus struct {
	Shards        []ShardStatus `json:"shards"`
	SessionsMoved int64         `json:"sessions_moved"`
	MovesFailed   int64         `json:"moves_failed"`
}

func (rt *Router) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	st := FleetStatus{
		SessionsMoved: rt.sessionsMoved.Load(),
		MovesFailed:   rt.movesFailed.Load(),
	}
	for _, s := range rt.Ring().Shards() {
		st.Shards = append(st.Shards, ShardStatus{URL: s, Down: rt.isDown(s)})
	}
	writeJSON(w, http.StatusOK, st)
}

// ShardRequest is the body of the membership admin routes.
type ShardRequest struct {
	URL string `json:"url"`
}

// membership serves an admin route that changes the ring: it applies
// change to the requested shard URL and answers the new fleet status.
func (rt *Router) membership(change func(url string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "fleet: bad shard body: %v", err)
			return
		}
		if err := change(req.URL); err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		rt.handleFleetStatus(w, r)
	}
}

// handleMetrics aggregates /v1/metrics across the fleet: counters and
// gauges with the same series identity are summed (sessions active,
// samples ingested, stalls detected — all meaningful fleet-wide), then
// the router appends its own emprofd_fleet_* series, including a
// per-shard liveness gauge and each shard's active-session count.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shards := rt.Ring().Shards()
	replies := rt.fanOut(r.Context(), shards, r.URL.RequestURI())
	bodies := make([]string, len(shards))
	for i, rep := range replies {
		if rep.err == nil && rep.status == http.StatusOK {
			bodies[i] = string(rep.body)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	perShardActive := writeAggregated(w, bodies)

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("emprofd_fleet_shards", "Shards in the ring.", int64(len(shards)))
	var down int64
	for _, rep := range replies {
		if rep.down {
			down++
		}
	}
	gauge("emprofd_fleet_shards_down", "Shards currently marked down.", down)
	counter("emprofd_fleet_sessions_moved_total", "Sessions handed off between shards by rebalancing.", rt.sessionsMoved.Load())
	counter("emprofd_fleet_moves_failed_total", "Session hand-offs that failed and were rolled back.", rt.movesFailed.Load())
	counter("emprofd_fleet_proxied_requests_total", "Per-session requests proxied to shards.", rt.proxiedTotal.Load())
	counter("emprofd_fleet_proxy_errors_total", "Proxied requests that failed to reach their shard.", rt.proxyErrors.Load())
	fmt.Fprintf(w, "# HELP emprofd_fleet_shard_up Shard liveness, by shard.\n# TYPE emprofd_fleet_shard_up gauge\n")
	for i, s := range shards {
		up := 1
		if replies[i].down {
			up = 0
		}
		fmt.Fprintf(w, "emprofd_fleet_shard_up{shard=%q} %d\n", s, up)
	}
	fmt.Fprintf(w, "# HELP emprofd_fleet_shard_sessions_active Open sessions, by shard.\n# TYPE emprofd_fleet_shard_sessions_active gauge\n")
	for i, s := range shards {
		fmt.Fprintf(w, "emprofd_fleet_shard_sessions_active{shard=%q} %d\n", s, perShardActive[i])
	}
}

// writeAggregated merges Prometheus text expositions by summing series
// with identical identity (name + labels), preserving first-seen order
// and each series' first HELP/TYPE comments. It returns every shard's
// emprofd_sessions_active reading for the per-shard gauge.
func writeAggregated(w io.Writer, bodies []string) []int64 {
	type series struct {
		comments []string
		sum      float64
	}
	var order []string
	bySeries := map[string]*series{}
	commentsSeen := map[string]bool{} // metric name -> comments captured
	perShardActive := make([]int64, len(bodies))

	for i, body := range bodies {
		var pending []string
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				pending = append(pending, line)
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 {
				pending = nil
				continue
			}
			key, valStr := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				pending = nil
				continue
			}
			name := key
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			if name == "emprofd_sessions_active" {
				perShardActive[i] = int64(v)
			}
			s := bySeries[key]
			if s == nil {
				s = &series{}
				if !commentsSeen[name] {
					commentsSeen[name] = true
					s.comments = pending
				}
				bySeries[key] = s
				order = append(order, key)
			}
			s.sum += v
			pending = nil
		}
	}
	for _, key := range order {
		s := bySeries[key]
		for _, c := range s.comments {
			fmt.Fprintln(w, c)
		}
		fmt.Fprintf(w, "%s %s\n", key, formatSample(s.sum))
	}
	return perShardActive
}

// formatSample renders an aggregated sample: integral values (the
// common case — counters and gauges are int64 on the shards) print as
// integers so the output stays grep-able; anything else falls back to
// shortest float form.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
