// Command emprofd is the concurrent profiling service: it manages many
// live profiling sessions, each wrapping a streaming EMPROF analyzer,
// ingesting EM capture bytes over HTTP and serving live profile
// snapshots — the deployment the paper implies, where a probe streams
// samples off the target continuously and results are available online
// rather than post-hoc from capture files. Examples:
//
//	emprofd -addr :7979
//	emprofd -addr :7979 -max-sessions 256 -max-session-bytes 4e9 -idle-ttl 2m
//	emsim -device olimex -workload micro:1024:10 -serve-url http://localhost:7979
//	curl -s localhost:7979/v1/sessions
//	curl -s localhost:7979/v1/metrics
//
// With -router it serves as the stateless front of a fleet of emprofd
// shards instead: sessions are mapped onto shards by a consistent hash
// ring, per-session routes proxy to the owner, the session list and
// /v1/metrics aggregate fleet-wide, and membership changes via the
// /v1/fleet/shards admin routes hand live sessions off between shards
// without replay or double ingest:
//
//	emprofd -addr :8080 -router -shards http://localhost:7979,http://localhost:7980
//	curl -s localhost:8080/v1/fleet
//	curl -s -XPOST localhost:8080/v1/fleet/shards -d '{"url":"http://localhost:7981"}'
//
// API (JSON unless noted; every route is under /v1, the only HTTP
// surface):
//
//	POST   /v1/sessions               open a session {sample_rate, clock_hz, device?, config?}
//	POST   /v1/sessions/{id}/samples  stream raw float64 LE sample bytes (X-Emprof-Offset: first sample's index makes retries idempotent; EMPROFCAP files answer 415)
//	GET    /v1/sessions/{id}/profile  live causal snapshot (stalls so far, quality, confidence histogram)
//	GET    /v1/sessions/{id}/profiles rolling profile windows (with -window): ?from=&to= stream seconds, ?limit=&after=&last= paging
//	GET    /v1/sessions/{id}/trace    recent analyzer decision events (ring of -trace-ring records)
//	DELETE /v1/sessions/{id}          finalize; returns the full profile
//	GET    /v1/sessions               list live sessions
//	GET    /v1/metrics                Prometheus text format (includes the emprofd_trace_* decision aggregates)
//	GET    /debug/pprof/              daemon self-profiling
//
// Continuous profiling: -window W slices every session's stall stream
// into tumbling profile windows of W seconds, persisted in a window
// store and served with time-range queries at
// /v1/sessions/{id}/profiles. With -store-dir the store is on disk —
// append-only segments, crash-safe reopen — so profile history survives
// daemon restarts; -store-max-bytes and -store-max-age bound retention.
// `emprof top -url ...` renders the fleet's live sessions and window
// tails from this endpoint:
//
//	emprofd -addr :7979 -window 0.5 -store-dir /var/lib/emprofd
//	curl -s 'localhost:7979/v1/sessions/ID/profiles?from=1.5&to=3.0'
//	emprof top -url http://localhost:7979
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"emprof/internal/fleet"
	"emprof/internal/profstore"
	"emprof/internal/service"
	"emprof/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", ":7979", "listen address")
		maxSessions = flag.Int("max-sessions", service.DefaultMaxSessions, "maximum concurrently-open sessions (excess creates get 429)")
		maxBytes    = flag.Float64("max-session-bytes", service.DefaultMaxSessionBytes, "per-session ingest byte budget (excess uploads get 429)")
		idleTTL     = flag.Duration("idle-ttl", service.DefaultIdleTTL, "idle time after which a session is finalized and collected")
		readTimeout = flag.Duration("read-timeout", service.DefaultReadTimeout, "per-request body read deadline")
		traceRing   = flag.Int("trace-ring", service.DefaultTraceRing, "per-session decision-trace ring capacity served at /v1/sessions/{id}/trace (negative disables tracing)")
		showVersion = flag.Bool("version", false, "print version and exit")

		windowS       = flag.Float64("window", 0, "continuous profiling: rolling profile window width in stream seconds (0 disables windowing)")
		storeDir      = flag.String("store-dir", "", "window store directory; empty keeps windows in memory only (lost on restart)")
		storeMaxBytes = flag.Float64("store-max-bytes", 0, "window store retention cap in bytes; oldest segments evict past it (0 = default 256 MiB, negative = unbounded)")
		storeMaxAge   = flag.Duration("store-max-age", 0, "window store age cap; segments older than this evict (0 = no age eviction)")

		router   = flag.Bool("router", false, "run as a fleet router in front of -shards instead of serving sessions directly")
		shards   = flag.String("shards", "", "with -router: comma-separated shard base URLs, e.g. http://10.0.0.1:7979,http://10.0.0.2:7979")
		ringSeed = flag.Uint64("ring-seed", 0, "with -router: consistent-hash ring seed (every router replica in front of one fleet must agree)")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("emprofd %s\n", version.Version)
		return
	}
	if *router {
		runRouter(*addr, *shards, *ringSeed)
		return
	}

	var store *profstore.Store
	if *storeDir != "" || *storeMaxBytes != 0 || *storeMaxAge != 0 {
		var err error
		store, err = profstore.Open(profstore.Options{
			Dir:      *storeDir,
			MaxBytes: int64(*storeMaxBytes),
			MaxAge:   *storeMaxAge,
		})
		if err != nil {
			fatal(err)
		}
	}
	srv := service.New(service.Config{
		MaxSessions:     *maxSessions,
		MaxSessionBytes: int64(*maxBytes),
		IdleTTL:         *idleTTL,
		ReadTimeout:     *readTimeout,
		TraceRing:       *traceRing,
		WindowS:         *windowS,
		Store:           store,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "emprofd: "+format+"\n", args...)
		},
	})
	stopGC := srv.StartGC()
	defer stopGC()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("emprofd %s listening on %s (max %d sessions, %s idle TTL)\n",
		version.Version, *addr, *maxSessions, *idleTTL)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain handlers, then finalize
	// every in-flight session so no stream is abandoned mid-pipeline.
	fmt.Println("emprofd: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "emprofd: shutdown:", err)
	}
	srv.Close()
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "emprofd: window store:", err)
		}
	}
}

// runRouter serves the fleet front: session routing over a consistent
// hash ring, fleet-wide list/metrics aggregation, health-checked shard
// membership with live hand-off on /v1/fleet/shards changes.
func runRouter(addr, shardList string, seed uint64) {
	var urls []string
	for _, s := range strings.Split(shardList, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, s)
		}
	}
	rt, err := fleet.NewRouter(fleet.Config{Shards: urls, Seed: seed})
	if err != nil {
		fatal(err)
	}
	stop := rt.Start()
	defer stop()

	hs := &http.Server{
		Addr:              addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("emprofd %s routing on %s for %d shards\n", version.Version, addr, len(urls))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("emprofd: router shutting down")
	shctx, shcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shcancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "emprofd: shutdown:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "emprofd:", err)
	os.Exit(1)
}
