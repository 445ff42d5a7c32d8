package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"emprof/internal/service"
)

// LocalFleet is an in-process fleet on loopback listeners: n emprofd
// shards plus one router, each on its own 127.0.0.1 port. It backs the
// emsim -fleet load harness and the e2e tests, and is exactly the
// topology `emprofd -router -shards=...` serves across machines — the
// router speaks to its shards over real HTTP either way.
type LocalFleet struct {
	Router    *Router
	RouterURL string
	ShardURLs []string

	shards   []*service.Server
	servers  []*http.Server
	shardCfg service.Config
}

// StartLocal boots a fleet of n shards behind a router. shardCfg
// configures every shard's registry; routerCfg.Shards is filled in by
// StartLocal (set the rest as needed). The router runs no health probes.
func StartLocal(n int, shardCfg service.Config, routerCfg Config) (*LocalFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: need at least one shard")
	}
	f := &LocalFleet{shardCfg: shardCfg}
	for i := 0; i < n; i++ {
		if _, err := f.startShard(); err != nil {
			f.Close()
			return nil, err
		}
	}
	routerCfg.Shards = f.ShardURLs
	rt, err := NewRouter(routerCfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.Router = rt
	url, err := f.serve(rt.Handler())
	if err != nil {
		f.Close()
		return nil, err
	}
	f.RouterURL = url
	return f, nil
}

// startShard boots one more shard server (without ring membership).
func (f *LocalFleet) startShard() (string, error) {
	srv := service.New(f.shardCfg)
	url, err := f.serve(srv.Handler())
	if err != nil {
		return "", err
	}
	f.shards = append(f.shards, srv)
	f.ShardURLs = append(f.ShardURLs, url)
	return url, nil
}

func (f *LocalFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	f.servers = append(f.servers, hs)
	return "http://" + ln.Addr().String(), nil
}

// AddShard boots one more local shard and joins it to the ring,
// triggering a live rebalance — the forced membership change the load
// harness uses to prove hand-off under traffic.
func (f *LocalFleet) AddShard() (string, error) {
	if f.Router == nil {
		return "", fmt.Errorf("fleet: no router")
	}
	url, err := f.startShard()
	if err != nil {
		return "", err
	}
	return url, f.Router.AddShard(url)
}

// Shards exposes the in-process shard registries (tests reach in to
// count sessions per shard).
func (f *LocalFleet) Shards() []*service.Server { return f.shards }

// Close shuts the fleet down: router first (no new traffic), then every
// shard, finalizing their in-flight sessions.
func (f *LocalFleet) Close() {
	if f.Router != nil {
		// The router's pool can hold a shard connection it dialed but
		// never used; the shard's Shutdown would wait 5 s for it to turn
		// idle.
		f.Router.client.CloseIdleConnections()
	}
	for _, hs := range f.servers {
		// Any other client (a test's emprof.Client) can leave such a
		// connection too, and Shutdown counts it as active for 5 s; past
		// a short drain, Close drops whatever is left.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		hs.Shutdown(ctx)
		cancel()
		hs.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
}
