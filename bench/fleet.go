package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"emprof"
	"emprof/internal/core"
	"emprof/internal/fleet"
	"emprof/internal/profstore"
	"emprof/internal/service"
)

// windowS is the rolling-window width of the continuous-profiling
// workloads: 0.5 ms of stream, about 20,000 samples.
const windowS = 0.0005

// localFleet is the in-process deployment the service workloads drive: a
// router and two shards, each behind its own loopback HTTP server. Untraced
// it runs production defaults; traced, each handler and the router's
// relay client are wrapped in spans.
type localFleet struct {
	url     string
	shards  []*service.Server
	stores  []*profstore.Store
	servers []*http.Server
	wg      sync.WaitGroup
}

// startFleet boots the fleet. windowS > 0 turns on continuous profiling
// with one on-disk window store per shard under storeDir.
func startFleet(tr *tracer, winS float64, storeDir string, seed uint64) (*localFleet, error) {
	f := &localFleet{}
	var shardURLs []string
	for i := 0; i < 2; i++ {
		cfg := service.Config{WindowS: winS}
		if winS > 0 {
			st, err := profstore.Open(profstore.Options{Dir: filepath.Join(storeDir, fmt.Sprintf("shard%d", i))})
			if err != nil {
				f.close()
				return nil, err
			}
			f.stores = append(f.stores, st)
			cfg.Store = st
		}
		srv := service.New(cfg)
		f.shards = append(f.shards, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tracedHandler(tr, "service.handler", h)
		}
		url, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		shardURLs = append(shardURLs, url)
	}
	rcfg := fleet.Config{Shards: shardURLs, Seed: seed}
	if tr != nil {
		rcfg.HTTPClient = &http.Client{Transport: &tracedTransport{t: tr, name: "http.relay", base: bigBufferTransport(0)}}
	}
	rt, err := fleet.NewRouter(rcfg)
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tracedHandler(tr, "fleet.router", h)
	}
	if f.url, err = f.serve(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// bigBufferTransport mirrors the transports the client and router use by
// default: 256 KiB socket buffers, so a whole push moves per syscall.
// maxConns > 0 caps connections per host.
func bigBufferTransport(maxConns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConns:        100,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     256 << 10,
		ReadBufferSize:      256 << 10,
	}
}

func (f *localFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// windowsDropped counts the sealed windows the shards' stores failed to
// persist.
func (f *localFleet) windowsDropped() int64 {
	var n int64
	for _, s := range f.shards {
		n += s.Registry().Metrics().WindowsDropped.Load()
	}
	return n
}

// close stops every server and waits for them, then closes the shards and
// their stores.
func (f *localFleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		hs.Shutdown(ctx)
	}
	f.wg.Wait()
	for _, s := range f.shards {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}

// caller is one load-generating worker: its own emprof.Client over its own
// transport, holding at most one connection. Traced, every call is a root
// span and the transport records each round trip.
type caller struct {
	c  *emprof.Client
	t  *http.Transport
	tr *tracer
}

func newCaller(f *localFleet, tr *tracer) *caller {
	t := bigBufferTransport(1)
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracedTransport{t: tr, name: "http.client", base: t}
	}
	return &caller{c: emprof.NewClient(f.url, emprof.WithHTTPClient(&http.Client{Transport: rt})), t: t, tr: tr}
}

func (c *caller) close() { c.t.CloseIdleConnections() }

// do times one client call of the given kind, as a root span when traced.
func (c *caller) do(kind string, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	if c.tr == nil {
		err := fn(ctx)
		return time.Since(t0), err
	}
	s := c.tr.start("client."+kind, 0, 0)
	err := fn(withSpan(ctx, s))
	c.tr.finish(s)
	return time.Since(t0), err
}

func (c *caller) create(cp *emprof.Capture) (string, time.Duration, error) {
	var id string
	d, err := c.do("create", func(ctx context.Context) (err error) {
		id, err = c.c.CreateSession(ctx, emprof.SessionSpec{SampleRate: cp.SampleRate, ClockHz: cp.ClockHz, Device: "bench"})
		return err
	})
	return id, d, err
}

func (c *caller) push(id string, off int64, xs []float64) (time.Duration, error) {
	return c.do("push", func(ctx context.Context) error {
		res, err := c.c.PushSamplesAt(ctx, id, off, xs)
		if err == nil && res.SamplesIngested != off+int64(len(xs)) {
			err = fmt.Errorf("push at %d: session reports %d samples ingested, want %d", off, res.SamplesIngested, off+int64(len(xs)))
		}
		return err
	})
}

func (c *caller) snapshot(id string, pushed int64) (time.Duration, error) {
	return c.do("snapshot", func(ctx context.Context) error {
		snap, err := c.c.Profile(ctx, id)
		if err == nil && (snap.SamplesIngested != pushed || snap.Profile == nil) {
			err = fmt.Errorf("snapshot reports %d samples ingested, want %d", snap.SamplesIngested, pushed)
		}
		return err
	})
}

func (c *caller) finalize(id string) (*emprof.Profile, time.Duration, error) {
	var prof *emprof.Profile
	d, err := c.do("finalize", func(ctx context.Context) (err error) {
		prof, err = c.c.Finalize(ctx, id)
		return err
	})
	return prof, d, err
}

func (c *caller) profiles(id string, req emprof.ProfilesRequest) (*emprof.ProfilesResponse, time.Duration, error) {
	var resp *emprof.ProfilesResponse
	d, err := c.do("profiles", func(ctx context.Context) (err error) {
		resp, err = c.c.Profiles(ctx, id, req)
		return err
	})
	return resp, d, err
}

// timeline walks a session's whole window sequence with cursor paging;
// merged, it must equal the session's Finalize profile.
func (c *caller) timeline(id string) ([]emprof.ProfileWindow, error) {
	var all []emprof.ProfileWindow
	req := emprof.ProfilesRequest{Limit: 128}
	for {
		resp, _, err := c.profiles(id, req)
		if err != nil {
			return nil, err
		}
		all = append(all, resp.Windows...)
		if !resp.More {
			return all, nil
		}
		req.After, req.HasAfter = resp.NextAfter, true
	}
}

// referenceWindows slices a stream into the windows a session seals, by
// running the streaming analyzer and a windower over it alone. Window
// quality is the cumulative record at seal time, which depends on where
// ingest blocks fell, so only the final window carries it (as MergeWindows
// needs); compare windows with sameWindows.
func referenceWindows(c *emprof.Capture, block int) ([]core.ProfileWindow, error) {
	w, err := core.NewWindower(windowS, 0, c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, err
	}
	st, marks, final, err := streamStalls(c, block)
	if err != nil {
		return nil, err
	}
	return windowReplay(w, st, marks, final, len(c.Samples)), nil
}

// frontierMark records, after one pushed block, how many stalls the
// analyzer had emitted and its decision frontier.
type frontierMark struct {
	stalls   int
	frontier int64
}

// streamStalls pushes a capture through the streaming analyzer in blocks,
// recording the stalls it emits and the frontier after each block.
func streamStalls(c *emprof.Capture, block int) ([]core.Stall, []frontierMark, *core.Profile, error) {
	an, err := core.NewStreamAnalyzer(emprof.DefaultConfig(), c.SampleRate, c.ClockHz)
	if err != nil {
		return nil, nil, nil, err
	}
	var stalls []core.Stall
	an.OnStall = func(st core.Stall) { stalls = append(stalls, st) }
	var marks []frontierMark
	for off := 0; off < len(c.Samples); off += block {
		an.PushBlock(c.Samples[off:min(off+block, len(c.Samples))])
		marks = append(marks, frontierMark{len(stalls), an.Frontier()})
	}
	final := an.Finalize()
	return stalls, marks, final, nil
}

// windowReplay drives a windower exactly as a session does: observe the
// stalls each block emitted, advance to the block's frontier, and flush at
// the end of the stream.
func windowReplay(w *core.Windower, stalls []core.Stall, marks []frontierMark, final *core.Profile, total int) []core.ProfileWindow {
	var wins []core.ProfileWindow
	w.OnWindow = func(pw *core.ProfileWindow) { wins = append(wins, *pw) }
	j := 0
	for _, m := range marks {
		for ; j < m.stalls; j++ {
			w.Observe(stalls[j])
		}
		w.Advance(m.frontier)
	}
	for ; j < len(stalls); j++ {
		w.Observe(stalls[j])
	}
	w.Flush(int64(total))
	wins[len(wins)-1].Quality = final.Quality
	return wins
}

// sameWindows compares windows by everything but their cumulative quality
// record (see referenceWindows).
func sameWindows(got, want []core.ProfileWindow) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		a, b := got[i], want[i]
		a.Quality, b.Quality = core.Quality{}, core.Quality{}
		if len(a.Stalls) == 0 && len(b.Stalls) == 0 {
			a.Stalls, b.Stalls = nil, nil
		}
		if !reflect.DeepEqual(a, b) {
			return false
		}
	}
	return true
}

// matchWindows reports whether a run of consecutive windows a query
// returned equals the reference windows at the same indexes.
func matchWindows(got, ref []core.ProfileWindow) bool {
	if len(got) == 0 {
		return true
	}
	lo := got[0].Index
	return lo >= 0 && int(lo)+len(got) <= len(ref) && sameWindows(got, ref[lo:int(lo)+len(got)])
}

// errString renders an error for a failure message.
func errString(err error) string {
	var ae *emprof.APIError
	if errors.As(err, &ae) {
		return fmt.Sprintf("HTTP %d: %s", ae.StatusCode, ae.Message)
	}
	return err.Error()
}
