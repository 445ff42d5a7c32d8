package fleet_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emprof"
	"emprof/internal/fleet"
	"emprof/internal/service"
)

func fleetCapture(t *testing.T, seed uint64) *emprof.Capture {
	t.Helper()
	wl, err := emprof.Microbenchmark(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	run, err := emprof.Simulate(emprof.DeviceOlimex(), wl, emprof.CaptureOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return run.Capture
}

// analyze profiles c with NewAnalyzer(cfg, opts...).Run, failing tb on
// error.
func analyze(tb testing.TB, c *emprof.Capture, cfg emprof.Config, opts ...emprof.Option) *emprof.Profile {
	tb.Helper()
	an, err := emprof.NewAnalyzer(cfg, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	prof, err := an.Run(context.Background(), c)
	if err != nil {
		tb.Fatal(err)
	}
	return prof
}

func startFleet(t *testing.T, n int) *fleet.LocalFleet {
	t.Helper()
	f, err := fleet.StartLocal(n, service.Config{}, fleet.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFleetEndToEndHandoff is the acceptance test for the fleet: a
// capture streamed through the router, with the owning shard removed
// from the ring mid-stream, must finalize on the new owner with a
// profile bit-identical to the batch analysis of the same capture.
func TestFleetEndToEndHandoff(t *testing.T) {
	capture := fleetCapture(t, 4)
	want := analyze(t, capture, emprof.DefaultConfig())

	f := startFleet(t, 2)
	client := emprof.NewClient(f.RouterURL)
	client.ChunkSamples = len(capture.Samples)/6 + 1
	client.RetryBaseDelay = 1
	ctx := context.Background()

	id, err := client.CreateSession(ctx, emprof.SessionSpec{
		SampleRate: capture.SampleRate, ClockHz: capture.ClockHz, Device: "olimex",
	})
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Router.Ring().Owner(id)
	ownerIdx := -1
	for i, u := range f.ShardURLs {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s not a shard", owner)
	}
	if n := f.Shards()[ownerIdx].Registry().ActiveSessions(); n != 1 {
		t.Fatalf("owner shard holds %d sessions, want 1", n)
	}

	cut := len(capture.Samples) / 2
	head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	tail := &emprof.Capture{Samples: capture.Samples[cut:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	if err := client.StreamCapture(ctx, id, head); err != nil {
		t.Fatal(err)
	}

	// Force the hand-off: take the owner out of the ring. The session
	// must stream-move to the surviving shard.
	if err := f.Router.RemoveShard(owner); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n := f.Shards()[ownerIdx].Registry().ActiveSessions(); n != 0 {
		t.Fatalf("removed shard still holds %d sessions", n)
	}
	if n := f.Shards()[1-ownerIdx].Registry().ActiveSessions(); n != 1 {
		t.Fatalf("surviving shard holds %d sessions, want 1", n)
	}

	if err := client.StreamCapture(ctx, id, tail); err != nil {
		t.Fatal(err)
	}
	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet profile differs from batch analysis:\n got: misses=%d stalls=%d\nwant: misses=%d stalls=%d",
			got.Misses, len(got.Stalls), want.Misses, len(want.Stalls))
	}

	// The fleet observed exactly one move.
	var st fleet.FleetStatus
	getJSON(t, f.RouterURL+"/v1/fleet", &st)
	if st.SessionsMoved != 1 || st.MovesFailed != 0 {
		t.Fatalf("fleet status: moved=%d failed=%d, want 1/0", st.SessionsMoved, st.MovesFailed)
	}
	if len(st.Shards) != 1 {
		t.Fatalf("ring still has %d shards, want 1", len(st.Shards))
	}
}

// TestAddShardRefusesUnreachable joins the URL of a closed listener.
// The join must fail and leave the ring as it was, so a session the
// grown ring would have placed there is still created.
func TestAddShardRefusesUnreachable(t *testing.T) {
	f := startFleet(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	before := f.Router.Ring().Shards()
	if err := f.Router.AddShard(dead); err == nil {
		t.Fatal("AddShard of a shard nobody answers at reported success")
	}
	if got := f.Router.Ring().Shards(); !reflect.DeepEqual(got, before) {
		t.Fatalf("ring is %v after the refused join, was %v", got, before)
	}
	next, err := f.Router.Ring().With(dead)
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("u%d", i); next.Owner(c) == dead {
			id = c
		}
	}
	if code, body := postJSON(t, f.RouterURL+"/v1/sessions", service.CreateRequest{ID: id, SampleRate: 40e6, ClockHz: 1e9}); code != http.StatusCreated {
		t.Fatalf("create %s after the refused join: HTTP %d: %s", id, code, body)
	}
}

// TestFleetFailedMoveRollsBack joins a shard whose import answers 500.
// Every move onto it fails after its export pinned the session, so the
// rollback must unpin: AddShard reports the failure, the router counts
// it, and each session it tried to move takes an offset-tagged push
// through the router at once and finalizes bit-identical to the batch
// analysis of its capture.
func TestFleetFailedMoveRollsBack(t *testing.T) {
	capture := fleetCapture(t, 11)
	want := analyze(t, capture, emprof.DefaultConfig())
	f := startFleet(t, 2)

	bad := service.New(service.Config{})
	t.Cleanup(bad.Close)
	badHandler := bad.Handler()
	badSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sessions/import" {
			http.Error(w, "import refused", http.StatusInternalServerError)
			return
		}
		badHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(badSrv.Close)

	// Sessions the grown ring places on the bad shard.
	next, err := f.Router.Ring().With(badSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; len(ids) < 3; i++ {
		if id := fmt.Sprintf("m%d", i); next.Owner(id) == badSrv.URL {
			ids = append(ids, id)
		}
	}
	client := emprof.NewClient(f.RouterURL)
	client.RetryBaseDelay = 1
	ctx := context.Background()
	cut := len(capture.Samples) / 2
	head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	for _, id := range ids {
		if code, body := postJSON(t, f.RouterURL+"/v1/sessions", service.CreateRequest{
			ID: id, SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
		}); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d: %s", id, code, body)
		}
		if err := client.StreamCapture(ctx, id, head); err != nil {
			t.Fatal(err)
		}
	}

	if err := f.Router.AddShard(badSrv.URL); err == nil {
		t.Fatal("AddShard onto a shard that refuses imports reported success")
	}
	resp, err := http.Get(f.RouterURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if v := metricValue(t, buf.String(), "emprofd_fleet_moves_failed_total"); v < 1 {
		t.Fatalf("emprofd_fleet_moves_failed_total = %d, want at least 1", v)
	}

	// One push straight through the router, offset-tagged and without
	// retries: a session left pinned would answer 503.
	step := (len(capture.Samples) - cut) / 2
	chunk := make([]byte, 8*step)
	for i, v := range capture.Samples[cut : cut+step] {
		binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
	}
	rest := &emprof.Capture{Samples: capture.Samples[cut+step:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	for _, id := range ids {
		req, err := http.NewRequest(http.MethodPost, f.RouterURL+service.SessionPath(id, "/samples"), bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", service.ContentTypeRaw)
		req.Header.Set(service.HeaderOffset, strconv.Itoa(cut))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push to %s after the failed move: HTTP %d: %s", id, resp.StatusCode, body)
		}
		if err := client.StreamCapture(ctx, id, rest); err != nil {
			t.Fatal(err)
		}
		got, err := client.Finalize(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("profile of %s differs from batch analysis after the failed move", id)
		}
	}
}

// TestFleetRebalanceUnderLoad streams many sessions concurrently while
// the fleet grows by one shard mid-flight. Zero sessions may be lost,
// zero samples double-ingested: every finalized profile must be
// bit-identical to the batch analysis of its capture.
func TestFleetRebalanceUnderLoad(t *testing.T) {
	capture := fleetCapture(t, 9)
	want := analyze(t, capture, emprof.DefaultConfig())

	f := startFleet(t, 2)
	const sessions = 8
	ctx := context.Background()
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	var once sync.Once
	rebalance := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := emprof.NewClient(f.RouterURL)
			client.ChunkSamples = len(capture.Samples)/10 + 1
			client.RetryBaseDelay = 1
			id, err := client.CreateSession(ctx, emprof.SessionSpec{
				SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
			})
			if err != nil {
				errs[i] = err
				return
			}
			cut := len(capture.Samples) / 2
			head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
			tail := &emprof.Capture{Samples: capture.Samples[cut:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
			if err := client.StreamCapture(ctx, id, head); err != nil {
				errs[i] = fmt.Errorf("head: %w", err)
				return
			}
			// First session to reach midpoint triggers the membership
			// change; everyone else keeps streaming through it.
			once.Do(func() {
				if _, err := f.AddShard(); err != nil {
					errs[i] = fmt.Errorf("add shard: %w", err)
				}
				close(rebalance)
			})
			<-rebalance
			if err := client.StreamCapture(ctx, id, tail); err != nil {
				errs[i] = fmt.Errorf("tail: %w", err)
				return
			}
			got, err := client.Finalize(ctx, id)
			if err != nil {
				errs[i] = fmt.Errorf("finalize: %w", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs[i] = fmt.Errorf("profile diverged after rebalance")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// Nothing lost: all sessions finalized, none left anywhere.
	for i, s := range f.Shards() {
		if n := s.Registry().ActiveSessions(); n != 0 {
			t.Fatalf("shard %d still holds %d sessions", i, n)
		}
	}
	// No sample double-ingested anywhere: the fleet-wide ingest counter
	// equals sessions × samples exactly (hand-off replays nothing; the
	// importing shard's counter only advances for post-import pushes).
	total := int64(0)
	for _, s := range f.Shards() {
		total += s.Registry().Metrics().SamplesIngested.Load()
	}
	if wantTotal := int64(sessions * len(capture.Samples)); total != wantTotal {
		t.Fatalf("fleet ingested %d samples, want exactly %d", total, wantTotal)
	}
}

// TestFleetCreateDuringRebalance hammers session creation while
// membership changes are in flight, then requires every created session
// to be reachable through the router. A create must either complete
// before the rebalance lists its shard (and be moved with the rest) or
// resolve its owner from the post-swap ring — a create that resolved on
// the old ring but landed after the listing would be stranded on a
// shard the ring no longer points at.
func TestFleetCreateDuringRebalance(t *testing.T) {
	f := startFleet(t, 2)
	ctx := context.Background()
	stop := make(chan struct{})
	var mu sync.Mutex
	var ids []string
	var createErr error
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := emprof.NewClient(f.RouterURL)
			client.RetryBaseDelay = 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := client.CreateSession(ctx, emprof.SessionSpec{SampleRate: 40e6, ClockHz: 1e9})
				mu.Lock()
				if err != nil {
					createErr = err
					mu.Unlock()
					return
				}
				ids = append(ids, id)
				mu.Unlock()
			}
		}()
	}
	// Let creates flow, then force two ring swaps underneath them.
	time.Sleep(20 * time.Millisecond)
	url, err := f.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Router.RemoveShard(url); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if createErr != nil {
		t.Fatalf("create during rebalance: %v", createErr)
	}
	if len(ids) == 0 {
		t.Fatal("no sessions created")
	}
	client := emprof.NewClient(f.RouterURL)
	client.RetryBaseDelay = 1
	for _, id := range ids {
		if _, err := client.Profile(ctx, id); err != nil {
			t.Fatalf("session %s unreachable after rebalance: %v", id, err)
		}
	}
}

// TestFleetListAndMetricsAggregation checks the fan-out views: the
// router's session list is the union of the shards' lists, and its
// /metrics sums per-shard counters into fleet-wide series.
func TestFleetListAndMetricsAggregation(t *testing.T) {
	f := startFleet(t, 3)
	client := emprof.NewClient(f.RouterURL)
	ctx := context.Background()

	const n = 12
	ids := make([]string, n)
	for i := range ids {
		id, err := client.CreateSession(ctx, emprof.SessionSpec{SampleRate: 40e6, ClockHz: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := client.PushSamplesAt(ctx, id, 0, make([]float64, 50)); err != nil {
			t.Fatal(err)
		}
	}

	list, err := client.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != n {
		t.Fatalf("router lists %d sessions, want %d", len(list), n)
	}
	perShard := 0
	for _, s := range f.Shards() {
		perShard += s.Registry().ActiveSessions()
	}
	if perShard != n {
		t.Fatalf("shards hold %d sessions, want %d", perShard, n)
	}

	resp, err := http.Get(f.RouterURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	if v := metricValue(t, body, "emprofd_sessions_active"); v != n {
		t.Fatalf("aggregated sessions_active = %d, want %d", v, n)
	}
	if v := metricValue(t, body, "emprofd_samples_ingested_total"); v != n*50 {
		t.Fatalf("aggregated samples_ingested = %d, want %d", v, n*50)
	}
	if v := metricValue(t, body, "emprofd_fleet_shards"); v != 3 {
		t.Fatalf("fleet shards gauge = %d, want 3", v)
	}
	// Per-shard session gauges reconcile with the aggregate.
	re := regexp.MustCompile(`(?m)^emprofd_fleet_shard_sessions_active\{shard="[^"]+"\} (\d+)$`)
	sum := 0
	matches := re.FindAllStringSubmatch(body, -1)
	if len(matches) != 3 {
		t.Fatalf("found %d per-shard session gauges, want 3", len(matches))
	}
	for _, m := range matches {
		v, _ := strconv.Atoi(m[1])
		sum += v
	}
	if sum != n {
		t.Fatalf("per-shard gauges sum to %d, want %d", sum, n)
	}
}

// TestFleetAdminRoutes drives membership over HTTP the way an operator
// would, and checks misuse answers.
func TestFleetAdminRoutes(t *testing.T) {
	f := startFleet(t, 2)
	victim := f.ShardURLs[0]

	// The router serves /v1 only, like its shards.
	for _, path := range []string{"/sessions", "/metrics", "/fleet"} {
		resp, err := http.Get(f.RouterURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	code, body := postJSON(t, f.RouterURL+"/v1/fleet/shards/remove", fleet.ShardRequest{URL: victim})
	if code != http.StatusOK {
		t.Fatalf("remove shard: HTTP %d: %s", code, body)
	}
	var st fleet.FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || st.Shards[0].URL == victim {
		t.Fatalf("ring after remove: %+v", st.Shards)
	}
	// Removing it again is an error, not a crash.
	if code, _ := postJSON(t, f.RouterURL+"/v1/fleet/shards/remove", fleet.ShardRequest{URL: victim}); code == http.StatusOK {
		t.Fatal("double remove accepted")
	}
	// Adding it back rejoins the ring.
	if code, body := postJSON(t, f.RouterURL+"/v1/fleet/shards", fleet.ShardRequest{URL: victim}); code != http.StatusOK {
		t.Fatalf("re-add shard: HTTP %d: %s", code, body)
	}
	getJSON(t, f.RouterURL+"/v1/fleet", &st)
	if len(st.Shards) != 2 {
		t.Fatalf("ring after re-add has %d shards", len(st.Shards))
	}
	// A shard URL without a scheme is refused as NewRouter refuses it,
	// and the ring stays as it was.
	if code, body := postJSON(t, f.RouterURL+"/v1/fleet/shards", fleet.ShardRequest{URL: "10.0.0.9:7979"}); code/100 == 2 {
		t.Fatalf("schemeless shard URL accepted: HTTP %d: %s", code, body)
	}
	getJSON(t, f.RouterURL+"/v1/fleet", &st)
	if len(st.Shards) != 2 || st.Shards[0].URL == "10.0.0.9:7979" || st.Shards[1].URL == "10.0.0.9:7979" {
		t.Fatalf("ring after a refused add: %+v", st.Shards)
	}
}

// TestFleetEscapedSessionID drives a session whose client-assigned ID
// must be escaped in a URL ("a%b": the daemon accepts '%') through
// every router path: create, push, snapshot, a hand-off, the profiles
// fan-in and finalize. The router must forward the path as the client
// escaped it, and the hand-off must escape the ID in its shard calls.
func TestFleetEscapedSessionID(t *testing.T) {
	capture := fleetCapture(t, 5)
	want := analyze(t, capture, emprof.DefaultConfig())
	windowS := float64(len(capture.Samples)) / capture.SampleRate / 8
	f, err := fleet.StartLocal(2, service.Config{WindowS: windowS}, fleet.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	const id = "a%b"
	code, body := postJSON(t, f.RouterURL+"/v1/sessions", service.CreateRequest{
		ID: id, SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
	})
	if code != http.StatusCreated {
		t.Fatalf("create %q: HTTP %d: %s", id, code, body)
	}

	client := emprof.NewClient(f.RouterURL)
	client.ChunkSamples = len(capture.Samples)/6 + 1
	client.RetryBaseDelay = 1
	ctx := context.Background()
	cut := len(capture.Samples) / 2
	head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	tail := &emprof.Capture{Samples: capture.Samples[cut:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	if err := client.StreamCapture(ctx, id, head); err != nil {
		t.Fatalf("push: %v", err)
	}
	if _, err := client.Profile(ctx, id); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := f.Router.RemoveShard(f.Router.Ring().Owner(id)); err != nil {
		t.Fatalf("hand-off: %v", err)
	}
	if err := client.StreamCapture(ctx, id, tail); err != nil {
		t.Fatalf("push after hand-off: %v", err)
	}
	page, err := client.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil {
		t.Fatalf("profiles: %v", err)
	}
	if page.ID != id || len(page.Windows) == 0 {
		t.Fatalf("profiles answered ID %q with %d windows, want %q with some", page.ID, len(page.Windows), id)
	}
	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profile of %q differs from batch analysis: misses %d, want %d", id, got.Misses, want.Misses)
	}
}

// TestShardHealthProbes drives ProbeShards against a shard that can be
// switched to answer 503. Two failed probes leave it up and three
// consecutive ones mark it down; while it is down the
// session list, the metrics and a profiles query answer from the other
// shard; one good probe marks it up again.
func TestShardHealthProbes(t *testing.T) {
	capture := fleetCapture(t, 6)
	cfg := service.Config{WindowS: float64(len(capture.Samples)) / capture.SampleRate / 8}
	good, flaky := service.New(cfg), service.New(cfg)
	t.Cleanup(good.Close)
	t.Cleanup(flaky.Close)
	var failing atomic.Bool
	flakyHandler := flaky.Handler()
	goodSrv := httptest.NewServer(good.Handler())
	t.Cleanup(goodSrv.Close)
	flakySrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		flakyHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(flakySrv.Close)
	rt, err := fleet.NewRouter(fleet.Config{Shards: []string{goodSrv.URL, flakySrv.URL}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	// A session the ring places on the good shard.
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("s%d", i); rt.Ring().Owner(c) == goodSrv.URL {
			id = c
		}
	}
	if code, body := postJSON(t, router.URL+"/v1/sessions", service.CreateRequest{
		ID: id, SampleRate: capture.SampleRate, ClockHz: capture.ClockHz,
	}); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", code, body)
	}
	client := emprof.NewClient(router.URL)
	client.RetryBaseDelay = 1
	ctx := context.Background()
	if err := client.StreamCapture(ctx, id, capture); err != nil {
		t.Fatal(err)
	}

	flakyDown := func() bool {
		t.Helper()
		var st fleet.FleetStatus
		getJSON(t, router.URL+"/v1/fleet", &st)
		for _, s := range st.Shards {
			if s.URL == flakySrv.URL {
				return s.Down
			}
		}
		t.Fatalf("shard %s left the ring", flakySrv.URL)
		return false
	}
	upGauge := func(want int) {
		t.Helper()
		resp, err := http.Get(router.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		line := fmt.Sprintf("emprofd_fleet_shard_up{shard=%q} %d\n", flakySrv.URL, want)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(line)) {
			t.Fatalf("metrics: HTTP %d without %q:\n%s", resp.StatusCode, line, body)
		}
	}

	failing.Store(true)
	for i := 1; i <= 2; i++ {
		rt.ProbeShards()
		if flakyDown() {
			t.Fatalf("%d failed probes marked the shard down, want 3", i)
		}
	}
	rt.ProbeShards()
	if !flakyDown() {
		t.Fatal("three failed probes left the shard up")
	}
	list, err := client.ListSessions(ctx)
	if err != nil || len(list) != 1 || list[0].ID != id {
		t.Fatalf("list with a shard down: %v, %+v; want the good shard's session", err, list)
	}
	upGauge(0)
	page, err := client.Profiles(ctx, id, emprof.ProfilesRequest{})
	if err != nil || len(page.Windows) == 0 {
		t.Fatalf("profiles with a shard down: %v, want the good shard's windows", err)
	}

	failing.Store(false)
	rt.ProbeShards()
	if flakyDown() {
		t.Fatal("a good probe left the shard down")
	}
	upGauge(1)
}

// TestRouterStreamsUnbufferedBodies pushes the bodies the router does
// not buffer for replay: one of unknown length (sent chunked) and one
// over the replay bound. Each must ingest exactly its samples, and the
// shard's status must reach the client, a 404 included.
func TestRouterStreamsUnbufferedBodies(t *testing.T) {
	f := startFleet(t, 2)
	ctx := context.Background()
	id, err := emprof.NewClient(f.RouterURL).CreateSession(ctx, emprof.SessionSpec{SampleRate: 40e6, ClockHz: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	raw := func(n int) []byte {
		out := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(1+0.02*math.Sin(float64(i)*0.003)))
		}
		return out
	}
	push := func(id string, body io.Reader) (int, service.IngestResult) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, f.RouterURL+"/v1/sessions/"+id+"/samples", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", service.ContentTypeRaw)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res service.IngestResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, res
	}
	ingested := func() int64 {
		total := int64(0)
		for _, s := range f.Shards() {
			total += s.Registry().Metrics().SamplesIngested.Load()
		}
		return total
	}

	// Hiding the bytes.Reader hides the length: the body goes chunked.
	const small = 1000
	if code, res := push(id, struct{ io.Reader }{bytes.NewReader(raw(small))}); code != http.StatusOK || res.SamplesIngested != small {
		t.Fatalf("chunked push: HTTP %d, %d samples ingested, want 200 and %d", code, res.SamplesIngested, small)
	}
	const big = 600_000 // 4.8 MB, over the router's 4 MiB replay bound
	if code, res := push(id, bytes.NewReader(raw(big))); code != http.StatusOK || res.SamplesIngested != small+big {
		t.Fatalf("oversized push: HTTP %d, %d samples ingested, want 200 and %d", code, res.SamplesIngested, small+big)
	}
	if got := ingested(); got != small+big {
		t.Fatalf("fleet ingested %d samples, want exactly %d", got, small+big)
	}
	if code, _ := push("no-such-session", struct{ io.Reader }{bytes.NewReader(raw(small))}); code != http.StatusNotFound {
		t.Fatalf("chunked push to an unknown session: HTTP %d, want the shard's 404", code)
	}
	if got := ingested(); got != small+big {
		t.Fatalf("a refused push ingested samples: fleet total %d, want %d", got, small+big)
	}
}

func metricValue(t *testing.T, body, name string) int {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s absent from aggregated exposition", name)
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
