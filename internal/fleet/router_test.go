package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"sync"
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
		if err := client.PushSamples(ctx, id, make([]float64, 50)); err != nil {
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

	resp, err := http.Get(f.RouterURL + "/metrics")
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
