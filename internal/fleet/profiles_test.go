package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"emprof"
	"emprof/internal/core"
	"emprof/internal/fleet"
	"emprof/internal/service"
)

// TestFleetProfilesFanIn proves the router reassembles a window sequence
// a hand-off scattered: sealed windows stay in the exporting shard's
// store while the live tail accrues on the importer, so after a
// scale-out rebalance the session's windows live on two shards and only
// the fan-in serves the complete sequence. Merging the router's answer
// must reproduce the batch profile, and paging through it with the
// limit=/after= cursor must walk the same sequence.
func TestFleetProfilesFanIn(t *testing.T) {
	capture := fleetCapture(t, 11)
	want := analyze(t, capture, emprof.DefaultConfig())
	// ~8 windows across the capture, so both halves seal several.
	windowS := float64(len(capture.Samples)) / capture.SampleRate / 8

	f, err := fleet.StartLocal(1, service.Config{WindowS: windowS}, fleet.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
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
	cut := len(capture.Samples) / 2
	head := &emprof.Capture{Samples: capture.Samples[:cut], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	tail := &emprof.Capture{Samples: capture.Samples[cut:], SampleRate: capture.SampleRate, ClockHz: capture.ClockHz}
	if err := client.StreamCapture(ctx, id, head); err != nil {
		t.Fatal(err)
	}

	// Scale out until the rebalance moves the session off shard 0 — the
	// ID is random, so how many joins that takes varies.
	origin := f.Router.Ring().Owner(id)
	moved := false
	for i := 0; i < 8 && !moved; i++ {
		if _, err := f.AddShard(); err != nil {
			t.Fatalf("add shard: %v", err)
		}
		moved = f.Router.Ring().Owner(id) != origin
	}
	if !moved {
		t.Skip("session never rebalanced off its origin shard (unlucky ring placement)")
	}

	if err := client.StreamCapture(ctx, id, tail); err != nil {
		t.Fatal(err)
	}

	// While the session lives on the new owner, the fan-in reports the
	// owner's state — "active" beats the origin store's "detached" — and
	// echoes the acquisition metadata only the owner knows.
	var live service.ProfilesResponse
	getJSON(t, f.RouterURL+"/v1/sessions/"+id+"/profiles", &live)
	if live.State != "active" {
		t.Fatalf("live fan-in state %q, want active (owner authoritative over detached)", live.State)
	}
	if live.SampleRate != capture.SampleRate || live.ClockHz != capture.ClockHz {
		t.Fatalf("live fan-in metadata %g/%g, want %g/%g", live.SampleRate, live.ClockHz, capture.SampleRate, capture.ClockHz)
	}

	got, err := client.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fleet profile differs from batch analysis")
	}

	var resp service.ProfilesResponse
	getJSON(t, f.RouterURL+"/v1/sessions/"+id+"/profiles", &resp)
	if resp.State != "detached" {
		t.Fatalf("fan-in state %q, want detached after finalize", resp.State)
	}
	if len(resp.Windows) < 2 {
		t.Fatalf("fan-in returned %d windows, want several", len(resp.Windows))
	}
	merged, err := core.MergeWindows(resp.Windows, capture.SampleRate, capture.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatal("fan-in merged windows differ from batch analysis")
	}

	// The sequence really is scattered: every shard alone serves a proper
	// fragment (or none), never the whole.
	scattered := 0
	for _, su := range f.ShardURLs {
		sresp, err := http.Get(su + "/v1/sessions/" + id + "/profiles")
		if err != nil {
			t.Fatal(err)
		}
		var frag service.ProfilesResponse
		if sresp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(sresp.Body).Decode(&frag); err != nil {
				t.Fatal(err)
			}
		}
		sresp.Body.Close()
		if n := len(frag.Windows); n > 0 {
			scattered++
			if n == len(resp.Windows) {
				t.Fatalf("shard %s alone serves all %d windows — nothing was scattered", su, n)
			}
		}
	}
	if scattered < 2 {
		t.Fatalf("windows found on %d shards, want >= 2", scattered)
	}

	// Cursor loop through the router: limit= pages must walk the exact
	// same sequence the unpaged fan-in returned.
	var paged []core.ProfileWindow
	after := int64(-1)
	for {
		url := fmt.Sprintf("%s/v1/sessions/%s/profiles?limit=3", f.RouterURL, id)
		if after >= 0 {
			url = fmt.Sprintf("%s&after=%d", url, after)
		}
		var page service.ProfilesResponse
		getJSON(t, url, &page)
		paged = append(paged, page.Windows...)
		if !page.More {
			break
		}
		after = page.NextAfter
		if len(paged) > len(resp.Windows) {
			t.Fatalf("cursor loop runs past the sequence: %d > %d windows", len(paged), len(resp.Windows))
		}
	}
	if !reflect.DeepEqual(paged, resp.Windows) {
		t.Fatalf("paged fan-in walked %d windows, differs from unpaged %d", len(paged), len(resp.Windows))
	}
}
