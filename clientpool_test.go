package emprof_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"emprof"
)

func wireBytes(samples []float64) []byte {
	out := make([]byte, len(samples)*8)
	for i, v := range samples {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// TestClientPooledBodySurvivesRetries pins the retry-safety of the
// client's pooled encode buffers: a push that is 503-rejected twice
// before landing must deliver the exact encoded bytes on the final
// attempt — the pooled buffer may not be recycled (and overwritten by a
// later push) while a retried bytes.Reader can still reference it.
func TestClientPooledBodySurvivesRetries(t *testing.T) {
	var attempts atomic.Int64
	var mu sync.Mutex
	var landed [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		if n%3 != 0 { // two rejections, then accept
			// Reject WITHOUT reading the body: the transport's write loop
			// may still be streaming it when the client sees the response,
			// which is exactly the window recycling must respect.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"backpressure"}`)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
		}
		mu.Lock()
		landed = append(landed, body)
		mu.Unlock()
		fmt.Fprint(w, `{"samples_ingested":0,"bytes_ingested":0}`)
	}))
	defer ts.Close()

	client := emprof.NewClient(ts.URL)
	client.MaxRetries = 5
	client.RetryBaseDelay = 1
	client.RetryRand = func() float64 { return 0 }

	const pushes = 20
	for k := 0; k < pushes; k++ {
		samples := make([]float64, 512)
		for i := range samples {
			samples[i] = float64(k*1000 + i)
		}
		if _, err := client.PushSamplesAt(context.Background(), "s", int64(k*len(samples)), samples); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
		want := wireBytes(samples)
		mu.Lock()
		got := landed[len(landed)-1]
		mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("push %d: body corrupted across retries", k)
		}
	}
}

// TestClientPooledBodyConcurrentPushes hammers the pooled encode path
// from many goroutines against a randomly-rejecting server, with the
// server verifying every landed body against the pattern its session ID
// encodes. Run under -race this catches a buffer recycled while another
// push (or a lingering transport write) still reads it.
func TestClientPooledBodyConcurrentPushes(t *testing.T) {
	var attempts sync.Map // session path -> *atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		na, _ := attempts.LoadOrStore(r.URL.Path, new(atomic.Int64))
		// Per session: two rejections, then accept — every push retries,
		// but none can exhaust its retry budget.
		if na.(*atomic.Int64).Add(1)%3 != 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"backpressure"}`)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading body: %v", err)
			return
		}
		// The path is /v1/sessions/{id}/samples; id encodes the pattern.
		var id int
		if _, err := fmt.Sscanf(r.URL.Path, "/v1/sessions/g%d/samples", &id); err != nil {
			t.Errorf("bad path %q", r.URL.Path)
			return
		}
		for i := 0; i+8 <= len(body); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))
			if want := float64(id*100000 + i/8); v != want {
				t.Errorf("session g%d sample %d: got %v want %v (cross-push buffer reuse)", id, i/8, v, want)
				return
			}
		}
		fmt.Fprint(w, `{"samples_ingested":0,"bytes_ingested":0}`)
	}))
	defer ts.Close()

	const goroutines, pushesEach = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := emprof.NewClient(ts.URL)
			client.MaxRetries = 8
			client.RetryBaseDelay = 1
			client.RetryRand = func() float64 { return 0 }
			samples := make([]float64, 256)
			for i := range samples {
				samples[i] = float64(g*100000 + i)
			}
			for k := 0; k < pushesEach; k++ {
				if _, err := client.PushSamplesAt(context.Background(), fmt.Sprintf("g%d", g), int64(k*len(samples)), samples); err != nil {
					t.Errorf("goroutine %d push %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
