package batch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderedResults(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i * 3
	}
	res, err := Run(context.Background(), jobs, 7, func(_ context.Context, i, j int) (int, error) {
		return j * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(res), len(jobs))
	}
	for i, r := range res {
		if r.Index != i || r.Err != nil || r.Value != i*6 {
			t.Fatalf("result %d = %+v, want value %d", i, r, i*6)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	jobs := make([]int, 40)
	_, err := Run(context.Background(), jobs, workers, func(_ context.Context, i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestRunIsolatesErrorsAndPanics(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run(context.Background(), []int{0, 1, 2, 3}, 2, func(_ context.Context, i, _ int) (string, error) {
		switch i {
		case 1:
			return "", boom
		case 2:
			panic("kaboom")
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatalf("run error %v; per-job failures must not fail the sweep", err)
	}
	if res[0].Err != nil || res[0].Value != "ok" || res[3].Err != nil || res[3].Value != "ok" {
		t.Fatalf("healthy jobs affected: %+v / %+v", res[0], res[3])
	}
	if !errors.Is(res[1].Err, boom) {
		t.Fatalf("job 1 error = %v, want %v", res[1].Err, boom)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "kaboom") {
		t.Fatalf("job 2 error = %v, want recovered panic", res[2].Err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var once sync.Once
	jobs := make([]int, 50)
	res, err := Run(ctx, jobs, 2, func(_ context.Context, i, _ int) (int, error) {
		started.Add(1)
		once.Do(cancel)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	if got := started.Load(); got == 50 {
		t.Fatal("cancellation did not stop dispatch")
	}
	skipped := 0
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no job recorded the cancellation error")
	}
	if int(started.Load())+skipped != len(jobs) {
		t.Fatalf("started %d + skipped %d != %d jobs", started.Load(), skipped, len(jobs))
	}
}

func TestRunEmptyAndDegenerate(t *testing.T) {
	res, err := Run(context.Background(), []int(nil), 4, func(_ context.Context, i, _ int) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v, %d results", err, len(res))
	}
	if _, err := Run[int, int](context.Background(), []int{1}, 4, nil); err == nil {
		t.Fatal("nil fn must error")
	}
	// More workers than jobs must not deadlock or duplicate work.
	var n atomic.Int64
	res, err = Run(context.Background(), []int{1, 2}, 16, func(_ context.Context, i, _ int) (int, error) {
		n.Add(1)
		return i, nil
	})
	if err != nil || n.Load() != 2 || res[1].Value != 1 {
		t.Fatalf("tiny run: err=%v ran=%d res=%+v", err, n.Load(), res)
	}
}

func TestMixSeedDeterministicAndSpread(t *testing.T) {
	a := MixSeed(1, 2, 3)
	if a != MixSeed(1, 2, 3) {
		t.Fatal("MixSeed is not deterministic")
	}
	if a == MixSeed(1, 2, 4) || a == MixSeed(3, 2, 1) || a == MixSeed(1, 2) {
		t.Fatal("MixSeed collides on nearby coordinates")
	}
	if MixSeedString("olimex") == MixSeedString("samsung") {
		t.Fatal("MixSeedString collides")
	}
	if MixSeed(MixSeedString("a")) == MixSeed(MixSeedString("b")) {
		t.Fatal("string-derived seeds collide")
	}
}
