package e2e

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

var loadCases = []e2eCase{
	{
		ID:       "C00001",
		Title:    "Concurrent clients get bit-identical results",
		Priority: 1,
		Smoke:    true,
		Run:      caseConcurrentClients,
	},
	{
		ID:       "C00002",
		Title:    "Full queue answers typed 429 and recovers",
		Priority: 1,
		Smoke:    true,
		Run:      caseQueueSaturation,
	},
	{
		ID:       "C00003",
		Title:    "Sustained fixed-QPS load completes without 5xx",
		Priority: 2,
		Smoke:    false,
		Run:      caseFixedQPSLoad,
	},
}

// C00001: four clients (each its own connection) submit concurrently;
// two share a seed and must agree with each other, and every result
// must be bit-identical to a direct library run with the same options.
func caseConcurrentClients(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "2")
	const iters = 60_000
	seeds := []uint64{5, 5, 6, 7}

	results := make([]api.ResultView, len(seeds))
	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			c, err := client.New(d.url)
			if err != nil {
				errs[i] = err
				return
			}
			st, err := c.Submit(context.Background(), api.JobSpec{Scene: &matrixScene, Options: matrixOptions(iters, seed)})
			if err != nil {
				errs[i] = err
				return
			}
			final, err := c.Wait(context.Background(), st.ID, nil)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := final.ResultView()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = normalize(*res)
		}(i, seed)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("same-seed clients disagree:\n%+v\n%+v", results[0], results[1])
	}
	for i, seed := range seeds {
		if want := directView(t, iters, seed); !reflect.DeepEqual(results[i], want) {
			t.Fatalf("client %d (seed %d) differs from direct Detect\ngot  %+v\nwant %+v", i, seed, results[i], want)
		}
	}
}

// C00002: with one worker and a queue of two, the fourth submission
// must be rejected with a typed queue_full envelope on HTTP 429 — and
// once the queue drains, submissions succeed again.
func caseQueueSaturation(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1", "-queue", "2")
	ctx := context.Background()

	long := matrixOptions(100_000_000, 1)
	var accepted []*api.JobStatus
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		long.Seed = uint64(i + 1)
		accepted = append(accepted, d.submit(t, matrixScene, long))
		if i == 0 {
			// The first job holds the queue's place until the one slot
			// dequeues it.
			d.waitState(t, accepted[0].ID, api.StateRunning)
		}
	}

	long.Seed = 99
	_, err := d.c.Submit(ctx, api.JobSpec{Scene: &matrixScene, Options: long})
	var env *api.ErrorEnvelope
	if !errors.As(err, &env) {
		t.Fatalf("saturated submit returned %v, want a typed envelope", err)
	}
	if env.Status != http.StatusTooManyRequests || env.Code != api.CodeQueueFull {
		t.Fatalf("saturated submit envelope %+v, want 429/%s", env, api.CodeQueueFull)
	}

	// Backpressure must be transient: cancel the backlog and submit a
	// real job through the recovered queue.
	for _, st := range accepted {
		if _, err := d.c.Cancel(ctx, st.ID); err != nil {
			t.Fatalf("cancel %s: %v", st.ID, err)
		}
	}
	for _, st := range accepted {
		d.waitDone(t, st.ID, 60*time.Second)
	}
	const iters = 30_000
	st := d.submit(t, matrixScene, matrixOptions(iters, 2))
	got := doneResult(t, d.waitDone(t, st.ID, 120*time.Second))
	if want := directView(t, iters, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("post-saturation job result differs from direct Detect")
	}
}

// C00003: a fixed-QPS submission train against a small queue. The
// contract under load: every response is either an accepted job or a
// typed 429 — never a 5xx, never a dropped connection — and every
// accepted job completes.
func caseFixedQPSLoad(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "2", "-queue", "8")
	ctx := context.Background()

	tiny := api.SceneSpec{W: 48, H: 48, Count: 2, MeanRadius: 5, Noise: 0.05, Seed: 4}
	const (
		qps      = 40
		duration = 3 * time.Second
	)
	tick := time.NewTicker(time.Second / qps)
	defer tick.Stop()
	stop := time.After(duration)

	var accepted []string
	var rejected int
	for running := true; running; {
		select {
		case <-stop:
			running = false
		case <-tick.C:
			st, err := d.c.Submit(ctx, api.JobSpec{
				Scene:   &tiny,
				Options: api.OptionsSpec{Strategy: "sequential", MeanRadius: 5, Iterations: 8000, Seed: uint64(len(accepted) + 1)},
			})
			if err != nil {
				var env *api.ErrorEnvelope
				if !errors.As(err, &env) {
					t.Fatalf("submit failed without a typed envelope: %v", err)
				}
				if env.Status != http.StatusTooManyRequests {
					t.Fatalf("unexpected submit error under load: %+v", env)
				}
				rejected++
				continue
			}
			accepted = append(accepted, st.ID)
		}
	}
	t.Logf("load: %d accepted, %d rejected (429)", len(accepted), rejected)
	if len(accepted) == 0 {
		t.Fatal("queue accepted nothing at all")
	}
	for _, id := range accepted {
		st := d.waitDone(t, id, 180*time.Second)
		if st.State != api.StateDone {
			t.Fatalf("job %s under load finished %q (error %q)", id, st.State, st.Error)
		}
	}
	if h, err := d.c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("daemon unhealthy after load: %+v, %v", h, err)
	}
}
