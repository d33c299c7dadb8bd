package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/pkg/api"
	"repro/pkg/service"
	"repro/pkg/service/coordinator"
)

// newTestCluster starts a coordinator over a temp spool plus n workers
// running against it, and returns the coordinator's base URL.
func newTestCluster(t *testing.T, n int) string {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Service: service.Config{SpoolDir: t.TempDir(), Logf: t.Logf},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		registered := make(chan api.WorkerIdentity, 1)
		w, err := New(Config{
			Coordinator: srv.URL,
			SpoolDir:    c.Manager().SpoolDir(),
			Name:        "test-worker",
			Logf:        t.Logf,
			OnRegister:  func(id api.WorkerIdentity) { registered <- id },
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
		select {
		case <-registered:
		case <-time.After(10 * time.Second):
			t.Fatal("worker never registered")
		}
	}
	return srv.URL
}

func submitJob(t *testing.T, url string, spec api.JobSpec) api.JobStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var view api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitDone(t *testing.T, url, id string) api.JobStatus {
	t.Helper()
	return waitFor(t, url, id, api.JobState.Terminal)
}

// waitFor polls job id until its state satisfies ok.
func waitFor(t *testing.T, url, id string, ok func(api.JobState) bool) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ok(view.State) {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the awaited state", id)
	return api.JobStatus{}
}

// normalized decodes a terminal job's result and zeroes its wall-clock
// fields — the only legitimately run-dependent parts.
func normalized(t *testing.T, view api.JobStatus) api.ResultView {
	t.Helper()
	if view.State != api.StateDone {
		t.Fatalf("job %s state %q (error %q)", view.ID, view.State, view.Error)
	}
	var res api.ResultView
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatal(err)
	}
	res.ElapsedSeconds = 0
	for i := range res.Regions {
		res.Regions[i].Seconds = 0
	}
	return res
}

var testSpec = api.JobSpec{
	Scene: &api.SceneSpec{W: 96, H: 96, Count: 5, MeanRadius: 7, Noise: 0.05, Seed: 3},
	Options: api.OptionsSpec{
		Strategy: "sequential", MeanRadius: 7, Iterations: 40000, Seed: 7,
	},
}

// TestWorkerRunsJobBitIdentically is the worker's end-to-end check: a
// job submitted to a coordinator and executed by a worker.Run process
// lands with a result byte-identical to the same job run standalone.
func TestWorkerRunsJobBitIdentically(t *testing.T) {
	// Standalone reference: the unchanged in-process path.
	m, err := service.NewManager(service.Config{SpoolDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(m.Handler())
	t.Cleanup(ref.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Stop(ctx)
	})
	want := waitDone(t, ref.URL, submitJob(t, ref.URL, testSpec).ID)
	if want.State != api.StateDone {
		t.Fatalf("reference job: state %q (error %q)", want.State, want.Error)
	}

	url := newTestCluster(t, 1)
	got := waitDone(t, url, submitJob(t, url, testSpec).ID)
	if got.State != api.StateDone {
		t.Fatalf("cluster job: state %q (error %q)", got.State, got.Error)
	}
	if got.Worker == "" {
		t.Errorf("cluster job has no worker attribution")
	}
	if g, w := normalized(t, got), normalized(t, want); !reflect.DeepEqual(g, w) {
		t.Errorf("cluster result differs from standalone:\n got %+v\nwant %+v", g, w)
	}

	// The registry reflects the run.
	resp, err := http.Get(url + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nodes []api.NodeView
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 {
		t.Fatalf("nodes: got %d, want 1", len(nodes))
	}
	n := nodes[0]
	if n.State != api.NodeAlive || n.Name != "test-worker" || n.JobsCompleted != 1 || len(n.Leases) != 0 {
		t.Errorf("node view %+v: want alive test-worker with 1 completed, 0 leases", n)
	}
}

// TestWorkerSpreadsAcrossSlots checks two jobs land on a two-worker
// cluster and both complete.
func TestWorkerSpreadsAcrossSlots(t *testing.T) {
	url := newTestCluster(t, 2)
	a := submitJob(t, url, testSpec)
	b := submitJob(t, url, testSpec)
	va := waitDone(t, url, a.ID)
	vb := waitDone(t, url, b.ID)
	if va.State != api.StateDone || vb.State != api.StateDone {
		t.Fatalf("states %q/%q, want done/done", va.State, vb.State)
	}
	if ra, rb := normalized(t, va), normalized(t, vb); !reflect.DeepEqual(ra, rb) {
		t.Errorf("same-seed jobs diverged across workers:\n a %+v\n b %+v", ra, rb)
	}
}

// TestWorkerCancelMidRun checks a DELETE while the worker is running
// the job lands as a cancelled terminal state, via the progress-ack
// cancel path.
func TestWorkerCancelMidRun(t *testing.T) {
	url := newTestCluster(t, 1)
	spec := testSpec
	spec.Options.Iterations = 4_000_000 // long enough to catch mid-run
	view := submitJob(t, url, spec)

	// Wait for it to start running, then cancel.
	waitFor(t, url, view.ID, isRunning)
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitDone(t, url, view.ID)
	if final.State != api.StateCancelled {
		t.Fatalf("state %q (error %q), want cancelled", final.State, final.Error)
	}
}

func isRunning(s api.JobState) bool { return s == api.StateRunning }

// A worker's shutdown drains its run: the chunk boundary where it
// stopped lands in the spool as a checkpoint, although no periodic
// checkpoint is due, so the re-leased job loses no work.
func TestWorkerShutdownDrainsCheckpoint(t *testing.T) {
	spool := t.TempDir()
	c, err := coordinator.New(coordinator.Config{
		Service: service.Config{SpoolDir: spool, CheckpointEvery: 1 << 30, Logf: t.Logf},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	registered := make(chan api.WorkerIdentity, 1)
	w, err := New(Config{
		Coordinator: srv.URL, SpoolDir: spool, Logf: t.Logf,
		OnRegister: func(id api.WorkerIdentity) { registered <- id },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopped := make(chan struct{})
	go func() {
		w.Run(ctx)
		close(stopped)
	}()
	select {
	case <-registered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never registered")
	}

	spec := testSpec
	spec.Options.Iterations = 100_000_000
	view := submitJob(t, srv.URL, spec)
	waitFor(t, srv.URL, view.ID, isRunning)
	cancel()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not stop")
	}
	if _, err := os.Stat(filepath.Join(spool, view.ID, api.SpoolCheckpointFile)); err != nil {
		t.Fatalf("worker shutdown left no checkpoint: %v", err)
	}
}
