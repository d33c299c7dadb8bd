package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/imaging"
	"repro/pkg/api"
	"repro/pkg/client"
	"repro/pkg/parmcmc"
)

// testScene is the shared small synthetic workload: fast enough for
// -race, big enough to exercise the chain.
var testScene = api.SceneSpec{W: 96, H: 96, Count: 5, MeanRadius: 7, Noise: 0.05, Seed: 3}

func testOptions(seed uint64, iters int) api.OptionsSpec {
	return api.OptionsSpec{Strategy: "sequential", MeanRadius: 7, Iterations: iters, Seed: seed}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return m
}

func submitJSON(t *testing.T, url string, req api.JobSpec) api.JobStatus {
	t.Helper()
	view, status := trySubmitJSON(t, url, req)
	if status != http.StatusCreated {
		t.Fatalf("submit: status %d", status)
	}
	return view
}

func trySubmitJSON(t *testing.T, url string, req api.JobSpec) (api.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view api.JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func getJob(t *testing.T, url, id string) api.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var view api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitDone(t *testing.T, url, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, url, id)
		if view.State.Terminal() {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobStatus{}
}

// normalizeResult zeroes the wall-clock fields, which are the only
// legitimately run-dependent parts of a api.ResultView.
func normalizeResult(v api.ResultView) api.ResultView {
	v.ElapsedSeconds = 0
	for i := range v.Regions {
		v.Regions[i].Seconds = 0
	}
	return v
}

// expectedView runs the same detection directly through parmcmc and
// returns its normalized wire form.
func expectedView(t *testing.T, scene api.SceneSpec, spec api.OptionsSpec) api.ResultView {
	t.Helper()
	opt, aerr := optionsFromSpec(&spec)
	if aerr != nil {
		t.Fatal(aerr)
	}
	ps, err := scene.ToParmcmc()
	if err != nil {
		t.Fatal(err)
	}
	pix, _ := parmcmc.GenerateScene(ps)
	res, err := parmcmc.Detect(pix, scene.W, scene.H, opt)
	if err != nil {
		t.Fatal(err)
	}
	return normalizeResult(api.NewResultView(res))
}

func decodeResult(t *testing.T, view api.JobStatus) api.ResultView {
	t.Helper()
	if view.State != api.StateDone {
		t.Fatalf("job %s state %q (error %q)", view.ID, view.State, view.Error)
	}
	var res api.ResultView
	if err := json.Unmarshal(view.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// The acceptance-criteria test: N parallel clients, some sharing
// seeds, all get results bit-identical to serial parmcmc.Detect calls
// with the same options.
func TestConcurrentClientsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 4, QueueSize: 32})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Two clients share seed 7 (must agree with each other AND the
	// serial run); the rest have distinct seeds and one uses the
	// periodic strategy to cover a partitioned sampler over HTTP.
	specs := []api.OptionsSpec{
		testOptions(7, 30000),
		testOptions(7, 30000),
		testOptions(11, 30000),
		testOptions(13, 30000),
		{Strategy: "periodic", MeanRadius: 7, Iterations: 20000, Seed: 5, PartitionGrid: 2},
		testOptions(17, 30000),
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view, status := trySubmitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: specs[i]})
			if status != http.StatusCreated {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		got := normalizeResult(decodeResult(t, waitDone(t, srv.URL, id)))
		want := expectedView(t, testScene, specs[i])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("client %d (seed %d): daemon result differs from serial Detect\ngot  %+v\nwant %+v",
				i, specs[i].Seed, got, want)
		}
	}
}

// Submissions beyond queue capacity must get clean 429s while earlier
// jobs are unaffected.
func TestQueueFullBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 1, QueueSize: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// A long job occupies the single worker...
	long := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(1, 5_000_000)})
	waitState := func(id string, st api.JobState) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if getJob(t, srv.URL, id).State == st {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s never reached %q", id, st)
	}
	waitState(long.ID, api.StateRunning)

	// ...a second fills the queue...
	queued := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(2, 1000)})

	// ...and the third bounces with 429 + Retry-After.
	body, _ := json.Marshal(api.JobSpec{Scene: &testScene, Options: testOptions(3, 1000)})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submission: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel both: the queued job terminates without ever running, the
	// long one stops at its next chunk boundary.
	for _, id := range []string{queued.ID, long.ID} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}
	if v := waitDone(t, srv.URL, queued.ID); v.State != api.StateCancelled {
		t.Fatalf("queued job state %q after cancel", v.State)
	}
	if v := waitDone(t, srv.URL, long.ID); v.State != api.StateCancelled {
		t.Fatalf("running job state %q after cancel", v.State)
	}
}

// The SSE stream must deliver an initial snapshot, progress events and
// a final done event whose result matches the GET view.
func TestEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Long enough that the stream reliably attaches while the chain is
	// still running and sees mid-run progress snapshots.
	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(21, 500000)})
	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := map[string]int{}
	var final api.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var name string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			events[name]++
		case strings.HasPrefix(line, "data: ") && name == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				t.Fatal(err)
			}
		}
		if final.ID != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["state"] == 0 || events["done"] != 1 {
		t.Fatalf("event counts %v", events)
	}
	if events["progress"] == 0 {
		t.Fatalf("no progress events (got %v)", events)
	}
	got := normalizeResult(decodeResult(t, final))
	if polled := normalizeResult(decodeResult(t, getJob(t, srv.URL, view.ID))); !reflect.DeepEqual(got, polled) {
		t.Fatal("SSE final result differs from GET result")
	}
}

// A subscriber attaching after completion still gets the final event.
func TestEventStreamAfterCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(2, 2000)})
	waitDone(t, srv.URL, view.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := readAllWithin(resp.Body, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "event: done") {
		t.Fatalf("no done event in:\n%s", blob)
	}
}

// readAllWithin reads until EOF or a deadline (SSE streams only close
// on the terminal event, so a missing event would otherwise hang).
func readAllWithin(r interface{ Read([]byte) (int, error) }, d time.Duration) ([]byte, error) {
	type result struct {
		data []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		var buf bytes.Buffer
		_, err := buf.ReadFrom(r)
		ch <- result{buf.Bytes(), err}
	}()
	select {
	case res := <-ch:
		return res.data, res.err
	case <-time.After(d):
		return nil, fmt.Errorf("stream did not close within %v", d)
	}
}

// PGM and PNG uploads must land the exact result of detecting the
// decoded pixels directly.
func TestImageUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 2})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	ps, err := testScene.ToParmcmc()
	if err != nil {
		t.Fatal(err)
	}
	pix, _ := parmcmc.GenerateScene(ps)
	img := &imaging.Image{W: testScene.W, H: testScene.H, Pix: pix}
	var pgm, png bytes.Buffer
	if err := img.WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	if err := img.WritePNG(&png); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"pgm", "image/x-portable-graymap", pgm.Bytes()},
		{"png", "image/png", png.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := srv.URL + "/v1/jobs?radius=7&iters=20000&seed=9&strategy=sequential"
			resp, err := http.Post(url, tc.ct, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("status %d", resp.StatusCode)
			}
			var view api.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			got := normalizeResult(decodeResult(t, waitDone(t, srv.URL, view.ID)))

			// The daemon decoded the upload itself; reproduce that and
			// detect directly.
			spec, aerr := decodeSubmit(tc.ct, tc.body, map[string][]string{
				"radius": {"7"}, "iters": {"20000"}, "seed": {"9"}, "strategy": {"sequential"},
			})
			if aerr != nil {
				t.Fatal(aerr)
			}
			res, err := parmcmc.Detect(spec.pix, spec.w, spec.h, spec.opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := normalizeResult(api.NewResultView(res)); !reflect.DeepEqual(got, want) {
				t.Fatalf("upload result differs from direct Detect\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// Jobs that omit the seed must get the documented derived seed and a
// result reproducible from it.
func TestDerivedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m := newTestManager(t, Config{Workers: 2, BaseSeed: 42})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	a := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(0, 10000)})
	b := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(0, 10000)})
	if a.Seed == 0 || b.Seed == 0 || a.Seed == b.Seed {
		t.Fatalf("derived seeds %d, %d", a.Seed, b.Seed)
	}
	// The daemon derives seeds with parmcmc.DeriveSeed: job 1 under
	// base seed 42 must agree with it.
	if want := parmcmc.DeriveSeed(42, 1); a.Seed != want {
		t.Fatalf("first derived seed %d, want %d", a.Seed, want)
	}
	got := normalizeResult(decodeResult(t, waitDone(t, srv.URL, a.ID)))
	spec := testOptions(a.Seed, 10000)
	if want := expectedView(t, testScene, spec); !reflect.DeepEqual(got, want) {
		t.Fatal("derived-seed result not reproducible from the reported seed")
	}
}

// In-process restart durability: stop a manager mid-job and a new one
// over the same spool resumes from the checkpoint to the bit-identical
// result; finished jobs reappear read-only with their results intact.
func TestSpoolRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	spool := t.TempDir()
	spec := testOptions(31, 2_000_000)

	m1, err := NewManager(Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 10000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m1.Handler())
	quick := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(8, 1000)})
	quickDone := waitDone(t, srv.URL, quick.ID)
	long := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: spec})

	// Wait for a checkpoint, then stop the manager mid-job.
	ckpt := filepath.Join(spool, long.ID, spoolCheckpointFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := getRecordState(t, spool, long.ID); got.Terminal() {
		t.Fatalf("interrupted job recorded as %q", got)
	}

	// Restart over the same spool.
	m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 10000})
	srv2 := httptest.NewServer(m2.Handler())
	defer srv2.Close()

	// The finished job is back, result intact.
	if v := getJob(t, srv2.URL, quick.ID); !reflect.DeepEqual(
		normalizeResult(decodeResult(t, v)), normalizeResult(decodeResult(t, quickDone))) {
		t.Fatal("finished job's result changed across restart")
	}

	// The interrupted job resumes to the exact uninterrupted result.
	got := normalizeResult(decodeResult(t, waitDone(t, srv2.URL, long.ID)))
	if want := expectedView(t, testScene, spec); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed result differs from uninterrupted run")
	}

	// New submissions must not collide with recovered ids.
	fresh := submitJSON(t, srv2.URL, api.JobSpec{Scene: &testScene, Options: testOptions(5, 1000)})
	if fresh.ID == quick.ID || fresh.ID == long.ID {
		t.Fatalf("id collision: %s", fresh.ID)
	}
}

// Upload jobs must survive a restart too: recovery re-decodes the
// spooled image bytes and takes options from the record (a regression
// test — recovery used to route through the query-parameter decoder,
// which rejected every recovered upload for its missing mean_radius).
func TestSpoolRecoveryUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	spool := t.TempDir()
	ps, err := testScene.ToParmcmc()
	if err != nil {
		t.Fatal(err)
	}
	pix, _ := parmcmc.GenerateScene(ps)
	var pgm bytes.Buffer
	if err := (&imaging.Image{W: testScene.W, H: testScene.H, Pix: pix}).WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}

	m1, err := NewManager(Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 10000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m1.Handler())
	resp, err := http.Post(srv.URL+"/v1/jobs?radius=7&iters=2000000&seed=19", "image/x-portable-graymap", bytes.NewReader(pgm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var view api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	ckpt := filepath.Join(spool, view.ID, spoolCheckpointFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 10000})
	srv2 := httptest.NewServer(m2.Handler())
	defer srv2.Close()
	got := normalizeResult(decodeResult(t, waitDone(t, srv2.URL, view.ID)))

	// The daemon detects the PGM-decoded (8-bit-quantized) pixels, not
	// the raw synthesis buffer — reproduce that decode for the reference.
	dpix, dw, dh, _, aerr := decodeImageBytes("", pgm.Bytes())
	if aerr != nil {
		t.Fatal(aerr)
	}
	res, err := parmcmc.Detect(dpix, dw, dh, parmcmc.Options{
		Strategy: parmcmc.Sequential, MeanRadius: 7, Iterations: 2000000, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := normalizeResult(api.NewResultView(res)); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered upload job's result differs from direct Detect")
	}

	// The restarted process only performed the post-checkpoint tail:
	// its aggregate counter must not re-count the pre-restart work.
	if total := m2.itersTotal.Load(); total >= 2000000 {
		t.Fatalf("resumed manager accounted %d iterations (double-counted the pre-crash run)", total)
	}
}

// An open SSE stream must not survive manager shutdown (it would
// otherwise pin http.Server.Shutdown for the whole drain budget).
func TestEventStreamEndsOnStop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	m, err := NewManager(Config{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(6, 5_000_000)})
	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopped <- m.Stop(ctx)
	}()
	// The stream must reach EOF because of the stop, not because the
	// (5M-iteration) job finished.
	if _, err := readAllWithin(resp.Body, 30*time.Second); err != nil {
		t.Fatalf("SSE stream did not end on shutdown: %v", err)
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if st := getJob(t, srv.URL, view.ID).State; st.Terminal() {
		t.Fatalf("shutdown-interrupted job reached terminal state %q", st)
	}
}

func getRecordState(t *testing.T, spool, id string) api.JobState {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(spool, id, spoolRecordFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec api.JobRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.State
}

// The whole lifecycle — manager, server, SSE subscribers, cancels —
// must not leak goroutines.
func TestNoGoroutineLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	before := runtime.NumGoroutine()

	func() {
		m, err := NewManager(Config{Workers: 2, QueueSize: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(m.Handler())
		defer srv.Close()
		a := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(1, 5000)})
		b := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(2, 4_000_000)})
		// One SSE subscriber on each.
		for _, id := range []string{a.ID, b.ID} {
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
		}
		waitDone(t, srv.URL, a.ID)
		// Stop with the long job still running: it must be interrupted
		// and its worker drained.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: before %d, after %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// API surface details: 404s, method checks, list endpoint, healthz and
// metrics exposition.
func TestAPIEndpoints(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(4, 500)})
	waitDone(t, srv.URL, view.ID)

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if status, body := get("/v1/jobs"); status != http.StatusOK || !strings.Contains(body, view.ID) {
		t.Fatalf("list: %d %s", status, body)
	}
	if status, _ := get("/v1/jobs/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown job: %d", status)
	}
	if status, _ := get("/v1/jobs/" + view.ID + "/bogus"); status != http.StatusNotFound {
		t.Fatalf("bogus subresource: %d", status)
	}
	if status, body := get("/healthz"); status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	status, body := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		`mcmcd_jobs{state="done"} 1`,
		"mcmcd_queue_capacity 16",
		"mcmcd_workers 1",
		"mcmcd_iterations_total",
		"mcmcd_iterations_per_second",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// Method checks.
	if resp, err := http.Post(srv.URL+"/healthz", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /healthz: %d", resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/jobs/"+view.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("PUT job: %d", resp.StatusCode)
		}
	}

	// Cancelling a terminal job is a no-op that still returns the view.
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE done job: %d", resp.StatusCode)
		}
	}
	if v := getJob(t, srv.URL, view.ID); v.State != api.StateDone {
		t.Fatalf("done job state changed to %q by cancel", v.State)
	}

	// Submissions after Stop get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, status := trySubmitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(1, 100)}); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after stop: %d", status)
	}
}

// A speculative job's executor telemetry must surface through both
// operator paths: the diag endpoint's spec_width/spec_speedup fields
// and the per-job mcmcd_spec_width/mcmcd_spec_speedup gauges on
// /metrics — and the exposition must parse back through pkg/client.
// The gauges are per running job: present while the job runs, gone
// once it is terminal.
func TestSpecTelemetryDiagAndMetrics(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	scrape := func() *client.Metrics {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		parsed, err := client.ParseMetrics(buf.String())
		if err != nil {
			t.Fatalf("daemon exposition does not parse back: %v\n%s", err, buf.String())
		}
		return parsed
	}
	keys := func(id string) (width, speedup string) {
		return fmt.Sprintf("mcmcd_spec_width{job=%q}", id), fmt.Sprintf("mcmcd_spec_speedup{job=%q}", id)
	}

	// A long job: its series appear while it runs and go once it is
	// cancelled.
	spec := api.OptionsSpec{
		Strategy: "periodic+spec", MeanRadius: 7,
		Iterations: 50_000_000, Seed: 3, PartitionGrid: 2,
	}
	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: spec})
	widthKey, speedupKey := keys(view.ID)
	deadline := time.Now().Add(60 * time.Second)
	for {
		parsed := scrape()
		if width, ok := parsed.Values[widthKey]; ok {
			if width < 1 {
				t.Fatalf("%s = %v, want >= 1", widthKey, width)
			}
			if got := parsed.Values[speedupKey]; got < 1 {
				t.Fatalf("%s = %v, want >= 1", speedupKey, got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared while the job ran", widthKey)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := m.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.URL, view.ID)
	parsed := scrape()
	for _, key := range []string{widthKey, speedupKey} {
		if v, ok := parsed.Values[key]; ok {
			t.Fatalf("%s = %v still exported after the job was cancelled", key, v)
		}
	}

	// A job run to completion keeps its telemetry in diag but not on
	// /metrics.
	spec.Iterations = 6000
	view = submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: spec})
	if got := waitDone(t, srv.URL, view.ID); got.State != api.StateDone {
		t.Fatalf("job ended %s, want done", got.State)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/diag")
	if err != nil {
		t.Fatal(err)
	}
	var diag api.DiagView
	err = json.NewDecoder(resp.Body).Decode(&diag)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if diag.SpecWidth < 1 {
		t.Fatalf("diag spec_width = %d, want >= 1", diag.SpecWidth)
	}
	if diag.SpecSpeedup < 1 {
		t.Fatalf("diag spec_speedup = %v, want >= 1", diag.SpecSpeedup)
	}
	if diag.Progress == nil || diag.Progress.SpecWidth != diag.SpecWidth {
		t.Fatalf("diag progress does not carry the spec width: %+v", diag.Progress)
	}
	widthKey, speedupKey = keys(view.ID)
	parsed = scrape()
	for _, key := range []string{widthKey, speedupKey} {
		if v, ok := parsed.Values[key]; ok {
			t.Fatalf("%s = %v still exported after the job finished", key, v)
		}
	}
}
