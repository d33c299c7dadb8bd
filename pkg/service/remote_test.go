package service

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

	"repro/internal/imaging"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

func newTestExternal(t *testing.T, cfg Config) (*Manager, *Remote) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	m, r, err := NewExternal(cfg)
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
	return m, r
}

// runLeased emulates one worker turn over the Remote seam: run the
// granted record through RunChain from the granted checkpoint, with
// the input read from the spool as a worker's is, reporting progress
// through r. Its ctx is also the drain
// context, so like a dying worker it spools every checkpoint, the stop
// point included. It returns the encoded result, or nil if the run was
// interrupted.
func runLeased(t *testing.T, ctx context.Context, m *Manager, r *Remote, job *Job) json.RawMessage {
	t.Helper()
	rec, blob, _ := r.Describe(job)
	observe := func(p parmcmc.Progress) {
		r.Observe(job, *api.NewProgressEvent(p))
	}
	raw, err := RunChain(ctx, ctx, rec, nil, blob, m.cfg.CheckpointEvery, observe, m.cfg.SpoolDir,
		func(f string, a ...any) { t.Errorf(f, a...) }) // a failed checkpoint write fails the test
	if err != nil {
		if ctx.Err() != nil {
			return nil // interrupted mid-run, like a dying worker
		}
		t.Fatal(err)
	}
	return raw
}

// TestExternalLifecycle drives a job through the Remote seam end to
// end — submit over HTTP, lease, remote progress, remote completion —
// and checks the result is stored byte-for-byte and the worker ID is
// visible on the wire.
func TestExternalLifecycle(t *testing.T) {
	t.Parallel()
	m, r := newTestExternal(t, Config{CheckpointEvery: 2000, Role: "coordinator"})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(7, 20000)})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := r.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() != view.ID {
		t.Fatalf("leased %s, submitted %s", job.ID(), view.ID)
	}
	if !r.Start(job, "w-0001", func() {}) {
		t.Fatal("Start refused a pending job")
	}
	if got := getJob(t, srv.URL, view.ID); got.State != api.StateRunning || got.Worker != "w-0001" {
		t.Fatalf("running status = %+v", got)
	}

	raw := runLeased(t, ctx, m, r, job)
	r.Complete(job, raw, "")

	final := getJob(t, srv.URL, view.ID)
	if final.State != api.StateDone {
		t.Fatalf("final state %s (error %q)", final.State, final.Error)
	}
	if string(final.Result) != string(raw) {
		t.Fatal("stored result is not byte-identical to the worker's report")
	}
	want := expectedView(t, testScene, testOptions(7, 20000))
	if got := normalizeResult(decodeResult(t, final)); !reflect.DeepEqual(got, want) {
		t.Fatalf("remote result differs from direct parmcmc run\ngot  %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.SpoolDir, view.ID, api.SpoolResultFile)); err != nil {
		t.Fatalf("result not spooled: %v", err)
	}
}

// leaseInput is one way to submit the same detection: a synthetic
// scene, or that scene's pixels uploaded as a PGM or PNG image. want is
// a direct parmcmc.Detect over exactly the pixels the daemon runs on.
type leaseInput struct {
	name   string
	submit func(t *testing.T, url string) api.JobStatus
	want   func(t *testing.T) api.ResultView
}

// leaseInputs returns the scene, PGM-upload and PNG-upload forms of
// testScene under spec. An upload job's leased run reads its input from
// the spool, so these cover the worker's spool read next to the
// scene's synthesis.
func leaseInputs(t *testing.T, spec api.OptionsSpec) []leaseInput {
	t.Helper()
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
	upload := func(name, ct string, body []byte) leaseInput {
		return leaseInput{
			name: name,
			submit: func(t *testing.T, url string) api.JobStatus {
				resp, err := http.Post(url+"/v1/jobs?"+api.OptionsQuery(spec).Encode(), ct, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("upload: status %d", resp.StatusCode)
				}
				var view api.JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
					t.Fatal(err)
				}
				return view
			},
			want: func(t *testing.T) api.ResultView {
				dpix, w, h, _, aerr := decodeImageBytes("", body)
				if aerr != nil {
					t.Fatal(aerr)
				}
				s := spec
				opt, aerr := optionsFromSpec(&s)
				if aerr != nil {
					t.Fatal(aerr)
				}
				res, err := parmcmc.Detect(dpix, w, h, opt)
				if err != nil {
					t.Fatal(err)
				}
				return normalizeResult(api.NewResultView(res))
			},
		}
	}
	return []leaseInput{
		{
			name: "scene",
			submit: func(t *testing.T, url string) api.JobStatus {
				return submitJSON(t, url, api.JobSpec{Scene: &testScene, Options: spec})
			},
			want: func(t *testing.T) api.ResultView { return expectedView(t, testScene, spec) },
		},
		upload("pgm", "image/x-portable-graymap", pgm.Bytes()),
		upload("png", "image/png", png.Bytes()),
	}
}

// TestExternalRequeueResumesBitIdentically kills the first "worker"
// mid-run after a checkpoint exists, requeues the job, and checks the
// second run resumes from the checkpoint (not flagged restarted, no
// iteration double-counting) and lands the bit-identical result — for
// a scene job and for PGM and PNG uploads, whose leased runs read the
// spooled input.
func TestExternalRequeueResumesBitIdentically(t *testing.T) {
	t.Parallel()
	spec := testOptions(11, 60000)
	for _, in := range leaseInputs(t, spec) {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			m, r := newTestExternal(t, Config{CheckpointEvery: 1000})
			srv := httptest.NewServer(m.Handler())
			defer srv.Close()

			view := in.submit(t, srv.URL)

			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			job, err := r.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			r.Start(job, "w-0001", func() {})

			// First run: die once a checkpoint is on disk.
			runCtx, die := context.WithCancel(ctx)
			ckpt := filepath.Join(m.cfg.SpoolDir, view.ID, api.SpoolCheckpointFile)
			go func() {
				for runCtx.Err() == nil {
					if _, err := os.Stat(ckpt); err == nil {
						die()
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
			if raw := runLeased(t, runCtx, m, r, job); raw != nil {
				t.Fatal("first run finished before it could be killed; lower CheckpointEvery")
			}
			die()

			r.Requeue(job)
			st := getJob(t, srv.URL, view.ID)
			if st.State != api.StatePending || st.Restarted || st.Worker != "" {
				t.Fatalf("requeued status = %+v", st)
			}

			// Second run: must come back out of Next ahead of new submissions
			// and resume from the checkpoint.
			job2, err := r.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if job2 != job {
				t.Fatalf("requeue returned a different job: %s", job2.ID())
			}
			if _, blob, restarted := r.Describe(job2); len(blob) == 0 || restarted {
				t.Fatalf("grant after requeue: checkpoint %d bytes, restarted %v", len(blob), restarted)
			}
			r.Start(job2, "w-0002", func() {})
			raw := runLeased(t, ctx, m, r, job2)
			if raw == nil {
				t.Fatal("second run did not finish")
			}
			r.Complete(job2, raw, "")

			want := in.want(t)
			final := waitDone(t, srv.URL, view.ID)
			if got := normalizeResult(decodeResult(t, final)); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed result differs from uninterrupted run\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestExternalRequeueWithoutCheckpointFlagsRestart covers the scratch
// path: a lease that dies before any checkpoint requeues with
// Restarted set, and still lands the exact result.
func TestExternalRequeueWithoutCheckpointFlagsRestart(t *testing.T) {
	t.Parallel()
	m, r := newTestExternal(t, Config{CheckpointEvery: 1 << 30})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	spec := testOptions(13, 20000)
	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: spec})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	job, err := r.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(job, "w-0001", func() {})
	// The worker dies instantly: no checkpoint was ever written.
	r.Requeue(job)

	st := getJob(t, srv.URL, view.ID)
	if st.State != api.StatePending || !st.Restarted {
		t.Fatalf("requeued status = %+v", st)
	}

	job2, err := r.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, blob, restarted := r.Describe(job2); len(blob) != 0 || !restarted {
		t.Fatalf("grant after scratch requeue: checkpoint %d bytes, restarted %v", len(blob), restarted)
	}
	r.Start(job2, "w-0002", func() {})
	raw := runLeased(t, ctx, m, r, job2)
	r.Complete(job2, raw, "")

	want := expectedView(t, testScene, spec)
	if got := normalizeResult(decodeResult(t, waitDone(t, srv.URL, view.ID))); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted result differs from uninterrupted run\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExternalRequeueOfCancelledJobTerminates checks that a job whose
// client asked for cancellation while it was leased is not re-leased
// when the lease expires — it terminates as cancelled with the same
// wire contract the standalone path uses.
func TestExternalRequeueOfCancelledJobTerminates(t *testing.T) {
	t.Parallel()
	m, r := newTestExternal(t, Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(17, 50000)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := r.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	r.Start(job, "w-0001", func() { cancelled = true })
	if _, err := m.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("cancel did not reach the lease's cancel hook")
	}
	// The worker never acks; its lease expires and the coordinator
	// requeues — which must terminate, not re-lease.
	r.Requeue(job)
	final := getJob(t, srv.URL, view.ID)
	if final.State != api.StateCancelled || final.Error != "cancelled" {
		t.Fatalf("final = %+v", final)
	}
}

// TestExternalCompleteError maps worker-reported failures onto the
// standalone terminal contract.
func TestExternalCompleteError(t *testing.T) {
	t.Parallel()
	m, r := newTestExternal(t, Config{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	view := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(19, 10000)})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := r.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(job, "w-0001", func() {})
	r.Complete(job, nil, "chain diverged")
	if final := getJob(t, srv.URL, view.ID); final.State != api.StateFailed || final.Error != "chain diverged" {
		t.Fatalf("final = %+v", final)
	}
}

// TestExternalNextHonorsStop checks Next unblocks with ErrStopped on
// manager shutdown and with ctx.Err on a caller timeout (the lease
// long-poll window).
func TestExternalNextHonorsStop(t *testing.T) {
	t.Parallel()
	_, r := newTestExternal(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.Next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Next on empty queue = %v, want deadline", err)
	}
}
