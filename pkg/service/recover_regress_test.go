package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/pkg/api"
)

// The cancel contract must not depend on WHERE the cancel landed:
// cancelled-while-queued and cancelled-while-running report the same
// state AND the same error string. The queued path used to leave Error
// empty, so clients saw two different wire shapes for one outcome.
func TestCancelErrorConsistentQueuedVsRunning(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueSize: 4})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	running := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(1, 100_000_000)})
	queued := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(2, 100_000_000)})

	// Let the first job claim the only worker, so the second stays
	// queued when its cancel arrives.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, srv.URL, running.ID).State != api.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	q := waitDone(t, srv.URL, queued.ID)
	r := waitDone(t, srv.URL, running.ID)
	if q.State != api.StateCancelled || r.State != api.StateCancelled {
		t.Fatalf("states %q / %q, want cancelled / cancelled", q.State, r.State)
	}
	if q.Error != "cancelled" || r.Error != "cancelled" {
		t.Fatalf("cancel errors diverge: queued %q vs running %q", q.Error, r.Error)
	}
}

// parseJobSeq must accept exactly "job-<digits>" — Sscanf-style parsing
// tolerated trailing garbage, letting a stray spool directory steal a
// live job's sequence number.
func TestParseJobSeqStrict(t *testing.T) {
	cases := []struct {
		id   string
		want uint64
		ok   bool
	}{
		{"job-00000012", 12, true},
		{"job-1", 1, true},
		{"job-00000000", 0, true},
		{"job-00000012x", 0, false},
		{"job-12.5", 0, false},
		{"job-12 ", 0, false},
		{"job- 12", 0, false},
		{"job-+12", 0, false},
		{"job--12", 0, false},
		{"job-1_2", 0, false},
		{"job-", 0, false},
		{"job-0x10", 0, false},
		{"batch-12", 0, false},
		{"job-99999999999999999999999", 0, false}, // uint64 overflow
	}
	for _, tc := range cases {
		var n uint64
		ok := parseJobSeq(tc.id, &n)
		if ok != tc.ok || (ok && n != tc.want) {
			t.Errorf("parseJobSeq(%q) = %d, %v; want %d, %v", tc.id, n, ok, tc.want, tc.ok)
		}
	}
}

// interruptRunningJob runs one spooled job long enough to claim a
// worker, then stops the manager mid-run (the daemon-shutdown path, so
// the spool stays resumable and holds the drain checkpoint of wherever
// the run stopped) and returns the job id.
func interruptRunningJob(t *testing.T, spool string, cfg Config, iters int) string {
	t.Helper()
	cfg.SpoolDir = spool
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(77, iters)})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, srv.URL, st.ID).State != api.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// Recovery without a usable checkpoint must (a) restart the job from
// scratch, (b) mark it Restarted on the wire so streaming clients
// rewind their watermark, and (c) still land the bit-identical result.
// Covers both zero-coverage paths from the issue: no-checkpoint-yet and
// corrupt-checkpoint.
func TestScratchRecoveryMarksRestarted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	const iters = 400_000

	for _, tc := range []struct {
		name    string
		corrupt bool
	}{
		{"no_checkpoint_yet", false},
		{"corrupt_checkpoint", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			// Stop drains the run into a checkpoint wherever it lands;
			// the no-checkpoint variant deletes it (a crash before the
			// first checkpoint), the corrupt variant mangles it.
			id := interruptRunningJob(t, spool, Config{Workers: 1, CheckpointEvery: 10 * iters}, iters)

			ckpt := filepath.Join(spool, id, spoolCheckpointFile)
			if tc.corrupt {
				if err := os.WriteFile(ckpt, []byte("not a gob checkpoint"), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := os.Remove(ckpt); err != nil {
				t.Fatalf("drain left no checkpoint: %v", err)
			}

			m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool})
			srv := httptest.NewServer(m2.Handler())
			defer srv.Close()
			job, err := m2.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if !job.Status().Restarted {
				t.Fatal("recovered scratch-restart job not marked Restarted")
			}
			final := waitDone(t, srv.URL, id)
			if !final.Restarted {
				t.Fatal("Restarted flag lost by completion")
			}
			got := normalizeResult(decodeResult(t, final))
			if want := expectedView(t, testScene, testOptions(77, iters)); !reflect.DeepEqual(got, want) {
				t.Fatalf("scratch-restarted result differs from direct Detect\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// A daemon upgraded across the checkpoint format change may find v1
// checkpoints in its spool. The compat contract: the v1 blob is
// rejected (never silently mis-decoded) and the job restarts from
// scratch, marked Restarted, and still completes correctly. The golden
// v1 fixture lives next to the format's own compat tests in
// pkg/parmcmc/testdata.
func TestRecoveryOverV1CheckpointRestartsFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	v1, err := os.ReadFile(filepath.Join("..", "parmcmc", "testdata", "checkpoint_v1.golden"))
	if err != nil {
		t.Fatalf("reading golden v1 checkpoint: %v", err)
	}
	const iters = 400_000
	spool := t.TempDir()
	id := interruptRunningJob(t, spool, Config{Workers: 1, CheckpointEvery: 10 * iters}, iters)
	if err := os.WriteFile(filepath.Join(spool, id, spoolCheckpointFile), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool})
	srv := httptest.NewServer(m2.Handler())
	defer srv.Close()
	job, err := m2.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Status().Restarted {
		t.Fatal("job recovered over a v1 checkpoint not marked Restarted")
	}
	got := normalizeResult(decodeResult(t, waitDone(t, srv.URL, id)))
	if want := expectedView(t, testScene, testOptions(77, iters)); !reflect.DeepEqual(got, want) {
		t.Fatalf("result after v1-checkpoint scratch restart differs\ngot  %+v\nwant %+v", got, want)
	}
}

// A checkpoint-resumed recovery must NOT be marked Restarted — the
// client's dedup depends on the distinction. The checkpoint is Stop's
// drain checkpoint: the periodic cadence is beyond the job length, so
// the test holds however early the stop lands.
func TestCheckpointRecoveryNotMarkedRestarted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full chains")
	}
	const iters = 2_000_000
	spool := t.TempDir()
	id := interruptRunningJob(t, spool, Config{Workers: 1, CheckpointEvery: 10 * iters}, iters)
	if _, err := os.Stat(filepath.Join(spool, id, spoolCheckpointFile)); err != nil {
		t.Fatalf("drain left no checkpoint to resume from: %v", err)
	}
	m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 10_000})
	job, err := m2.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if job.Status().Restarted {
		t.Fatal("checkpoint-resumed job wrongly marked Restarted")
	}
}

// A client's cancel ends the job for good: unlike a shutdown, it leaves
// no drain checkpoint in the spool.
func TestUserCancelLeavesNoCheckpoint(t *testing.T) {
	spool := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 100_000_000})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(5, 100_000_000)})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, srv.URL, st.ID).State != api.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, srv.URL, st.ID); got.State != api.StateCancelled {
		t.Fatalf("state %q, want cancelled", got.State)
	}
	if _, err := os.Stat(filepath.Join(spool, st.ID, spoolCheckpointFile)); !os.IsNotExist(err) {
		t.Fatalf("cancelled job left a checkpoint (stat err %v)", err)
	}
}

// A client's cancel that lands just before a shutdown still ends the
// job: the drain keeps nothing resumable, the job is cancelled on the
// wire and on disk, and a restart over the spool does not run it again.
func TestCancelRacingStopEndsCancelled(t *testing.T) {
	spool := t.TempDir()
	m, err := NewManager(Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 100_000_000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(9, 100_000_000)})
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, srv.URL, st.ID).State != api.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := getJob(t, srv.URL, st.ID); got.State != api.StateCancelled || got.Error != "cancelled" {
		t.Fatalf("wire status after cancel+stop = %+v", got)
	}
	if got := getRecordState(t, spool, st.ID); got != api.StateCancelled {
		t.Fatalf("spooled state %q, want cancelled", got)
	}
	if _, err := os.Stat(filepath.Join(spool, st.ID, spoolCheckpointFile)); !os.IsNotExist(err) {
		t.Fatalf("cancelled job left a checkpoint (stat err %v)", err)
	}
	m2 := newTestManager(t, Config{Workers: 1, SpoolDir: spool})
	job, err := m2.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Status().State; got != api.StateCancelled {
		t.Fatalf("recovered state %q, want cancelled", got)
	}
}

// Terminal jobs keep no checkpoint: every path that lands a cancelled
// (or failed) job removes checkpoint.bin, so the spool never offers a
// resume point for a job that can never resume.
func TestTerminalJobsKeepNoCheckpoint(t *testing.T) {
	noCheckpoint := func(t *testing.T, spool, id string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(spool, id, spoolCheckpointFile)); !os.IsNotExist(err) {
			t.Fatalf("terminal job %s kept its checkpoint (stat err %v)", id, err)
		}
	}

	t.Run("standalone_cancel", func(t *testing.T) {
		spool := t.TempDir()
		m := newTestManager(t, Config{Workers: 1, SpoolDir: spool, CheckpointEvery: 500})
		srv := httptest.NewServer(m.Handler())
		defer srv.Close()
		st := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(21, 100_000_000)})
		ckpt := filepath.Join(spool, st.ID, spoolCheckpointFile)
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint was ever written")
			}
			time.Sleep(5 * time.Millisecond)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := waitDone(t, srv.URL, st.ID); got.State != api.StateCancelled {
			t.Fatalf("state %q, want cancelled", got.State)
		}
		noCheckpoint(t, spool, st.ID)
	})

	t.Run("remote_cancel", func(t *testing.T) {
		m, r := newTestExternal(t, Config{})
		srv := httptest.NewServer(m.Handler())
		defer srv.Close()
		st := submitJSON(t, srv.URL, api.JobSpec{Scene: &testScene, Options: testOptions(23, 50000)})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		job, err := r.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r.Start(job, "w-0001", func() {})
		// The worker spooled a checkpoint before its client cancelled.
		if err := os.WriteFile(filepath.Join(m.cfg.SpoolDir, st.ID, spoolCheckpointFile), []byte("checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		r.Complete(job, nil, "cancelled")
		if got := getJob(t, srv.URL, st.ID); got.State != api.StateCancelled {
			t.Fatalf("state %q, want cancelled", got.State)
		}
		noCheckpoint(t, m.cfg.SpoolDir, st.ID)
	})

	t.Run("recovered_queued_cancel", func(t *testing.T) {
		spool := t.TempDir()
		id := interruptRunningJob(t, spool, Config{Workers: 1, CheckpointEvery: 100_000_000}, 100_000_000)
		if _, err := os.Stat(filepath.Join(spool, id, spoolCheckpointFile)); err != nil {
			t.Fatalf("drain left no checkpoint: %v", err)
		}
		// Nothing leases the recovered job, so the cancel finds it queued.
		m, _ := newTestExternal(t, Config{SpoolDir: spool})
		job, err := m.Cancel(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := job.Status().State; got != api.StateCancelled {
			t.Fatalf("state %q, want cancelled", got)
		}
		noCheckpoint(t, spool, id)
	})
}
