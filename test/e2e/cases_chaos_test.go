package e2e

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/pkg/api"
)

var chaosCases = []e2eCase{
	{
		ID:       "C00101",
		Title:    "SIGKILL mid-job resumes from checkpoint bit-identically",
		Priority: 1,
		Smoke:    true,
		Run:      caseKillCheckpointResume,
	},
	{
		ID:       "C00102",
		Title:    "SIGKILL before any checkpoint restarts from scratch",
		Priority: 1,
		Smoke:    false,
		Run:      caseKillNoCheckpointScratchRestart,
	},
	{
		ID:       "C00103",
		Title:    "Corrupt checkpoint falls back to a scratch restart",
		Priority: 1,
		Smoke:    false,
		Run:      caseCorruptCheckpointRecovery,
	},
	{
		ID:       "C00104",
		Title:    "SIGTERM drains gracefully and the job resumes",
		Priority: 2,
		Smoke:    true,
		Run:      caseSigtermDrainResume,
	},
	{
		ID:       "C00105",
		Title:    "Randomized repeated kills still land the exact result",
		Priority: 2,
		Smoke:    false,
		Run:      caseRandomizedKillLoop,
	},
}

// restartDaemon brings a dead daemon back on the SAME address over the
// same spool, so an attached watcher's reconnects land on the reborn
// process.
func restartDaemon(t *testing.T, d *daemon, extraArgs ...string) *daemon {
	t.Helper()
	return startDaemon(t, d.spool, d.addr, extraArgs...)
}

// C00101: the flagship crash case. A watcher stream is attached when
// the daemon is SIGKILLed mid-job (after a checkpoint exists); the
// restarted daemon resumes from the checkpoint; the watcher must ride
// through the crash, see progress advance strictly (replayed events
// deduplicated, no scratch-restart snapshots), and the final result
// must be bit-identical to an uninterrupted run.
func caseKillCheckpointResume(t *testing.T) {
	const iters, seed = 800_000, 33
	want := directViewAsync(t, iters, seed)

	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1", "-checkpoint-every", "10000")
	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 240, 250*time.Millisecond)

	d.waitCheckpoint(t, st.ID)
	if got := d.getJob(t, st.ID).State; got != api.StateRunning {
		t.Fatalf("job state %q at kill time", got)
	}
	d.kill(t, syscall.SIGKILL)

	d2 := restartDaemon(t, d, "-job-slots", "1", "-checkpoint-every", "10000")
	got := doneResult(t, d2.waitDone(t, st.ID, 180*time.Second))
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("crash-resumed result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}

	w := mustWatch(t, watch, 60*time.Second)
	if w.restarts != 0 {
		t.Fatalf("checkpoint resume must not signal a scratch restart (saw %d)", w.restarts)
	}
	if len(w.iters) == 0 {
		t.Fatal("watcher saw no progress at all")
	}
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}

// C00102: kill before the first checkpoint. The restarted daemon must
// requeue the job from scratch, mark it Restarted on the wire, and the
// watcher must observe the rewind (not a frozen stream) and still
// collect the exact result — determinism makes scratch == uninterrupted.
func caseKillNoCheckpointScratchRestart(t *testing.T) {
	const iters, seed = 500_000, 44
	want := directViewAsync(t, iters, seed)

	// A checkpoint cadence beyond the job length: the crash window is
	// guaranteed checkpoint-free.
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1", "-checkpoint-every", "2000000000")
	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 240, 250*time.Millisecond)

	d.waitProgress(t, st.ID)
	if _, err := os.Stat(d.checkpointPath(st.ID)); err == nil {
		t.Fatal("test premise broken: a checkpoint exists")
	}
	d.kill(t, syscall.SIGKILL)

	d2 := restartDaemon(t, d, "-job-slots", "1", "-checkpoint-every", "2000000000")
	final := d2.waitDone(t, st.ID, 180*time.Second)
	if !final.Restarted {
		t.Fatal("scratch-recovered job not marked Restarted on the wire")
	}
	got := doneResult(t, final)
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("scratch-restarted result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}

	w := mustWatch(t, watch, 60*time.Second)
	if w.restarts == 0 {
		t.Fatal("watcher never saw the Restarted snapshot; pre-fix clients froze here")
	}
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}

// C00103: a checkpoint exists but is garbage (torn disk, bad deploy).
// Recovery must reject it loudly and restart from scratch rather than
// resume into a corrupted chain.
func caseCorruptCheckpointRecovery(t *testing.T) {
	const iters, seed = 500_000, 55
	want := directViewAsync(t, iters, seed)

	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1", "-checkpoint-every", "10000")
	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	d.waitCheckpoint(t, st.ID)
	d.kill(t, syscall.SIGKILL)

	if err := os.WriteFile(d.checkpointPath(st.ID), []byte("definitely not a gob checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := restartDaemon(t, d, "-job-slots", "1", "-checkpoint-every", "10000")
	final := d2.waitDone(t, st.ID, 180*time.Second)
	if !final.Restarted {
		t.Fatal("corrupt-checkpoint recovery not marked Restarted")
	}
	got := doneResult(t, final)
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("corrupt-checkpoint recovery produced a different result\ngot  %+v\nwant %+v", got, w)
	}
}

// C00104: SIGTERM is the polite path — the daemon drains, the spool
// stays resumable (record + checkpoint), and the restarted daemon
// finishes the job from its checkpoint, NOT from scratch.
func caseSigtermDrainResume(t *testing.T) {
	const iters, seed = 800_000, 66
	want := directViewAsync(t, iters, seed)

	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1", "-checkpoint-every", "10000")
	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	d.waitCheckpoint(t, st.ID)
	d.kill(t, syscall.SIGTERM)

	if _, err := os.Stat(d.checkpointPath(st.ID)); err != nil {
		t.Fatalf("checkpoint gone after graceful shutdown: %v", err)
	}
	blob, err := os.ReadFile(filepath.Join(d.spool, st.ID, api.SpoolRecordFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec api.JobRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State.Terminal() {
		t.Fatalf("graceful shutdown recorded terminal state %q", rec.State)
	}

	d2 := restartDaemon(t, d, "-job-slots", "1", "-checkpoint-every", "10000")
	final := d2.waitDone(t, st.ID, 180*time.Second)
	if final.Restarted {
		t.Fatal("graceful drain left a checkpoint; resume must not be a scratch restart")
	}
	got := doneResult(t, final)
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("drain-resumed result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}
}

// C00105: the randomized chaos loop. Several kills at random moments —
// randomly SIGKILL or SIGTERM — with a live watcher attached the whole
// time. Whatever mix of checkpoint resumes and scratch restarts the
// timing produces, the terminal result must be exact and the stream's
// ordering contract must hold (strict advance, rewinds only at
// Restarted snapshots). The seed is logged and overridable via
// E2E_CHAOS_SEED for deterministic replay of a failure.
func caseRandomizedKillLoop(t *testing.T) {
	seedStr := os.Getenv("E2E_CHAOS_SEED")
	chaosSeed := time.Now().UnixNano()
	if seedStr != "" {
		v, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			t.Fatalf("bad E2E_CHAOS_SEED: %v", err)
		}
		chaosSeed = v
	}
	t.Logf("chaos seed %d (replay with E2E_CHAOS_SEED=%d)", chaosSeed, chaosSeed)
	rng := rand.New(rand.NewSource(chaosSeed))

	const iters, seed = 1_200_000, 77
	want := directViewAsync(t, iters, seed)

	args := []string{"-job-slots", "1", "-checkpoint-every", "10000"}
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", args...)
	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 480, 250*time.Millisecond)

	const kills = 3
	for k := 0; k < kills; k++ {
		// Wait for the job to be running again — tolerating that it may
		// simply finish between kills.
		deadline := time.Now().Add(120 * time.Second)
		cur := d.getJob(t, st.ID)
		for cur.State != api.StateRunning && !cur.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in %q before kill %d", cur.State, k+1)
			}
			time.Sleep(5 * time.Millisecond)
			cur = d.getJob(t, st.ID)
		}
		if cur.State.Terminal() {
			t.Logf("job finished before kill %d; chaos window closed early", k+1)
			break
		}
		// Random dwell: sometimes inside the first checkpoint interval
		// (scratch restart), sometimes well past it (checkpoint resume).
		time.Sleep(time.Duration(50+rng.Intn(1200)) * time.Millisecond)
		if cur := d.getJob(t, st.ID); cur.State.Terminal() {
			t.Logf("job finished before kill %d; chaos window closed early", k+1)
			break
		}
		sig := syscall.SIGKILL
		if rng.Intn(2) == 0 {
			sig = syscall.SIGTERM
		}
		t.Logf("kill %d: %v", k+1, sig)
		d.kill(t, sig)
		d = restartDaemon(t, d, args...)
	}

	got := doneResult(t, d.waitDone(t, st.ID, 300*time.Second))
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("chaos-survivor result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}
	w := mustWatch(t, watch, 120*time.Second)
	t.Logf("watcher: %d progress events, %d scratch restarts", len(w.iters), w.restarts)
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}
