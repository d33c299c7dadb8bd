package e2e

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/pkg/api"
)

var clusterCases = []e2eCase{
	{
		ID:       "C00501",
		Title:    "Two-worker cluster completes jobs bit-identically",
		Priority: 1,
		Smoke:    true,
		Run:      caseClusterBasic,
	},
	{
		ID:       "C00502",
		Title:    "SIGKILLed worker's job is re-leased from its checkpoint bit-identically",
		Priority: 1,
		Smoke:    true,
		Run:      caseClusterWorkerKillResume,
	},
	{
		ID:       "C00503",
		Title:    "Coordinator crash: workers re-register, orphan aborted, exact result",
		Priority: 2,
		Smoke:    false,
		Run:      caseClusterCoordinatorCrash,
	},
	{
		ID:       "C00504",
		Title:    "Worker death before any checkpoint re-leases from scratch",
		Priority: 2,
		Smoke:    false,
		Run:      caseClusterScratchRelease,
	},
}

// ---- cluster harness ------------------------------------------------

// workerProc is one mcmcd -role worker process. Like daemon, its
// stderr goes to a log collected as a failure artifact.
type workerProc struct {
	cmd     *exec.Cmd
	id      string // the coordinator-assigned worker ID, e.g. w-0001
	logPath string
}

// startWorker launches a worker against the coordinator and waits for
// its "worker ready" line (which carries the assigned ID).
func startWorker(t *testing.T, coordURL, spool string, extraArgs ...string) *workerProc {
	t.Helper()
	bin := toolBin(t, "mcmcd")
	args := append([]string{"-role", "worker", "-coordinator", coordURL, "-spool", spool}, extraArgs...)
	cmd := exec.Command(bin, args...)

	logPath := filepath.Join(t.TempDir(), "worker.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		logFile.Close()
		if t.Failed() {
			saveArtifact(t, logPath)
		}
	})

	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "worker ready id=") {
				lines <- sc.Text()
				break
			}
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatalf("worker exited before its readiness line (log: %s)", logPath)
		}
		fields := strings.Fields(line)
		var id string
		for _, f := range fields {
			if strings.HasPrefix(f, "id=") {
				id = strings.TrimPrefix(f, "id=")
			}
		}
		if id == "" {
			t.Fatalf("no worker id in readiness line %q", line)
		}
		return &workerProc{cmd: cmd, id: id, logPath: logPath}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not become ready")
		return nil
	}
}

// kill sends sig and waits for the worker process to exit.
func (w *workerProc) kill(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := w.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { w.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("worker did not exit on %v", sig)
	}
}

// clusterArgs is the shared coordinator tuning for these cases: a
// short lease TTL so worker death is detected in seconds, and a tight
// checkpoint cadence so a kill window always has a checkpoint.
func clusterArgs(extra ...string) []string {
	return append([]string{"-role", "coordinator", "-lease-ttl", "2s", "-checkpoint-every", "10000"}, extra...)
}

// nodes fetches the coordinator's worker registry.
func (d *daemon) nodes(t *testing.T) []api.NodeView {
	t.Helper()
	views, err := d.c.Nodes(context.Background())
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	return views
}

// leaseHolder returns the worker currently holding a lease on jobID
// (empty when nobody does).
func leaseHolder(views []api.NodeView, jobID string) string {
	for _, n := range views {
		for _, l := range n.Leases {
			if l == jobID {
				return n.ID
			}
		}
	}
	return ""
}

// waitLeaseHolder polls /v1/nodes until some worker holds jobID.
func (d *daemon) waitLeaseHolder(t *testing.T, jobID string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if id := leaseHolder(d.nodes(t), jobID); id != "" {
			return id
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no worker ever held a lease on %s", jobID)
	return ""
}

// metricValue extracts one scalar metric from the raw exposition.
func (d *daemon) metricValue(t *testing.T, name string) float64 {
	t.Helper()
	m, err := d.c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	v, ok := m.Values[name]
	if !ok {
		t.Fatalf("metric %s not exposed", name)
	}
	return v
}

// C00501: the distributed happy path. A coordinator with two workers
// completes two same-seed jobs bit-identically to direct library runs,
// the registry shows both workers alive with credited completions, and
// the lease metrics add up.
func caseClusterBasic(t *testing.T) {
	const iters, seed = 200_000, 55
	want := directViewAsync(t, iters, seed)

	spool := t.TempDir()
	d := startDaemon(t, spool, "127.0.0.1:0", clusterArgs()...)
	w1 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "alpha")
	w2 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "beta")

	a := d.submit(t, matrixScene, matrixOptions(iters, seed))
	b := d.submit(t, matrixScene, matrixOptions(iters, seed))
	ra := doneResult(t, d.waitDone(t, a.ID, 180*time.Second))
	rb := doneResult(t, d.waitDone(t, b.ID, 180*time.Second))

	w := want()
	if !reflect.DeepEqual(ra, w) || !reflect.DeepEqual(rb, w) {
		t.Fatalf("cluster results differ from the direct library run\n a %+v\n b %+v\nwant %+v", ra, rb, w)
	}

	views := d.nodes(t)
	if len(views) != 2 {
		t.Fatalf("registry has %d workers, want 2: %+v", len(views), views)
	}
	completed := int64(0)
	for _, n := range views {
		if n.State != api.NodeAlive {
			t.Errorf("worker %s state %q, want alive", n.ID, n.State)
		}
		if n.ID != w1.id && n.ID != w2.id {
			t.Errorf("registry worker %s matches neither launched worker (%s, %s)", n.ID, w1.id, w2.id)
		}
		completed += n.JobsCompleted
	}
	if completed != 2 {
		t.Errorf("registry credits %d completions, want 2", completed)
	}
	if v := d.metricValue(t, "mcmcd_workers_connected"); v != 2 {
		t.Errorf("mcmcd_workers_connected = %v, want 2", v)
	}
	if v := d.metricValue(t, "mcmcd_leases_granted_total"); v < 2 {
		t.Errorf("mcmcd_leases_granted_total = %v, want >= 2", v)
	}
	if v := d.metricValue(t, "mcmcd_leases_active"); v != 0 {
		t.Errorf("mcmcd_leases_active = %v, want 0 after completion", v)
	}
}

// C00502: the flagship horizontal-scale crash case. Two workers; the
// one holding the lease (identified via /v1/nodes) is SIGKILLed after
// a checkpoint exists. The lease expires on missed heartbeats, the job
// re-leases to the survivor from the latest checkpoint, a live SSE
// watcher rides through without a scratch-restart signal, and the
// result is bit-identical to an uninterrupted run.
func caseClusterWorkerKillResume(t *testing.T) {
	const iters, seed = 800_000, 66
	want := directViewAsync(t, iters, seed)

	spool := t.TempDir()
	d := startDaemon(t, spool, "127.0.0.1:0", clusterArgs()...)
	w1 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "alpha")
	w2 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "beta")

	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 240, 250*time.Millisecond)

	holder := d.waitLeaseHolder(t, st.ID)
	victim, survivor := w1, w2
	if holder == w2.id {
		victim, survivor = w2, w1
	}
	d.waitCheckpoint(t, st.ID)
	victim.kill(t, syscall.SIGKILL)

	got := doneResult(t, d.waitDone(t, st.ID, 180*time.Second))
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("re-leased result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}

	// The completion must have come from the survivor, under a fresh
	// lease, after the victim was declared lost.
	views := d.nodes(t)
	var sawLost, sawCredit bool
	for _, n := range views {
		if n.ID == victim.id && n.State == api.NodeLost {
			sawLost = true
		}
		if n.ID == survivor.id && n.JobsCompleted == 1 {
			sawCredit = true
		}
	}
	if !sawLost {
		t.Errorf("victim %s not marked lost in registry: %+v", victim.id, views)
	}
	if !sawCredit {
		t.Errorf("survivor %s not credited with the completion: %+v", survivor.id, views)
	}
	if v := d.metricValue(t, "mcmcd_lease_expiries_total"); v < 1 {
		t.Errorf("mcmcd_lease_expiries_total = %v, want >= 1", v)
	}

	w := mustWatch(t, watch, 60*time.Second)
	if w.restarts != 0 {
		t.Fatalf("checkpoint re-lease must not signal a scratch restart (saw %d)", w.restarts)
	}
	if len(w.iters) == 0 {
		t.Fatal("watcher saw no progress at all")
	}
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}

// C00503: coordinator crash with a job in flight. The restarted
// coordinator recovers the job from the spool and re-leases it; the
// workers' heartbeats answer unknown_worker and they re-register under
// fresh IDs; the orphaned first run is aborted at its next progress
// report (lease_expired) and its result discarded; the job still lands
// the exact result.
func caseClusterCoordinatorCrash(t *testing.T) {
	const iters, seed = 800_000, 77
	want := directViewAsync(t, iters, seed)

	spool := t.TempDir()
	d := startDaemon(t, spool, "127.0.0.1:0", clusterArgs()...)
	startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "alpha")
	startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "beta")

	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 240, 250*time.Millisecond)
	d.waitLeaseHolder(t, st.ID)
	d.waitCheckpoint(t, st.ID)
	d.kill(t, syscall.SIGKILL)

	d2 := restartDaemon(t, d, clusterArgs()...)
	got := doneResult(t, d2.waitDone(t, st.ID, 180*time.Second))
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("post-crash result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}

	// Both workers must have re-registered with the reborn coordinator
	// (its registry is in-memory, so only fresh IDs can appear).
	deadline := time.Now().Add(30 * time.Second)
	for {
		alive := 0
		for _, n := range d2.nodes(t) {
			if n.State == api.NodeAlive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never re-registered: %+v", d2.nodes(t))
		}
		time.Sleep(50 * time.Millisecond)
	}

	w := mustWatch(t, watch, 60*time.Second)
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}

// C00504: worker death in the no-checkpoint window. The job re-leases
// from scratch, Restarted is signalled on the wire (the watcher sees
// its watermark rewind, not a frozen stream), and determinism makes
// the scratch re-run land the exact result anyway.
func caseClusterScratchRelease(t *testing.T) {
	const iters, seed = 500_000, 88
	want := directViewAsync(t, iters, seed)

	spool := t.TempDir()
	// Checkpoint cadence beyond the job length: the kill window is
	// guaranteed checkpoint-free.
	d := startDaemon(t, spool, "127.0.0.1:0",
		"-role", "coordinator", "-lease-ttl", "2s", "-checkpoint-every", "2000000000")
	w1 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "alpha")
	w2 := startWorker(t, d.url, spool, "-job-slots", "1", "-worker-name", "beta")

	st := d.submit(t, matrixScene, matrixOptions(iters, seed))
	watch := watchJob(t, d.url, st.ID, 240, 250*time.Millisecond)

	holder := d.waitLeaseHolder(t, st.ID)
	victim := w1
	if holder == w2.id {
		victim = w2
	}
	d.waitProgress(t, st.ID)
	victim.kill(t, syscall.SIGKILL)

	got := doneResult(t, d.waitDone(t, st.ID, 180*time.Second))
	if w := want(); !reflect.DeepEqual(got, w) {
		t.Fatalf("scratch re-leased result differs from uninterrupted run\ngot  %+v\nwant %+v", got, w)
	}

	w := mustWatch(t, watch, 60*time.Second)
	if w.restarts == 0 {
		t.Fatal("scratch re-lease must signal Restarted to stream watchers")
	}
	if sr := doneResult(t, w.final); !reflect.DeepEqual(sr, got) {
		t.Fatal("stream terminal result differs from polled result")
	}
}
