package repro

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
	"repro/pkg/client"
	"repro/pkg/parmcmc"
)

// This file keeps the root package's one black-box mcmcd test, the
// SIGKILL-and-restart scenario; test/e2e case C00101 makes the same
// assertions inside the case catalog (test/doc/cases.md).

// daemon is one running mcmcd process under test, plus the typed
// client every assertion goes through — the black-box harness speaks
// only the published pkg/api contract.
type daemon struct {
	cmd *exec.Cmd
	url string
	c   *client.Client
}

// startDaemon launches a freshly built mcmcd on addr (use
// "127.0.0.1:0" for an ephemeral port) and waits for its readiness
// line. The process is torn down (if still alive) when the test ends.
func startDaemon(t *testing.T, bin, addr string, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", addr}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
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
	})

	// The readiness line is the contract: "mcmcd: listening on http://…".
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "listening on ") {
				lines <- sc.Text()
				break
			}
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatal("daemon exited before its readiness line")
		}
		i := strings.Index(line, "http://")
		url := strings.TrimSpace(line[i:])
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		return &daemon{cmd: cmd, url: url, c: c}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not become ready")
		return nil
	}
}

func (d *daemon) submitScene(t *testing.T, scene api.SceneSpec, opts api.OptionsSpec) *api.JobStatus {
	t.Helper()
	st, err := d.c.Submit(context.Background(), api.JobSpec{Scene: &scene, Options: opts})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func (d *daemon) getJob(t *testing.T, id string) *api.JobStatus {
	t.Helper()
	st, err := d.c.Job(context.Background(), id)
	if err != nil {
		t.Fatalf("GET %s: %v", id, err)
	}
	return st
}

func (d *daemon) waitDone(t *testing.T, id string, timeout time.Duration) *api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := d.getJob(t, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	return nil
}

// e2eResult extracts and normalizes a done job's result.
func e2eResult(t *testing.T, st *api.JobStatus) api.ResultView {
	t.Helper()
	if st.State != api.StateDone {
		t.Fatalf("job %s state %q (error %q)", st.ID, st.State, st.Error)
	}
	res, err := st.ResultView()
	if err != nil {
		t.Fatal(err)
	}
	res.ElapsedSeconds = 0
	for i := range res.Regions {
		res.Regions[i].Seconds = 0
	}
	return *res
}

// e2eScene is the black-box workload; the test below computes its
// uninterrupted reference with a direct parmcmc.Detect call.
var e2eScene = api.SceneSpec{W: 96, H: 96, Count: 6, MeanRadius: 7, Noise: 0.05, Seed: 11}

// Crash durability AND client resilience in one scenario: a client SSE
// stream is attached when the daemon is SIGKILLed mid-job; the daemon
// restarts on the same address and spool; the stream must reconnect by
// itself, deduplicate the checkpoint-replayed progress, and deliver
// the terminal result — bit-identical to an uninterrupted run.
func TestServiceCrashRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildTool(t, "mcmcd")
	spool := t.TempDir()

	// The uninterrupted reference runs concurrently with the daemon.
	const iters, seed = 1_500_000, 33
	wantCh := make(chan api.ResultView, 1)
	go func() {
		pix, _ := parmcmc.GenerateScene(parmcmc.SceneSpec{
			W: e2eScene.W, H: e2eScene.H, Count: e2eScene.Count,
			MeanRadius: e2eScene.MeanRadius, Noise: e2eScene.Noise, Seed: e2eScene.Seed,
		})
		res, err := parmcmc.Detect(pix, e2eScene.W, e2eScene.H, parmcmc.Options{
			Strategy: parmcmc.Sequential, MeanRadius: e2eScene.MeanRadius,
			Iterations: iters, Seed: seed,
		})
		if err != nil {
			wantCh <- api.ResultView{}
			return
		}
		v := api.NewResultView(res)
		v.ElapsedSeconds = 0
		wantCh <- v
	}()

	d1 := startDaemon(t, bin, "127.0.0.1:0", "-spool", spool, "-job-slots", "1", "-checkpoint-every", "10000")
	st := d1.submitScene(t, e2eScene, api.OptionsSpec{
		Strategy: "sequential", MeanRadius: e2eScene.MeanRadius, Iterations: iters, Seed: seed,
	})

	// A reconnecting watcher rides through the whole crash. Generous
	// retry budget: the restart below takes a moment.
	watcher, err := client.New(d1.url, client.WithRetry(240, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	type watchResult struct {
		final *api.JobStatus
		iters []int64
		err   error
	}
	watchCh := make(chan watchResult, 1)
	go func() {
		var seen []int64
		final, err := watcher.Wait(context.Background(), st.ID, func(ev *client.Event) {
			if ev.Progress != nil {
				seen = append(seen, ev.Progress.Iter)
			}
		})
		watchCh <- watchResult{final: final, iters: seen, err: err}
	}()

	// Wait for at least one spooled checkpoint, then kill -9.
	ckpt := filepath.Join(spool, st.ID, api.SpoolCheckpointFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the crash window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := d1.getJob(t, st.ID).State; got != api.StateRunning {
		t.Fatalf("job state %q at kill time", got)
	}
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	// Restart over the same spool ON THE SAME ADDRESS, so the watcher's
	// reconnects land on the reborn daemon.
	addr := strings.TrimPrefix(d1.url, "http://")
	d2 := startDaemon(t, bin, addr, "-spool", spool, "-job-slots", "1", "-checkpoint-every", "10000")
	final := d2.waitDone(t, st.ID, 180*time.Second)
	got := e2eResult(t, final)
	want := <-wantCh
	if want.Strategy == "" {
		t.Fatal("reference detection failed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-resumed result differs from uninterrupted run\ngot  %+v\nwant %+v", got, want)
	}
	if got.Iterations != int64(iters) {
		t.Fatalf("resumed run accounted %d iterations, want %d", got.Iterations, iters)
	}

	// The watcher must arrive at the same terminal result through its
	// reconnected stream, with progress strictly increasing (no
	// replayed duplicates from the pre-crash prefix).
	select {
	case w := <-watchCh:
		if w.err != nil {
			t.Fatalf("watcher: %v", w.err)
		}
		if sr := e2eResult(t, w.final); !reflect.DeepEqual(sr, want) {
			t.Fatalf("stream result differs from polled result")
		}
		for i := 1; i < len(w.iters); i++ {
			if w.iters[i] <= w.iters[i-1] {
				t.Fatalf("stream progress not strictly increasing: %v", w.iters)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watcher did not finish after the daemon restart")
	}
}
