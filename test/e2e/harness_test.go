// Package e2e is the cataloged end-to-end case matrix over the real
// binaries (mcmcd, mcmcctl) and the published client contract. Every
// case is registered with a stable ID, priority and smoke tag; the
// table in test/doc/cases.md is the human-readable catalog and a test
// fails if the two drift apart.
//
// Modes (env E2E_MATRIX):
//
//	unset/"smoke"  run only smoke-tagged cases  (every PR, default go test ./...)
//	"full"         run the whole matrix         (nightly CI)
//
// Run one case by ID:
//
//	go test ./test/e2e -run 'TestCases/C00102' -v
//
// On failure, each daemon's spool and stderr log are copied under
// $E2E_ARTIFACTS (when set) for offline triage.
package e2e

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
	"repro/pkg/parmcmc"
)

// fullMatrix reports whether the whole matrix should run (nightly)
// rather than only the smoke subset (every PR).
func fullMatrix() bool { return os.Getenv("E2E_MATRIX") == "full" }

// ---- binary building (lazy, once per run) --------------------------

var (
	buildOnce sync.Once
	binDir    string
	buildLog  string
	buildFail error
)

// toolBin builds cmd/<name> on first use and returns its path. Built
// binaries live in one temp dir for the whole run (removed by
// TestMain) so the matrix pays the compile cost once.
func toolBin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "e2e-bin-")
		if err != nil {
			buildFail = err
			return
		}
		binDir = dir
		for _, tool := range []string{"mcmcd", "mcmcctl"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			cmd.Dir = "../.." // repo root
			if out, err := cmd.CombinedOutput(); err != nil {
				buildFail = err
				buildLog = string(out)
				return
			}
		}
	})
	if buildFail != nil {
		t.Fatalf("building binaries: %v\n%s", buildFail, buildLog)
	}
	return filepath.Join(binDir, name)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// ---- daemon lifecycle ----------------------------------------------

// daemon is one mcmcd process under test. Its stderr is captured to a
// file (collected as a failure artifact), and all assertions go
// through the published typed client.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	addr    string // host:port, reusable for a restart on the same address
	spool   string
	logPath string
	c       *client.Client
}

// startDaemon launches mcmcd on addr ("127.0.0.1:0" for ephemeral)
// over the given spool and waits for the readiness line. The process
// is killed (if still alive) and its artifacts saved when the test
// ends.
func startDaemon(t *testing.T, spool, addr string, extraArgs ...string) *daemon {
	t.Helper()
	bin := toolBin(t, "mcmcd")
	args := append([]string{"-addr", addr, "-spool", spool}, extraArgs...)
	cmd := exec.Command(bin, args...)

	logPath := filepath.Join(t.TempDir(), "mcmcd.log")
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
			saveArtifact(t, spool)
		}
	})

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
			t.Fatalf("daemon exited before its readiness line (log: %s)", logPath)
		}
		url := strings.TrimSpace(line[strings.Index(line, "http://"):])
		c, err := client.New(url)
		if err != nil {
			t.Fatal(err)
		}
		return &daemon{
			cmd: cmd, url: url, addr: strings.TrimPrefix(url, "http://"),
			spool: spool, logPath: logPath, c: c,
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not become ready")
		return nil
	}
}

// kill sends sig and waits for the process to exit.
func (d *daemon) kill(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not exit on %v", sig)
	}
}

func (d *daemon) submit(t *testing.T, scene api.SceneSpec, opts api.OptionsSpec) *api.JobStatus {
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

// waitState polls until the job reaches want (or any terminal state,
// which fails unless terminal is what was asked for).
func (d *daemon) waitState(t *testing.T, id string, want api.JobState) *api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := d.getJob(t, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached terminal %q (error %q) while waiting for %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return nil
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

// waitProgress polls until the job runs with 20 000 iterations done, so
// that after a kill a frozen stream, rather than a rewind to zero,
// would be unmistakable.
func (d *daemon) waitProgress(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := d.getJob(t, id)
		if cur.State == api.StateRunning && cur.Progress != nil && cur.Progress.Iter >= 20_000 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never built up pre-kill progress", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkpointPath is the job's spooled checkpoint file.
func (d *daemon) checkpointPath(id string) string {
	return filepath.Join(d.spool, id, api.SpoolCheckpointFile)
}

// waitCheckpoint blocks until the job has spooled at least one
// checkpoint — the precondition for a resumable kill.
func (d *daemon) waitCheckpoint(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(d.checkpointPath(id)); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the kill window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- failure artifacts ---------------------------------------------

var artifactName = regexp.MustCompile(`[^A-Za-z0-9._-]+`)

// saveArtifact copies a file or directory tree under
// $E2E_ARTIFACTS/<test-name>/ for offline triage. A no-op unless the
// env var is set (CI sets it; locally the test log usually suffices).
func saveArtifact(t *testing.T, path string) {
	root := os.Getenv("E2E_ARTIFACTS")
	if root == "" {
		return
	}
	dest := filepath.Join(root, artifactName.ReplaceAllString(t.Name(), "_"))
	if err := copyTree(path, filepath.Join(dest, filepath.Base(path))); err != nil {
		t.Logf("saving artifact %s: %v", path, err)
	} else {
		t.Logf("artifacts saved under %s", dest)
	}
}

func copyTree(src, dest string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dest, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// ---- shared workload + reference results ---------------------------

// matrixScene is the matrix's shared synthetic workload; detections on
// it are compared bit-for-bit against direct library calls.
var matrixScene = api.SceneSpec{W: 96, H: 96, Count: 6, MeanRadius: 7, Noise: 0.05, Seed: 11}

func matrixOptions(iters int, seed uint64) api.OptionsSpec {
	return api.OptionsSpec{Strategy: "sequential", MeanRadius: matrixScene.MeanRadius, Iterations: iters, Seed: seed}
}

// directView runs the same detection through the library and returns
// its normalized wire form — the bit-identical reference every service
// result is held to.
func directView(t *testing.T, iters int, seed uint64) api.ResultView {
	t.Helper()
	return directViewAsync(t, iters, seed)()
}

// directViewAsync computes directView concurrently with the daemon run.
func directViewAsync(t *testing.T, iters int, seed uint64) func() api.ResultView {
	ch := make(chan api.ResultView, 1)
	go func() {
		pix, _ := parmcmc.GenerateScene(parmcmc.SceneSpec{
			W: matrixScene.W, H: matrixScene.H, Count: matrixScene.Count,
			MeanRadius: matrixScene.MeanRadius, Noise: matrixScene.Noise, Seed: matrixScene.Seed,
		})
		res, err := parmcmc.Detect(pix, matrixScene.W, matrixScene.H, parmcmc.Options{
			Strategy: parmcmc.Sequential, MeanRadius: matrixScene.MeanRadius,
			Iterations: iters, Seed: seed,
		})
		if err != nil {
			ch <- api.ResultView{}
			return
		}
		ch <- normalize(api.NewResultView(res))
	}()
	return func() api.ResultView {
		v := <-ch
		if v.Strategy == "" {
			t.Fatal("reference detection failed")
		}
		return v
	}
}

func normalize(v api.ResultView) api.ResultView {
	v.ElapsedSeconds = 0
	for i := range v.Regions {
		v.Regions[i].Seconds = 0
	}
	return v
}

// doneResult extracts and normalizes a done job's result.
func doneResult(t *testing.T, st *api.JobStatus) api.ResultView {
	t.Helper()
	if st.State != api.StateDone {
		t.Fatalf("job %s state %q (error %q)", st.ID, st.State, st.Error)
	}
	res, err := st.ResultView()
	if err != nil {
		t.Fatal(err)
	}
	return normalize(*res)
}

// ---- stream watcher ------------------------------------------------

// watchResult is what a background SSE watcher saw: the terminal
// status, every delivered progress iteration, how many scratch-restart
// snapshots arrived, and any ordering violations.
type watchResult struct {
	final      *api.JobStatus
	err        error
	iters      []int64
	restarts   int
	violations []string
}

// watchJob attaches a reconnecting SSE watcher to the job and verifies
// the client-facing ordering contract as events arrive: delivered
// progress advances strictly, EXCEPT immediately after a state
// snapshot with Restarted set (a scratch restart), where the watermark
// legitimately rewinds. The returned channel yields exactly one result
// when the stream ends.
func watchJob(t *testing.T, url, id string, retries int, backoff time.Duration) <-chan watchResult {
	t.Helper()
	w, err := client.New(url, client.WithRetry(retries, backoff))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan watchResult, 1)
	go func() {
		var res watchResult
		var last int64
		haveLast := false
		res.final, res.err = w.Wait(context.Background(), id, func(ev *client.Event) {
			if ev.Status != nil && ev.Status.Restarted && !ev.Status.State.Terminal() {
				res.restarts++
				haveLast = false // the run started over; the watermark rewound
			}
			if ev.Progress != nil {
				if haveLast && ev.Progress.Iter <= last {
					res.violations = append(res.violations, fmt.Sprintf(
						"progress went %d -> %d", last, ev.Progress.Iter))
				}
				last, haveLast = ev.Progress.Iter, true
				res.iters = append(res.iters, ev.Progress.Iter)
			}
		})
		ch <- res
	}()
	return ch
}

// mustWatch drains a watcher channel, failing the test on stream
// errors or ordering violations.
func mustWatch(t *testing.T, ch <-chan watchResult, timeout time.Duration) watchResult {
	t.Helper()
	select {
	case w := <-ch:
		if w.err != nil {
			t.Fatalf("watcher: %v", w.err)
		}
		if len(w.violations) > 0 {
			t.Fatalf("stream ordering violations:\n%s", strings.Join(w.violations, "\n"))
		}
		return w
	case <-time.After(timeout):
		t.Fatal("watcher did not finish")
		return watchResult{}
	}
}
