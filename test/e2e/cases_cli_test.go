package e2e

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/pkg/api"
)

var cliCases = []e2eCase{
	{
		ID:       "C00601",
		Title:    "mcmcctl drives a live daemon end to end",
		Priority: 1,
		Smoke:    true,
		Run:      caseOperatorCLI,
	},
}

// runCtl executes one mcmcctl invocation and returns its stdout; a
// non-zero exit fails the test with the command's stderr.
func runCtl(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(toolBin(t, "mcmcctl"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mcmcctl %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

func finite(v api.Float) bool {
	return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
}

// C00601: the operator CLI against a live daemon. Every mcmcctl verb an
// operator reaches for runs through the real binary — version, submit,
// the SSE tail, diagnostics, list, get, cancel, offline spool
// inspection and metrics — and the typed client checks the same
// daemon's capability registry, convergence diagnostics, health,
// histograms and not-found envelope.
func caseOperatorCLI(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "127.0.0.1:0", "-job-slots", "1")
	ctx := context.Background()
	host := "-host=" + d.url

	if out := runCtl(t, host, "version"); !strings.Contains(out, "server\tmcmcd api v1") {
		t.Fatalf("version output:\n%s", out)
	}
	info, err := d.c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.API != api.Version || len(info.Strategies) == 0 || len(info.Shapes) == 0 {
		t.Fatalf("version info %+v", info)
	}

	// Submit the matrix scene through flags; -json prints the typed
	// status with the seed echoed. A free slot may start the job before
	// the response is written, so running is as valid as pending.
	var st api.JobStatus
	out := runCtl(t, host, "job", "submit", "-json",
		"-scene-w", "96", "-scene-h", "96", "-scene-count", "6", "-scene-radius", "7",
		"-scene-noise", "0.05", "-scene-seed", "11",
		"-strategy", "sequential", "-radius", "7", "-iterations", "400000", "-seed", "21")
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit -json output is not a JobStatus: %v\n%s", err, out)
	}
	if st.ID == "" || st.Seed != 21 || (st.State != api.StatePending && st.State != api.StateRunning) {
		t.Fatalf("submitted %+v", st)
	}

	// The SSE tail shows live progress and ends on the terminal status.
	events := runCtl(t, host, "job", "events", st.ID)
	if !strings.Contains(events, "progress\t") || !strings.Contains(events, "state\tdone") {
		t.Fatalf("events output lacks progress or the done state:\n%s", events)
	}

	// Convergence diagnostics over the finished chain: a window of at
	// least 8 chunk-boundary samples with finite R̂/ESS, plus the
	// result-level acceptance rate. The CLI reports the same numbers.
	diag, err := d.c.Diag(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Samples < 8 || !finite(diag.RHat) || !finite(diag.ESS) || !finite(diag.AcceptRate) {
		t.Fatalf("diag lacks convergence stats: %+v", diag)
	}
	var cliDiag api.DiagView
	if err := json.Unmarshal([]byte(runCtl(t, host, "diag", "-json", st.ID)), &cliDiag); err != nil {
		t.Fatal(err)
	}
	if cliDiag.Samples != diag.Samples || cliDiag.RHat != diag.RHat || cliDiag.ESS != diag.ESS {
		t.Fatalf("diag -json %+v differs from the API's %+v", cliDiag, diag)
	}
	human := runCtl(t, host, "diag", st.ID)
	for _, want := range []string{"rhat\t", "ess\t", "accept_rate\t"} {
		if !strings.Contains(human, want) {
			t.Fatalf("diag output missing %q:\n%s", want, human)
		}
	}
	if strings.Contains(human, "rhat\t-") {
		t.Fatalf("diag reports missing R̂:\n%s", human)
	}

	// Health and metrics answer on the same listener, and every
	// histogram saw the finished job.
	if h, err := d.c.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
	m, err := d.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcmcd_queue_wait_seconds", "mcmcd_job_duration_seconds", "mcmcd_iteration_seconds"} {
		if h, ok := m.Histograms[name]; !ok || h.Count == 0 {
			t.Fatalf("histogram %s missing or empty after a completed job", name)
		}
	}
	if m.Values[`mcmcd_jobs{state="done"}`] != 1 {
		t.Fatalf("done gauge %v", m.Values)
	}
	_, err = d.c.Job(ctx, "job-99999999")
	var env *api.ErrorEnvelope
	if !errors.As(err, &env) || env.Code != api.CodeNotFound || env.Status != http.StatusNotFound {
		t.Fatalf("unknown job error %v", err)
	}

	if out := runCtl(t, host, "job", "list"); !strings.Contains(out, st.ID) {
		t.Fatalf("job list missing %s:\n%s", st.ID, out)
	}
	if out := runCtl(t, host, "job", "get", st.ID); !strings.Contains(out, "state\tdone") || !strings.Contains(out, "circles\t") {
		t.Fatalf("job get output:\n%s", out)
	}

	var long api.JobStatus
	if err := json.Unmarshal([]byte(runCtl(t, host, "job", "submit", "-json",
		"-scene-w", "96", "-scene-h", "96", "-scene-count", "6", "-scene-radius", "7",
		"-radius", "7", "-iterations", "50000000")), &long); err != nil {
		t.Fatal(err)
	}
	if out := runCtl(t, host, "job", "cancel", long.ID); !strings.Contains(out, long.ID) {
		t.Fatalf("cancel output:\n%s", out)
	}
	d.waitDone(t, long.ID, 60*time.Second)

	// spool ls reads the on-disk records without the daemon.
	if out := runCtl(t, "spool", "ls", "-dir", d.spool); !strings.Contains(out, st.ID) || !strings.Contains(out, "done") {
		t.Fatalf("spool ls output:\n%s", out)
	}
	if out := runCtl(t, host, "metrics"); !strings.Contains(out, "mcmcd_job_duration_seconds") {
		t.Fatalf("metrics output:\n%s", out)
	}
}
