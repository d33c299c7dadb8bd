package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
	"repro/pkg/service"
)

// Config configures a Worker.
type Config struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// SpoolDir is the shared spool — the same directory the
	// coordinator runs over. Inputs are read from it and checkpoints
	// written into it.
	SpoolDir string
	// Slots is how many jobs this worker runs concurrently (default 1).
	Slots int
	// Name labels the worker in `mcmcctl node ls` (default hostname).
	Name string
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// OnRegister, when set, observes every successful registration —
	// cmd/mcmcd prints its readiness line from it, and tests hook it.
	OnRegister func(api.WorkerIdentity)
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.Name == "" {
		if host, err := os.Hostname(); err == nil {
			c.Name = host
		} else {
			c.Name = "worker"
		}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// errLeaseExpired marks a run abandoned because the coordinator
// rejected its lease: the job belongs to someone else now.
var errLeaseExpired = errors.New("worker: lease expired")

// Worker leases jobs from a coordinator and runs them. Construct with
// New, drive with Run.
type Worker struct {
	cfg Config
	hc  *http.Client

	mu sync.Mutex
	id api.WorkerIdentity
	// running maps live lease IDs to their cancel hooks, so heartbeat
	// acks can stop cancelled runs at the next chunk boundary.
	running map[string]context.CancelFunc
}

// New builds a worker; it talks to no one until Run.
func New(cfg Config) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return nil, errors.New("worker: Coordinator URL is required")
	}
	if cfg.SpoolDir == "" {
		return nil, errors.New("worker: SpoolDir is required (the coordinator's shared spool)")
	}
	return &Worker{
		cfg: cfg,
		// No overall timeout: the lease long-poll is legitimately slow.
		hc:      &http.Client{},
		running: make(map[string]context.CancelFunc),
	}, nil
}

// Run registers with the coordinator and works until ctx is cancelled:
// one heartbeat loop plus Slots lease loops. It returns ctx.Err on
// shutdown — registration and transient coordinator outages are
// retried forever, because a stateless worker has nothing better to do
// than wait for its control plane.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.cfg.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.leaseLoop(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// identity returns the current registration.
func (w *Worker) identity() api.WorkerIdentity {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// register (re-)registers with backoff until it succeeds or ctx ends.
func (w *Worker) register(ctx context.Context) error {
	backoff := 250 * time.Millisecond
	for {
		var id api.WorkerIdentity
		status, _, err := w.do(ctx, api.InternalPrefix+"/workers",
			api.WorkerRegistration{Name: w.cfg.Name, Slots: w.cfg.Slots}, &id)
		if err == nil && status == http.StatusCreated {
			w.mu.Lock()
			w.id = id
			w.mu.Unlock()
			w.cfg.Logf("worker: registered as %s (heartbeat %gs, lease ttl %gs)",
				id.ID, id.HeartbeatSeconds, id.LeaseTTLSeconds)
			if w.cfg.OnRegister != nil {
				w.cfg.OnRegister(id)
			}
			return nil
		}
		if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		w.cfg.Logf("worker: registration failed (%v), retrying in %v", err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// heartbeatLoop beats at the coordinator-assigned cadence. An
// unknown_worker answer means the coordinator forgot us (restart):
// re-register under a fresh ID; runs under old leases die at their
// next progress report. Cancel signals in the ack stop the named runs.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		id := w.identity()
		interval := time.Duration(id.HeartbeatSeconds * float64(time.Second))
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		var ack api.HeartbeatAck
		status, env, err := w.do(ctx, api.InternalPrefix+"/workers/"+id.ID+"/heartbeat", struct{}{}, &ack)
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			w.cfg.Logf("worker: heartbeat: %v (coordinator down? retrying)", err)
		case status == http.StatusNotFound && env != nil && env.Code == api.CodeUnknownWorker:
			w.cfg.Logf("worker: coordinator forgot %s; re-registering", id.ID)
			if err := w.register(ctx); err != nil {
				return
			}
		case status != http.StatusOK:
			w.cfg.Logf("worker: heartbeat: unexpected status %d", status)
		default:
			for _, leaseID := range ack.CancelledLeases {
				w.stopRun(leaseID)
			}
		}
	}
}

// leaseLoop drives one slot: long-poll a lease, run it, repeat.
func (w *Worker) leaseLoop(ctx context.Context) {
	backoff := 250 * time.Millisecond
	for ctx.Err() == nil {
		id := w.identity()
		var grant api.LeaseGrant
		status, env, err := w.do(ctx, api.InternalPrefix+"/leases", api.LeaseRequest{WorkerID: id.ID}, &grant)
		switch {
		case err == nil && status == http.StatusOK:
			// A decoded grant runs even when ctx ended meanwhile: the
			// coordinator already counts the job as running, and the
			// run drains at once, spooling its stop point, while the
			// lease expires for re-lease.
			backoff = 250 * time.Millisecond
			w.runLease(ctx, grant)
			continue
		case ctx.Err() != nil:
			return
		case err == nil && status == http.StatusNoContent:
			backoff = 250 * time.Millisecond
			continue // empty poll window; ask again
		case err == nil && status == http.StatusNotFound && env != nil && env.Code == api.CodeUnknownWorker:
			// The heartbeat loop re-registers; wait for the fresh ID.
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
		default:
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			w.cfg.Logf("worker: lease poll: %v, retrying in %v", err, backoff)
			select {
			case <-ctx.Done():
			case <-time.After(backoff):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
		}
	}
}

// stopRun cancels the named run (client cancellation or abandonment).
func (w *Worker) stopRun(leaseID string) {
	w.mu.Lock()
	cancel := w.running[leaseID]
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runLease executes one granted job: materialise from the shared
// spool, resume from the granted checkpoint if any, write new
// checkpoints, stream progress, and report the terminal outcome.
func (w *Worker) runLease(ctx context.Context, grant api.LeaseGrant) {
	lease := grant.Lease
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.running[lease.ID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.running, lease.ID)
		w.mu.Unlock()
	}()

	w.cfg.Logf("worker: lease %s: running %s (resume %v, restarted %v)",
		lease.ID, lease.JobID, len(grant.Checkpoint) > 0, grant.Restarted)

	raw, runErr := w.detect(ctx, runCtx, grant)
	switch {
	case errors.Is(runErr, errLeaseExpired):
		// The job is someone else's now; report nothing.
		w.cfg.Logf("worker: lease %s expired under us; run abandoned", lease.ID)
		return
	case runErr != nil && runCtx.Err() != nil && ctx.Err() != nil:
		// Whole-worker shutdown (SIGTERM): leave the job resumable —
		// the run checkpointed where it stopped and the lease will
		// expire.
		w.cfg.Logf("worker: shutdown interrupted %s; checkpoint stays for re-lease", lease.JobID)
		return
	}
	report := api.CompleteReport{WorkerID: lease.WorkerID}
	switch {
	case runErr == nil:
		report.Result = raw
	case runCtx.Err() != nil && errors.Is(runErr, runCtx.Err()):
		// Stopped by a cancel signal: the client cancelled the job.
		report.Error = "cancelled"
	default:
		report.Error = runErr.Error()
	}
	w.complete(ctx, lease, report)
}

// detect runs the chain under the lease's ctx through service.RunChain,
// resuming from the granted checkpoint if any. It returns
// errLeaseExpired when the coordinator disowned the lease mid-run.
// workerCtx is the whole worker's, RunChain's drain context: when it
// ends, the run drains and its last checkpoint is written; a run
// stopped by a client's cancel while workerCtx is live, or by a lost
// lease at any time (abandon cancels runCtx with errLeaseExpired as its
// cause), writes none, so it never overwrites the re-leased copy's
// checkpoints.
func (w *Worker) detect(workerCtx, ctx context.Context, grant api.LeaseGrant) (json.RawMessage, error) {
	pix, width, height, opt, err := service.MaterializeRecord(grant.Record, w.cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	runCtx, abandon := context.WithCancelCause(ctx)
	defer abandon(nil)

	opt.CheckpointEvery = grant.CheckpointEvery
	opt.Observer = func(p parmcmc.Progress) {
		var ack api.ProgressAck
		status, env, perr := w.do(runCtx, api.InternalPrefix+"/leases/"+grant.Lease.ID+"/progress",
			api.ProgressReport{WorkerID: grant.Lease.WorkerID, Progress: *api.NewProgressEvent(p)}, &ack)
		switch {
		case perr != nil:
			// Transient coordinator outage: keep running and
			// checkpointing — liveness is the heartbeat's problem, and
			// a checkpointed run that finishes during an outage still
			// reports its completion with retries.
		case status == http.StatusGone && env != nil && env.Code == api.CodeLeaseExpired:
			abandon(errLeaseExpired)
		case status == http.StatusOK && ack.Cancel:
			w.stopRun(grant.Lease.ID)
		}
	}

	raw, err := service.RunChain(runCtx, workerCtx, grant.Record.ID, pix, width, height, opt,
		grant.Checkpoint, w.cfg.SpoolDir, w.cfg.Logf)
	if context.Cause(runCtx) == errLeaseExpired {
		return nil, errLeaseExpired
	}
	return raw, err
}

// complete reports the terminal outcome, riding out transient
// coordinator outages; a lease_expired answer means the re-leased copy
// owns the job and this result is discarded.
func (w *Worker) complete(ctx context.Context, lease api.Lease, report api.CompleteReport) {
	backoff := 250 * time.Millisecond
	for attempt := 0; attempt < 120; attempt++ {
		status, env, err := w.do(ctx, api.InternalPrefix+"/leases/"+lease.ID+"/complete", report, nil)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil && status == http.StatusNoContent:
			w.cfg.Logf("worker: lease %s: %s complete", lease.ID, lease.JobID)
			return
		case err == nil && status == http.StatusGone && env != nil && env.Code == api.CodeLeaseExpired:
			w.cfg.Logf("worker: lease %s expired before completion; result discarded", lease.ID)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
	w.cfg.Logf("worker: giving up completing lease %s (%s)", lease.ID, lease.JobID)
}

// do POSTs in as JSON and decodes a 2xx response into out (when
// non-nil) or a non-2xx body into the returned envelope.
func (w *Worker) do(ctx context.Context, path string, in, out any) (int, *api.ErrorEnvelope, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode >= 300 {
		var env api.ErrorEnvelope
		if json.Unmarshal(blob, &env) == nil && env.Code != "" {
			env.Status = resp.StatusCode
			return resp.StatusCode, &env, nil
		}
		return resp.StatusCode, nil, nil
	}
	if out != nil && len(blob) > 0 {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, nil, err
		}
	}
	return resp.StatusCode, nil, nil
}
