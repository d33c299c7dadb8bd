package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Config configures a Manager.
type Config struct {
	// Workers bounds concurrently running jobs (default 2). Each job's
	// own options.workers additionally bounds its internal parallelism.
	Workers int
	// QueueSize bounds jobs waiting to run (default 16); submissions
	// beyond it fail with ErrQueueFull, which the API maps to 429.
	QueueSize int
	// SpoolDir enables durability: per-job subdirectories holding the
	// input, options, periodic checkpoints and the final result. Empty
	// disables spooling.
	SpoolDir string
	// BaseSeed seeds the per-job derivation for submissions that leave
	// options.seed zero (default 1).
	BaseSeed uint64
	// CheckpointEvery is the approximate number of chain iterations
	// between spooled checkpoints (default 25000). Ignored without a
	// SpoolDir.
	CheckpointEvery int
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
	// Role names the process role this manager serves under
	// ("standalone" default, "coordinator"); surfaced in /v1/version so
	// clients and operators can tell what they are talking to.
	Role string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25000
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Role == "" {
		c.Role = "standalone"
	}
	return c
}

// Submission errors, mapped to HTTP statuses by the API layer.
var (
	// ErrQueueFull reports that the pending queue is at capacity (429).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrStopped reports that the manager is shutting down (503).
	ErrStopped = errors.New("service: manager is stopped")
	// errNotFound reports an unknown job id (404).
	errNotFound = errors.New("service: no such job")
)

// Manager owns the job lifecycle: a bounded pending queue feeding a
// worker pool that drives parmcmc detections, with spool-backed
// durability and crash recovery. Construct with NewManager; always
// Stop it.
type Manager struct {
	cfg  Config
	pool *sched.Pool

	queue        chan *Job
	ctx          context.Context
	cancelRun    context.CancelFunc
	dispatchDone chan struct{}

	// external marks a manager whose jobs are run by external workers
	// through a Remote (see NewExternal) instead of the in-process
	// dispatcher; it changes only what recovery retains (checkpoint
	// blobs for lease grants), never the job lifecycle.
	external bool

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    uint64
	closed bool

	metricsMu    sync.Mutex
	extraMetrics []func(io.Writer)

	started    time.Time
	itersTotal atomic.Int64
	tel        *telemetry

	rateMu     sync.Mutex
	lastScrape time.Time
	lastIters  int64
}

// NewManager builds a manager, recovers any spooled jobs (terminal
// jobs are re-exposed read-only; interrupted ones are re-queued from
// their latest checkpoint) and starts the dispatcher.
func NewManager(cfg Config) (*Manager, error) {
	m, err := newManager(cfg, false)
	if err != nil {
		return nil, err
	}
	go m.dispatch()
	return m, nil
}

// NewExternal builds a manager whose jobs are executed by external
// worker processes instead of the in-process pool: nothing dequeues
// jobs except the returned Remote, which a coordinator drains to grant
// leases. Everything else — the /v1 API, the spool, SSE fan-out,
// recovery — behaves exactly as in NewManager.
func NewExternal(cfg Config) (*Manager, *Remote, error) {
	m, err := newManager(cfg, true)
	if err != nil {
		return nil, nil, err
	}
	// No dispatcher: the Remote is the sole consumer of the queue.
	close(m.dispatchDone)
	return m, newRemote(m), nil
}

func newManager(cfg Config, external bool) (*Manager, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:          cfg,
		pool:         sched.NewPool(cfg.Workers),
		external:     external,
		ctx:          ctx,
		cancelRun:    cancel,
		dispatchDone: make(chan struct{}),
		jobs:         make(map[string]*Job),
		started:      time.Now(),
		tel:          newTelemetry(),
	}
	recovered, err := m.recoverSpool()
	if err != nil {
		cancel()
		return nil, err
	}
	// The queue is sized to admit every recovered job on top of the
	// configured bound, so a restart can never lose work to its own
	// backpressure.
	m.queue = make(chan *Job, cfg.QueueSize+len(recovered))
	for _, job := range recovered {
		m.queue <- job
	}
	return m, nil
}

// AddMetrics registers an extra exposition block appended to the
// /metrics response — the coordinator adds its lease/worker gauges
// through it without the metrics handler knowing about roles.
func (m *Manager) AddMetrics(f func(io.Writer)) {
	m.metricsMu.Lock()
	m.extraMetrics = append(m.extraMetrics, f)
	m.metricsMu.Unlock()
}

// Submit validates nothing (its jobSpec is already validated by the
// decoder): it assigns an id and seed, spools the job and enqueues it.
func (m *Manager) Submit(spec *jobSpec) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrStopped
	}
	m.seq++
	id := fmt.Sprintf("job-%08d", m.seq)
	seed := spec.opt.Seed
	if seed == 0 {
		seed = parmcmc.DeriveSeed(m.cfg.BaseSeed, m.seq)
	}
	job := newJob(id, seed, spec, time.Now())
	// The channel's capacity is inflated by recovered jobs (see
	// NewManager); the configured bound is enforced here so the 429
	// contract holds for new submissions even right after a restart.
	if len(m.queue) >= m.cfg.QueueSize {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.mu.Unlock()
	if err := m.spoolRecord(job); err != nil {
		// Durability is best-effort per job: the run proceeds, but a
		// restart would not know about it — say so loudly.
		m.cfg.Logf("service: spooling %s: %v (job will not survive a restart)", id, err)
	}
	return job, nil
}

// Job returns a job by id.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, errNotFound
	}
	return job, nil
}

// Jobs returns all jobs in submission order (recovered jobs first, in
// id order).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job: queued jobs become cancelled immediately,
// running ones stop at their next chunk boundary.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Job(id)
	if err != nil {
		return nil, err
	}
	if job.requestCancel() {
		// Cancelled straight from the queue: record the terminal state.
		if err := m.spoolRecord(job); err != nil {
			m.cfg.Logf("service: spooling %s: %v", id, err)
		}
		job.releaseInput()
	}
	return job, nil
}

// dispatch feeds queued jobs to the worker pool until shutdown. The
// worker slot is acquired before a job leaves the queue: a popped job
// always has a worker, so queue depth is exactly the number of waiting
// jobs and the 429 bound holds strictly.
func (m *Manager) dispatch() {
	defer close(m.dispatchDone)
	for {
		if err := m.pool.Acquire(m.ctx); err != nil {
			return
		}
		select {
		case <-m.ctx.Done():
			m.pool.Release()
			return
		case job := <-m.queue:
			go func() {
				defer m.pool.Release()
				m.run(job)
			}()
		}
	}
}

// run executes one job to a terminal state — unless the manager itself
// is shutting down, in which case the job is left resumable: its spool
// record stays non-terminal and the run checkpoints the chunk boundary
// it stopped at, so the next NewManager over the same spool re-queues
// it and resumes with no work lost.
func (m *Manager) run(job *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	wait, ok := job.claim(cancel)
	if !ok {
		return // cancelled while queued
	}
	m.tel.queueWait.Observe(wait.Seconds())
	opt := job.opt
	// Per-iteration latency is derived from consecutive progress
	// snapshots: chunk wall time over chunk iterations. The observer
	// runs on the job's own goroutine, so the tracking state is local.
	var lastT time.Time
	var lastI int64
	opt.Observer = func(p parmcmc.Progress) {
		now := time.Now()
		if !lastT.IsZero() && p.Iter > lastI {
			m.tel.iterLatency.Observe(now.Sub(lastT).Seconds() / float64(p.Iter-lastI))
		}
		lastT, lastI = now, p.Iter
		m.itersTotal.Add(job.observe(p))
	}
	if m.spooling() {
		opt.OnCheckpoint = func(cp *parmcmc.Checkpoint) {
			// A client's cancel ends the job: its final (drain)
			// checkpoint is dropped. A shutdown keeps it, so the job
			// resumes exactly where it stopped.
			if job.userCancelled() {
				return
			}
			if err := m.spoolCheckpoint(job, cp); err != nil {
				m.cfg.Logf("service: checkpointing %s: %v", job.id, err)
			}
		}
		opt.CheckpointEvery = m.cfg.CheckpointEvery
	}

	pix, w, h, err := job.pixels()
	job.mu.Lock()
	resume := job.resume
	job.mu.Unlock()
	var res *parmcmc.Result
	if err == nil {
		if resume != nil {
			res, err = parmcmc.DetectResume(ctx, pix, w, h, opt, resume)
		} else {
			res, err = parmcmc.DetectContext(ctx, pix, w, h, opt)
		}
	}

	switch {
	case err == nil:
		m.finish(job, res)
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		if job.userCancelled() {
			m.terminate(job, api.StateCancelled, "cancelled")
		}
		// else: daemon shutdown — leave the job resumable.
	default:
		m.terminate(job, api.StateFailed, err.Error())
	}
}

// finish lands a successful result.
func (m *Manager) finish(job *Job, res *parmcmc.Result) {
	m.itersTotal.Add(job.accountIters(res.Iterations))
	view := api.NewResultView(res)
	raw, err := json.Marshal(view)
	if err != nil {
		m.terminate(job, api.StateFailed, fmt.Sprintf("encoding result: %v", err))
		return
	}
	ran, ok := job.finishTerminal(api.StateDone, raw, "")
	if !ok {
		return
	}
	m.tel.jobDuration.Observe(ran.Seconds())
	if err := m.spoolResult(job, raw); err != nil {
		m.cfg.Logf("service: spooling result of %s: %v", job.id, err)
	}
	job.releaseInput()
	job.publish("state", job.Status())
}

// terminate lands a failure or cancellation.
func (m *Manager) terminate(job *Job, state api.JobState, msg string) {
	ran, ok := job.finishTerminal(state, nil, msg)
	if !ok {
		return
	}
	if ran > 0 {
		m.tel.jobDuration.Observe(ran.Seconds())
	}
	if err := m.spoolRecord(job); err != nil {
		m.cfg.Logf("service: spooling %s: %v", job.id, err)
	}
	job.releaseInput()
	job.publish("state", job.Status())
}

// Stop shuts the manager down: no new submissions, running jobs are
// interrupted at their next chunk boundary and checkpointed there (their
// spool state stays resumable), and the call waits — bounded by ctx —
// for in-flight workers to drain via the pool's quiesce hook.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancelRun()
	<-m.dispatchDone
	return m.pool.Quiesce(ctx)
}

// stopping is closed when Stop begins; long-lived handlers (SSE
// streams) select on it so an http.Server.Shutdown can drain even with
// watchers attached to jobs that will never reach a terminal state.
func (m *Manager) stopping() <-chan struct{} { return m.ctx.Done() }

// Uptime reports how long the manager has been running.
func (m *Manager) Uptime() time.Duration { return time.Since(m.started) }

// CheckpointInterval reports the resolved checkpoint cadence — lease
// grants ship it so workers spool at the coordinator's configured
// rate.
func (m *Manager) CheckpointInterval() int { return m.cfg.CheckpointEvery }

// SpoolDir reports the resolved spool directory ("" when durability is
// off).
func (m *Manager) SpoolDir() string { return m.cfg.SpoolDir }

// QueueDepth returns (pending-in-queue, capacity).
func (m *Manager) QueueDepth() (int, int) { return len(m.queue), cap(m.queue) }

// StateCounts returns the number of jobs per state.
func (m *Manager) StateCounts() map[api.JobState]int {
	counts := make(map[api.JobState]int, 5)
	for _, job := range m.Jobs() {
		job.mu.Lock()
		counts[job.state]++
		job.mu.Unlock()
	}
	return counts
}

// iterRate returns aggregate iterations/second measured between
// consecutive calls (metrics scrapes); the first call reports the
// lifetime average.
func (m *Manager) iterRate() float64 {
	total := m.itersTotal.Load()
	now := time.Now()
	m.rateMu.Lock()
	defer m.rateMu.Unlock()
	var rate float64
	if m.lastScrape.IsZero() {
		if up := now.Sub(m.started).Seconds(); up > 0 {
			rate = float64(total) / up
		}
	} else if dt := now.Sub(m.lastScrape).Seconds(); dt > 0 {
		rate = float64(total-m.lastIters) / dt
	}
	m.lastScrape = now
	m.lastIters = total
	return rate
}

// sortJobsByID orders recovered jobs deterministically.
func sortJobsByID(jobs []*Job) {
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
}
