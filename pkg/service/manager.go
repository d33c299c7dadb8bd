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

// Manager owns the job lifecycle: a bounded pending queue, spool-backed
// durability and crash recovery, and the Remote seam its jobs are run
// through — by an in-process executor (NewManager) or by leased
// workers (NewExternal). Always Stop it.
type Manager struct {
	cfg  Config
	pool *sched.Pool

	queue     chan *Job
	ctx       context.Context
	cancelRun context.CancelFunc
	// executed is closed once the in-process executor has exited; nil
	// under NewExternal, which runs none.
	executed chan struct{}

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
// their latest checkpoint) and starts its executor, which runs the
// jobs in-process through the same Remote a coordinator leases from.
func NewManager(cfg Config) (*Manager, error) {
	m, r, err := NewExternal(cfg)
	if err != nil {
		return nil, err
	}
	m.executed = make(chan struct{})
	go m.execute(r)
	return m, nil
}

// NewExternal builds a manager whose jobs are executed by external
// worker processes instead of the in-process pool: nothing dequeues
// jobs except the returned Remote, which a coordinator drains to grant
// leases. Everything else — the /v1 API, the spool, SSE fan-out,
// recovery — behaves exactly as in NewManager.
func NewExternal(cfg Config) (*Manager, *Remote, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		pool:      sched.NewPool(cfg.Workers),
		ctx:       ctx,
		cancelRun: cancel,
		jobs:      make(map[string]*Job),
		started:   time.Now(),
		tel:       newTelemetry(),
	}
	recovered, err := m.recoverSpool()
	if err != nil {
		cancel()
		return nil, nil, err
	}
	// The queue is sized to admit every recovered job on top of the
	// configured bound, so a restart can never lose work to its own
	// backpressure.
	m.queue = make(chan *Job, cfg.QueueSize+len(recovered))
	for _, job := range recovered {
		m.queue <- job
	}
	return m, newRemote(m), nil
}

// AddMetrics registers an extra exposition block appended to the
// /metrics response — the coordinator adds its lease/worker gauges
// through it without the metrics handler knowing about roles.
func (m *Manager) AddMetrics(f func(io.Writer)) {
	m.metricsMu.Lock()
	m.extraMetrics = append(m.extraMetrics, f)
	m.metricsMu.Unlock()
}

// Submit validates nothing (its record is the decoder's, already
// validated): it completes the record — an id, the seed (derived when
// the submission left it zero), the pending state and the submit time
// — spools the job and enqueues it. input is the raw upload, nil for a
// scene job.
func (m *Manager) Submit(rec api.JobRecord, input []byte) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrStopped
	}
	m.seq++
	rec.ID = fmt.Sprintf("job-%08d", m.seq)
	if rec.Seed == 0 {
		rec.Seed = parmcmc.DeriveSeed(m.cfg.BaseSeed, m.seq)
	}
	rec.Options.Seed = rec.Seed
	rec.State, rec.Submitted = api.StatePending, time.Now()
	job := newJob(rec, input)
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
	m.jobs[rec.ID] = job
	m.order = append(m.order, rec.ID)
	m.mu.Unlock()
	if err := m.spoolRecord(job); err != nil {
		// Durability is best-effort per job: the run proceeds, but a
		// restart would not know about it — say so loudly.
		m.cfg.Logf("service: spooling %s: %v (job will not survive a restart)", rec.ID, err)
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
		// Cancelled straight from the queue: record the terminal state,
		// which also drops the checkpoint a recovered job resumes from.
		if err := m.spoolRecord(job); err != nil {
			m.cfg.Logf("service: spooling %s: %v", id, err)
		}
		job.releaseInput()
	}
	return job, nil
}

// execute is the standalone executor: it takes jobs from r exactly as
// a coordinator's lease handler does and runs each in-process. The pool
// slot is acquired before a job leaves the queue: a taken job always
// has a worker, so queue depth is exactly the number of waiting jobs
// and the 429 bound holds strictly.
func (m *Manager) execute(r *Remote) {
	defer close(m.executed)
	for m.pool.Acquire(m.ctx) == nil {
		job, err := r.Next(m.ctx)
		if err != nil {
			m.pool.Release()
			return
		}
		go func() {
			defer m.pool.Release()
			m.runLocal(r, job)
		}()
	}
}

// runLocal runs one job from its record and in-memory input and lands
// the outcome through r — unless the manager is shutting down and the
// client did not cancel first. Then it lands nothing: the spool record
// stays non-terminal and RunChain has checkpointed the stop point, so
// the next manager over the same spool resumes the job with no work
// lost.
func (m *Manager) runLocal(r *Remote, job *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	if !r.Start(job, "", cancel) {
		return // cancelled while queued
	}
	job.mu.Lock()
	rec, input, checkpoint := job.rec, job.input, job.resume
	job.mu.Unlock()
	raw, err := RunChain(ctx, m.ctx, rec, input, checkpoint, m.cfg.CheckpointEvery,
		func(p parmcmc.Progress) { r.observe(job, p) }, m.cfg.SpoolDir, m.cfg.Logf)
	switch {
	case err == nil:
		r.Complete(job, raw, "")
	case m.ctx.Err() != nil && errors.Is(err, m.ctx.Err()) && !job.userCancelled():
		// A shutdown: land nothing, so the job stays resumable.
	default:
		r.Complete(job, nil, err.Error()) // a client's cancel lands as "cancelled"
	}
}

// terminate lands a job's terminal state for either role — done with
// its encoded result, or failed or cancelled with msg: the duration
// histogram, the terminal spool record (which drops the checkpoint),
// the input release and the SSE state event.
func (m *Manager) terminate(job *Job, state api.JobState, result json.RawMessage, msg string) {
	ran, ok := job.finishTerminal(state, result, msg)
	if !ok {
		return
	}
	if ran > 0 {
		m.tel.jobDuration.Observe(ran.Seconds())
	}
	if err := m.spoolRecord(job); err != nil {
		m.cfg.Logf("service: spooling %s: %v", job.ID(), err)
	}
	job.releaseInput()
	job.publish("state", job.Status())
}

// Stop shuts the manager down: no new submissions, running jobs are
// interrupted at their next chunk boundary and checkpointed there (their
// spool state stays resumable), and the call waits — bounded by ctx —
// for the executor's in-flight runs to drain via the pool's quiesce
// hook.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancelRun()
	if m.executed != nil {
		<-m.executed
	}
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
		counts[job.rec.State]++
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
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID() < jobs[b].ID() })
}
