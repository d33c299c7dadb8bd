package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Remote is a manager's execution seam, consumed by the standalone
// executor (NewManager) and by the coordinator (NewExternal) alike:
// either drains runnable jobs from it, reports progress into it, and
// hands back terminal outcomes — the coordinator also expired leases.
// It owns no policy — leases, heartbeats and expiry live in the
// coordinator; Remote only keeps the Manager's job bookkeeping
// (states, SSE fan-out, spool, metrics), the same whichever process
// ran the chain.
type Remote struct {
	m *Manager

	mu sync.Mutex
	// requeued holds jobs whose lease expired, consulted before the
	// bounded submit queue: a re-leased job must never compete with new
	// submissions for queue capacity (or be lost to backpressure).
	requeued []*Job
	wake     chan struct{} // closed and replaced whenever requeued grows
}

func newRemote(m *Manager) *Remote {
	return &Remote{m: m, wake: make(chan struct{})}
}

// Next blocks for the next runnable job: an expired-lease requeue
// first, else the submit queue. It returns ErrStopped once the manager
// shuts down, or ctx.Err when the caller gives up (the long-poll
// window).
func (r *Remote) Next(ctx context.Context) (*Job, error) {
	for {
		r.mu.Lock()
		if len(r.requeued) > 0 {
			job := r.requeued[0]
			r.requeued = r.requeued[1:]
			r.mu.Unlock()
			return job, nil
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-r.m.ctx.Done():
			return nil, ErrStopped
		case job := <-r.m.queue:
			return job, nil
		case <-wake:
			// A requeue landed; loop to pick it up.
		}
	}
}

// Describe returns what a lease grant ships: the job's durable record,
// the checkpoint bytes to resume from (nil = scratch) and whether this
// run is a flagged scratch restart.
func (r *Remote) Describe(job *Job) (rec api.JobRecord, checkpoint []byte, restarted bool) {
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.rec, job.resume, job.restarted
}

// Start claims the job for a worker ("" for the standalone executor);
// false means the job is no longer pending (cancelled while queued) and
// the caller should run another job instead.
func (r *Remote) Start(job *Job, workerID string, cancel func()) bool {
	wait, ok := job.claimFor(workerID, cancel)
	if !ok {
		return false
	}
	r.m.tel.queueWait.Observe(wait.Seconds())
	return true
}

// Observe feeds one worker-reported progress snapshot into the job:
// SSE fan-out, convergence window, aggregate iteration counters and
// per-iteration latency.
func (r *Remote) Observe(job *Job, ev api.ProgressEvent) { r.observe(job, ev.ToParmcmc()) }

// observe is Observe for a chain running in this process: the
// executor's Observer hands over its snapshot without the wire form.
func (r *Remote) observe(job *Job, p parmcmc.Progress) {
	delta, perIter := job.observe(p, time.Now())
	if perIter > 0 {
		r.m.tel.iterLatency.Observe(perIter)
	}
	r.m.itersTotal.Add(delta)
}

// Complete lands a run's terminal outcome, reported by a worker or by
// the standalone executor. A successful result arrives as RunChain's
// already-encoded ResultView and is stored byte-for-byte — the
// bit-identical contract extends across the wire. An errMsg of
// "cancelled" (or any error after a client cancellation) terminates the
// job as cancelled; other errors as failed.
func (r *Remote) Complete(job *Job, result json.RawMessage, errMsg string) {
	if errMsg != "" || len(result) == 0 {
		state := api.StateFailed
		if job.userCancelled() || errMsg == "cancelled" {
			state, errMsg = api.StateCancelled, "cancelled"
		} else if errMsg == "" {
			errMsg = "worker reported no result"
		}
		r.m.terminate(job, state, nil, errMsg)
		return
	}
	// Account the final iteration count the result reports.
	var v struct {
		Iterations int64 `json:"iterations"`
	}
	if json.Unmarshal(result, &v) == nil {
		r.m.itersTotal.Add(job.accountIters(v.Iterations))
	}
	r.m.terminate(job, api.StateDone, result, "")
}

// Requeue returns an expired lease's job to the runnable set, resuming
// from its latest spooled checkpoint when one parses (the common case)
// or from scratch with Restarted flagged (no checkpoint yet, or a
// corrupt one). A job whose cancellation was requested while leased
// terminates as cancelled instead — its client asked for it to stop,
// not to run again. Safe against the dead worker's last checkpoint
// write racing in: every checkpoint of the same (options, seed) chain
// is a state of the same trajectory, so whichever version the read
// sees resumes to the bit-identical result.
func (r *Remote) Requeue(job *Job) {
	if job.userCancelled() {
		r.m.terminate(job, api.StateCancelled, nil, "cancelled")
		return
	}
	blob := r.m.readCheckpoint(job.ID())
	job.mu.Lock()
	if job.rec.State != api.StateRunning {
		// Terminal (or never started) — nothing to re-lease.
		job.mu.Unlock()
		return
	}
	job.rec.State = api.StatePending
	job.started = time.Time{}
	job.cancel = nil
	job.worker = ""
	// Reset the iteration watermark so the next run's first snapshot
	// re-baselines (resume) or counts from zero (scratch), and opens a
	// fresh latency interval.
	job.lastIter, job.lastObs = 0, time.Time{}
	job.resume, job.restarted = blob, blob == nil
	// Tell live SSE watchers: pending again, and — on a scratch
	// restart — Restarted, so they rewind their progress watermark.
	job.publishLocked("state", job.statusLocked())
	job.mu.Unlock()

	r.mu.Lock()
	r.requeued = append(r.requeued, job)
	close(r.wake)
	r.wake = make(chan struct{})
	r.mu.Unlock()
}
