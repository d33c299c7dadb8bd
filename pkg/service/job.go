package service

import (
	"encoding/json"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// event is one SSE payload broadcast to a job's subscribers.
type event struct {
	name string
	data []byte
}

// convWindow bounds the per-job ring of streamed log-posterior samples
// the diag endpoint computes R̂/ESS over; the ring grows to it on
// demand, so a short job holds only the samples it streamed.
const convWindow = 1024

// Job is one queued or running detection. All mutable fields are
// guarded by mu.
type Job struct {
	// spoolMu serializes this job's spool-record writes (Submit's
	// pending record vs the worker's terminal record).
	spoolMu sync.Mutex

	mu sync.Mutex
	// rec is the job: its durable record (the spool's job.json and a
	// lease grant's Record), whose State and Error are the job's state
	// and error. Its ID and Seed are fixed at construction, so ID and
	// Seed read them without the lock.
	rec api.JobRecord
	// input is the raw upload (nil for a scene job), held until the job
	// is terminal — never the decoded raster, which each run decodes
	// again — so a daemon does not retain every upload for the life of
	// the process: the spool keeps the bytes.
	input []byte
	// resume, when non-nil, is the spooled checkpoint (its exact bytes,
	// already checked to parse) the job's next run continues from: set
	// at recovery for interrupted jobs, and at re-lease (Remote.Requeue)
	// for jobs whose worker died.
	resume []byte
	// restarted marks a job recovered or re-leased without a usable
	// checkpoint: its prior iterations are lost and the run starts
	// over from zero. Exposed on the wire (JobStatus.Restarted) so
	// streaming clients rewind their progress watermark instead of
	// suppressing the whole re-run.
	restarted bool
	// worker is the ID of the worker holding the job's lease
	// (coordinator role only; empty standalone, while queued, and
	// after a re-lease until the next grant).
	worker          string
	started         time.Time
	finished        time.Time
	progress        *parmcmc.Progress
	conv            *stats.Stream // streamed log-posterior window for diag
	lastIter        int64
	lastObs         time.Time // when the lastIter snapshot was observed
	resultJSON      json.RawMessage
	cancelRequested bool
	cancel          func()
	subs            map[chan event]struct{}
	done            chan struct{} // closed on entering a terminal state
}

func newJob(rec api.JobRecord, input []byte) *Job {
	return &Job{
		rec: rec, input: input,
		conv: stats.NewStream(convWindow),
		subs: make(map[chan event]struct{}),
		done: make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.rec.ID }

// Seed returns the seed the job runs with (the per-job derived seed
// when the submission left it zero).
func (j *Job) Seed() uint64 { return j.rec.Seed }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// releaseInput drops the raw upload bytes and resume checkpoint.
// Called after the terminal spool writes: the job can never run again
// in this process.
func (j *Job) releaseInput() {
	j.mu.Lock()
	j.input = nil
	j.resume = nil
	j.mu.Unlock()
}

// claimFor moves a pending job to running under the named worker
// (standalone runs pass ""); it fails when the job was cancelled while
// queued. On success it returns the time the job spent queued (for the
// queue-wait histogram).
func (j *Job) claimFor(worker string, cancel func()) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != api.StatePending {
		return 0, false
	}
	j.rec.State = api.StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.worker = worker
	j.publishLocked("state", j.statusLocked())
	return j.started.Sub(j.rec.Submitted), true
}

// finishTerminal moves the job to a terminal state. resultJSON may be
// nil (failed/cancelled). Idempotent: only the first call wins. On the
// first call it returns the job's start→terminal wall clock (zero for
// jobs that never ran).
func (j *Job) finishTerminal(state api.JobState, resultJSON json.RawMessage, errMsg string) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State.Terminal() {
		return 0, false
	}
	j.rec.State = state
	j.resultJSON = resultJSON
	j.rec.Error = errMsg
	j.finished = time.Now()
	close(j.done)
	var ran time.Duration
	if !j.started.IsZero() {
		ran = j.finished.Sub(j.started)
	}
	return ran, true
}

// requestCancel cancels a pending job outright, or asks a running one
// to stop at its next chunk boundary. Terminal jobs are untouched.
// Returns whether the job moved to cancelled synchronously.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.rec.State {
	case api.StatePending:
		j.rec.State = api.StateCancelled
		// Same wire contract as a running job cancelled mid-run (see
		// Remote.Complete): the queued path must not report an empty
		// Error for the same outcome.
		j.rec.Error = "cancelled"
		j.finished = time.Now()
		close(j.done)
		j.publishLocked("state", j.statusLocked())
		return true
	case api.StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return false
}

func (j *Job) userCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// observe records a progress snapshot taken at now. It returns the
// iteration delta since the previous snapshot (for the manager's
// aggregate counters) and the wall time per iteration between the two
// (0 for a run's first snapshot). Each finite log-posterior sample also
// feeds the job's convergence window.
func (j *Job) observe(p parmcmc.Progress, now time.Time) (delta int64, perIter float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.lastObs.IsZero() && p.Iter > j.lastIter {
		perIter = now.Sub(j.lastObs).Seconds() / float64(p.Iter-j.lastIter)
	}
	j.lastObs = now
	j.progress = &p
	if !math.IsNaN(p.LogPost) && !math.IsInf(p.LogPost, 0) {
		j.conv.Add(p.LogPost)
	}
	delta = j.accountItersLocked(p.Iter)
	j.publishLocked("progress", api.NewProgressEvent(p))
	return delta, perIter
}

// accountIters advances the job's iteration watermark and returns the
// delta this process actually performed. The first snapshot of a
// checkpoint-resumed job establishes the baseline instead — its Iter
// already includes every pre-crash iteration, which must not re-enter
// the aggregate counters.
func (j *Job) accountIters(iter int64) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.accountItersLocked(iter)
}

func (j *Job) accountItersLocked(iter int64) int64 {
	if j.resume != nil && j.lastIter == 0 {
		j.lastIter = iter
		return 0
	}
	delta := iter - j.lastIter
	j.lastIter = iter
	return delta
}

// subscribe registers an SSE subscriber. Progress events are dropped
// when the subscriber's buffer is full (snapshots are self-contained);
// the terminal event is delivered via Done instead, so it cannot be
// lost.
func (j *Job) subscribe(buf int) chan event {
	ch := make(chan event, buf)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish broadcasts an event to all subscribers.
func (j *Job) publish(name string, v any) {
	j.mu.Lock()
	j.publishLocked(name, v)
	j.mu.Unlock()
}

func (j *Job) publishLocked(name string, v any) {
	if len(j.subs) == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	ev := event{name: name, data: data}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, the next snapshot supersedes
		}
	}
}

// Status returns the job's wire representation.
func (j *Job) Status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() api.JobStatus {
	v := api.JobStatus{
		ID:        j.rec.ID,
		State:     j.rec.State,
		Strategy:  j.rec.Options.Strategy,
		Seed:      j.rec.Seed,
		Submitted: j.rec.Submitted,
		Result:    j.resultJSON,
		Error:     j.rec.Error,
		Restarted: j.restarted,
		Worker:    j.worker,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.progress != nil {
		v.Progress = api.NewProgressEvent(*j.progress)
	}
	return v
}

// jobSpecTelemetry is one running job's speculative-executor telemetry.
type jobSpecTelemetry struct {
	id      string
	width   int
	speedup float64
}

// specTelemetry returns the speculative-executor telemetry of the
// job's latest progress snapshot; ok is false unless the job is running
// and has reported a speculation width (non-speculative strategies, or
// no progress yet). The metrics endpoint exports these as per-job
// gauges.
func (j *Job) specTelemetry() (t jobSpecTelemetry, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != api.StateRunning || j.progress == nil || j.progress.SpecWidth == 0 {
		return t, false
	}
	return jobSpecTelemetry{id: j.rec.ID, width: j.progress.SpecWidth, speedup: j.progress.SpecSpeedup}, true
}

// Diag returns the job's chain diagnostics: the latest progress
// snapshot, streaming split-R̂/ESS over the recent log-posterior
// window, and — once the job is done — the result-level acceptance
// and swap rates plus per-region convergence.
func (j *Job) Diag() api.DiagView {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := api.DiagView{
		ID:       j.rec.ID,
		State:    j.rec.State,
		Strategy: j.rec.Options.Strategy,
		Shape:    j.rec.Options.Shape,
		Seed:     j.rec.Seed,
		Samples:  j.conv.Len(),
		RHat:     api.Float(j.conv.RHat()),
		ESS:      api.Float(j.conv.ESS()),
		Error:    j.rec.Error,
	}
	if j.progress != nil {
		d.Progress = api.NewProgressEvent(*j.progress)
		d.SpecWidth = j.progress.SpecWidth
		d.SpecSpeedup = api.Float(j.progress.SpecSpeedup)
	}
	if j.rec.State == api.StateDone && len(j.resultJSON) > 0 {
		var rv api.ResultView
		if err := json.Unmarshal(j.resultJSON, &rv); err == nil {
			d.AcceptRate = rv.AcceptRate
			d.GlobalRejectRate = rv.GlobalRejectRate
			d.LocalRejectRate = rv.LocalRejectRate
			d.SwapRate = rv.SwapRate
			d.Regions = rv.Regions
		}
	}
	return d
}
