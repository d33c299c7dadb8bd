package service

import (
	"encoding/json"
	"errors"
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
// guarded by mu; the input (scene/upload bytes/decoded pixels), seed
// and options are immutable after construction.
type Job struct {
	id   string
	seed uint64
	spec api.OptionsSpec
	opt  parmcmc.Options // resolved, Seed set to seed

	// scene/ext are immutable; input and pix are released (under mu)
	// once the job is terminal — the spool keeps the bytes, so a
	// daemon that has served many uploads does not retain every pixel
	// buffer for the life of the process.
	scene *api.SceneSpec
	input []byte
	ext   string
	pix   []float64
	w, h  int

	// spoolMu serializes this job's spool-record writes (Submit's
	// pending record vs the worker's terminal record).
	spoolMu sync.Mutex

	mu sync.Mutex
	// resume, when non-nil, is the spooled checkpoint the job's next
	// run continues from: set at recovery for interrupted jobs, and at
	// re-lease (Remote.Requeue) for jobs whose worker died.
	resume *parmcmc.Checkpoint
	// resumeBlob is resume's encoded form, retained only under an
	// external manager: lease grants ship the exact spooled bytes to
	// the worker instead of re-encoding.
	resumeBlob []byte
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
	state           api.JobState
	submitted       time.Time
	started         time.Time
	finished        time.Time
	progress        *parmcmc.Progress
	conv            *stats.Stream // streamed log-posterior window for diag
	lastIter        int64
	resultJSON      json.RawMessage
	errMsg          string
	cancelRequested bool
	cancel          func()
	subs            map[chan event]struct{}
	done            chan struct{} // closed on entering a terminal state
}

func newJob(id string, seed uint64, spec *jobSpec, submitted time.Time) *Job {
	opt := spec.opt
	opt.Seed = seed
	wireSpec := spec.spec
	wireSpec.Seed = seed
	return &Job{
		id: id, seed: seed, spec: wireSpec, opt: opt,
		scene: spec.scene, input: spec.input, ext: spec.ext,
		pix: spec.pix, w: spec.w, h: spec.h,
		state: api.StatePending, submitted: submitted,
		conv: stats.NewStream(convWindow),
		subs: make(map[chan event]struct{}),
		done: make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Seed returns the seed the job runs with (the per-job derived seed
// when the submission left it zero).
func (j *Job) Seed() uint64 { return j.seed }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// pixels materialises the job's input image: the decoded upload, or
// the deterministic synthesis of its scene spec.
func (j *Job) pixels() ([]float64, int, int, error) {
	j.mu.Lock()
	pix, w, h := j.pix, j.w, j.h
	j.mu.Unlock()
	if pix != nil {
		return pix, w, h, nil
	}
	if j.scene != nil {
		ps, err := j.scene.ToParmcmc()
		if err != nil {
			// The decoder canonicalised the shape name at submit time, so
			// this can only mean a corrupted spool record.
			return nil, 0, 0, err
		}
		spix, _ := parmcmc.GenerateScene(ps)
		return spix, j.scene.W, j.scene.H, nil
	}
	return nil, 0, 0, errors.New("service: job has no input")
}

// releaseInput drops the decoded pixels and raw upload bytes. Called
// after the terminal spool writes: the job can never run again in this
// process, and recovery re-reads the spooled input file.
func (j *Job) releaseInput() {
	j.mu.Lock()
	j.pix = nil
	j.input = nil
	j.mu.Unlock()
}

// claim moves a pending job to running; it fails when the job was
// cancelled while queued. On success it returns the time the job spent
// queued (for the queue-wait histogram).
func (j *Job) claim(cancel func()) (time.Duration, bool) {
	return j.claimFor("", cancel)
}

// claimFor is claim with the leasing worker's identity attached (the
// coordinator path; standalone claims pass "").
func (j *Job) claimFor(worker string, cancel func()) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.StatePending {
		return 0, false
	}
	j.state = api.StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.worker = worker
	j.publishLocked("state", j.statusLocked())
	return j.started.Sub(j.submitted), true
}

// finishTerminal moves the job to a terminal state. resultJSON may be
// nil (failed/cancelled). Idempotent: only the first call wins. On the
// first call it returns the job's start→terminal wall clock (zero for
// jobs that never ran).
func (j *Job) finishTerminal(state api.JobState, resultJSON json.RawMessage, errMsg string) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return 0, false
	}
	j.state = state
	j.resultJSON = resultJSON
	j.errMsg = errMsg
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
	switch j.state {
	case api.StatePending:
		j.state = api.StateCancelled
		// Same wire contract as a running job cancelled by the manager
		// (see Manager.run): the queued path must not report an empty
		// Error for the same outcome.
		j.errMsg = "cancelled"
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

// observe records a progress snapshot, returning the iteration delta
// since the previous one (for the manager's aggregate counters). Each
// finite log-posterior sample also feeds the job's convergence window.
func (j *Job) observe(p parmcmc.Progress) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = &p
	if !math.IsNaN(p.LogPost) && !math.IsInf(p.LogPost, 0) {
		j.conv.Add(p.LogPost)
	}
	delta := j.accountItersLocked(p.Iter)
	j.publishLocked("progress", api.NewProgressEvent(p))
	return delta
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
		ID:        j.id,
		State:     j.state,
		Strategy:  j.spec.Strategy,
		Seed:      j.seed,
		Submitted: j.submitted,
		Result:    j.resultJSON,
		Error:     j.errMsg,
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
	if j.state != api.StateRunning || j.progress == nil || j.progress.SpecWidth == 0 {
		return t, false
	}
	return jobSpecTelemetry{id: j.id, width: j.progress.SpecWidth, speedup: j.progress.SpecSpeedup}, true
}

// Diag returns the job's chain diagnostics: the latest progress
// snapshot, streaming split-R̂/ESS over the recent log-posterior
// window, and — once the job is done — the result-level acceptance
// and swap rates plus per-region convergence.
func (j *Job) Diag() api.DiagView {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := api.DiagView{
		ID:       j.id,
		State:    j.state,
		Strategy: j.spec.Strategy,
		Shape:    j.spec.Shape,
		Seed:     j.seed,
		Samples:  j.conv.Len(),
		RHat:     api.Float(j.conv.RHat()),
		ESS:      api.Float(j.conv.ESS()),
		Error:    j.errMsg,
	}
	if j.progress != nil {
		d.Progress = api.NewProgressEvent(*j.progress)
		d.SpecWidth = j.progress.SpecWidth
		d.SpecSpeedup = api.Float(j.progress.SpecSpeedup)
	}
	if j.state == api.StateDone && len(j.resultJSON) > 0 {
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
