package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/pkg/api"
	"repro/pkg/parmcmc"
)

// Spool layout, one directory per job:
//
//	<spool>/<job-id>/job.json        submission record (api.JobRecord)
//	<spool>/<job-id>/input.png|pgm   raw uploaded image, if any
//	<spool>/<job-id>/checkpoint.bin  latest resumable checkpoint
//	<spool>/<job-id>/result.json     final ResultView once done
//
// Every file is written atomically (write-then-rename), so a crash at
// any instant leaves either the previous or the next version — never a
// truncated one.

const (
	spoolRecordFile     = api.SpoolRecordFile
	spoolCheckpointFile = api.SpoolCheckpointFile
	spoolResultFile     = api.SpoolResultFile
)

func (m *Manager) spooling() bool { return m.cfg.SpoolDir != "" }

func (m *Manager) jobDir(id string) string { return filepath.Join(m.cfg.SpoolDir, id) }

// readSpooledInput reads the upload a record names from its job's
// spool directory.
func readSpooledInput(spoolDir string, rec api.JobRecord) ([]byte, error) {
	if spoolDir == "" {
		return nil, fmt.Errorf("input %s is not held and there is no spool", rec.Input)
	}
	return os.ReadFile(filepath.Join(spoolDir, rec.ID, filepath.Base(rec.Input)))
}

// spoolRecord persists the job's record, and with it, on first write,
// its uploaded input and, once done, its result — written first, so a
// done record always has one. A terminal record also drops the job's
// checkpoint: the job can never resume. job.spoolMu serializes the
// writes: Submit's initial pending record and the terminal record can
// otherwise interleave read-state/write-file and regress a finished job
// to pending on disk.
func (m *Manager) spoolRecord(job *Job) error {
	if !m.spooling() {
		return nil
	}
	job.spoolMu.Lock()
	defer job.spoolMu.Unlock()
	dir := m.jobDir(job.ID())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	job.mu.Lock()
	rec, input, result := job.rec, job.input, job.resultJSON // input may be released once the job is terminal
	job.mu.Unlock()
	if input != nil {
		path := filepath.Join(dir, rec.Input)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			if err := cliutil.WriteFileAtomic(path, input, 0o644); err != nil {
				return err
			}
		}
	}
	if rec.State == api.StateDone {
		if err := cliutil.WriteFileAtomic(filepath.Join(dir, spoolResultFile), result, 0o644); err != nil {
			return err
		}
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := cliutil.WriteFileAtomic(filepath.Join(dir, spoolRecordFile), blob, 0o644); err != nil {
		return err
	}
	if rec.State.Terminal() {
		os.Remove(filepath.Join(dir, spoolCheckpointFile))
	}
	return nil
}

// recoverSpool scans the spool directory and rebuilds its jobs:
// terminal ones become read-only entries, interrupted ones are
// re-validated, pointed at their latest checkpoint and returned for
// re-queueing. Corrupt entries are logged and skipped — a damaged
// spool must not keep the daemon down.
func (m *Manager) recoverSpool() ([]*Job, error) {
	if !m.spooling() {
		return nil, nil
	}
	if err := os.MkdirAll(m.cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: spool dir: %w", err)
	}
	entries, err := os.ReadDir(m.cfg.SpoolDir)
	if err != nil {
		return nil, fmt.Errorf("service: spool dir: %w", err)
	}
	var requeue []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		job, terminal, err := m.recoverJob(e.Name())
		if err != nil {
			m.cfg.Logf("service: skipping spooled job %s: %v", e.Name(), err)
			continue
		}
		m.jobs[job.ID()] = job
		m.order = append(m.order, job.ID())
		var n uint64
		if parseJobSeq(job.ID(), &n) && n > m.seq {
			m.seq = n
		}
		if !terminal {
			requeue = append(requeue, job)
		}
	}
	// Deterministic listing and requeue order.
	sort.Strings(m.order)
	sortJobsByID(requeue)
	return requeue, nil
}

// recoverJob rebuilds one spooled job directory.
func (m *Manager) recoverJob(name string) (*Job, bool, error) {
	dir := filepath.Join(m.cfg.SpoolDir, name)
	blob, err := os.ReadFile(filepath.Join(dir, spoolRecordFile))
	if err != nil {
		return nil, false, err
	}
	var rec api.JobRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, false, fmt.Errorf("corrupt record: %w", err)
	}
	if rec.ID != name {
		return nil, false, fmt.Errorf("record id %q does not match directory", rec.ID)
	}
	if _, aerr := optionsFromSpec(&rec.Options); aerr != nil {
		return nil, false, fmt.Errorf("invalid recorded options: %v", aerr)
	}
	if rec.State.Terminal() {
		// Terminal jobs never run again, so their (possibly large) input
		// is not read back.
		job := newJob(rec, nil)
		if rec.State == api.StateDone {
			res, err := os.ReadFile(filepath.Join(dir, spoolResultFile))
			if err != nil {
				return nil, false, fmt.Errorf("done job without result: %w", err)
			}
			job.resultJSON = res
		}
		close(job.done)
		return job, true, nil
	}

	// Interrupted: pending again. An upload is validated exactly as its
	// run will materialise it, and only its bytes are kept. The job
	// resumes from the latest checkpoint when one exists (and still
	// parses); otherwise it restarts from scratch — both paths produce
	// the bit-identical final result. A scratch restart is flagged on
	// the job (JobStatus.Restarted) so a streaming client that watched
	// the pre-crash run rewinds its progress watermark instead of
	// silently suppressing the whole re-run.
	rec.State, rec.Error = api.StatePending, ""
	var input []byte
	if rec.Input != "" {
		if input, err = readSpooledInput(m.cfg.SpoolDir, rec); err != nil {
			return nil, false, err
		}
		if _, _, _, _, err := materialize(rec, input); err != nil {
			return nil, false, err
		}
	}
	job := newJob(rec, input)
	job.resume = m.readCheckpoint(rec.ID)
	job.restarted = job.resume == nil
	return job, false, nil
}

// readCheckpoint loads the job's latest spooled checkpoint and checks
// that it parses, returning its exact bytes — what a run resumes from.
// It returns nil when none exists or it does not parse: the caller
// restarts the job from scratch, which still lands the bit-identical
// result.
func (m *Manager) readCheckpoint(jobID string) []byte {
	if !m.spooling() {
		return nil
	}
	blob, err := os.ReadFile(filepath.Join(m.jobDir(jobID), spoolCheckpointFile))
	if err != nil {
		return nil
	}
	var cp parmcmc.Checkpoint
	if err := cp.UnmarshalBinary(blob); err != nil {
		m.cfg.Logf("service: %s: unusable checkpoint (%v), restarting job from scratch", jobID, err)
		return nil
	}
	return blob
}

// parseJobSeq extracts the numeric suffix of a "job-%08d" id. The
// suffix must be digits only and nothing else: Sscanf-style parsing
// accepted trailing garbage ("job-00000012x" → 12), which would let a
// stray spool directory silently steal a live job's sequence number.
func parseJobSeq(id string, out *uint64) bool {
	const prefix = "job-"
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok || rest == "" {
		return false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return false
	}
	*out = n
	return true
}
